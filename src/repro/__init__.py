"""repro — reproduction of *Integrated Risk Analysis for a Commercial
Computing Service in Utility Computing* (Yeo & Buyya, IPDPS 2007 / JoGC).

The package is organised bottom-up:

- :mod:`repro.sim` — discrete-event simulation engine (GridSim substitute).
- :mod:`repro.workload` — parallel workload traces (SWF parser, synthetic
  SDSC-SP2-like generator) and SLA/QoS parameter synthesis.
- :mod:`repro.cluster` — space-shared and time-shared cluster resource models.
- :mod:`repro.faults` — node, rack and site failures, cascades and recovery
  injected into the simulation.
- :mod:`repro.economy` — commodity-market and bid-based economic models,
  pricing functions, and the linear penalty function.
- :mod:`repro.policies` — the seven resource-management policies evaluated in
  the paper (FCFS-BF, SJF-BF, EDF-BF, Libra, Libra+$, LibraRiskD, FirstReward).
- :mod:`repro.service` — the commercial computing service provider that ties
  workload, policy, cluster and economy together.
- :mod:`repro.core` — the paper's contribution: objective measurement,
  separate and integrated risk analysis, ranking and risk-analysis plots.
- :mod:`repro.experiments` — the Table VI scenario grid and generators for
  every table and figure in the paper.
- :mod:`repro.market` — a multi-provider market in which a population of
  users switches between services.
- :mod:`repro.farm` — a work-stealing grid farm over shared directories.
- :mod:`repro.perf` — performance counters and the regression gate.

Every name is imported from the module that defines it; the packages
re-export nothing (except :mod:`repro.policies`, :mod:`repro.sim` and
:mod:`repro.perf`).  See ``docs/architecture.md``.
"""

__version__ = "1.0.0"
