"""Fault injection and dependability (`repro.faults`).

The paper's risk analysis assumes perfectly reliable nodes, yet a
commercial provider's dominant source of deadline misses in production is
resource failure.  This subsystem layers a failure/repair process onto the
discrete-event simulation — the same architectural move Dobre et al. make
for dependability simulation on grids, and that CloudSim ships as a core
reliability layer rather than a per-experiment hack:

- :mod:`repro.faults.config` — :class:`FaultConfig`, the experiment-level
  description of the failure regime (MTBF/MTTR, distribution, recovery
  discipline).  It is a field of every
  :class:`~repro.experiments.scenarios.ExperimentConfig`, so faulty runs
  are content-addressed in the run store exactly like reliable ones.
- :mod:`repro.faults.models` — pluggable failure/repair processes:
  exponential and Weibull MTBF/MTTR draws, plus a deterministic scripted
  schedule used by tests and CI smoke jobs.
- :mod:`repro.faults.injector` — the :class:`FaultInjector` that schedules
  node-down/node-up events on the :class:`~repro.sim.engine.Simulator`,
  marks nodes unavailable on the cluster, and hands killed jobs to the
  policy's recovery path (resubmit or checkpoint-restore).
- :mod:`repro.faults.topology` — :class:`FaultTopology`, the serialisable
  node → rack → site grouping behind correlated outages: domain-level
  failure processes take whole groups down atomically, cascades propagate
  failures along topology edges, and an elastic-capacity process
  commissions/decommissions nodes mid-run.

Every stochastic draw comes from a dedicated substream of
:class:`~repro.sim.rng.RngStreams` — ``faults.node<i>`` per node,
``faults.domain.<name>`` per fault domain, ``faults.cascade`` and
``faults.elastic`` for the correlated machinery — so enabling fault
injection (or any single fault feature) never perturbs the workload
synthesis or the other features' draws, and runs stay bit-for-bit
reproducible.
"""
