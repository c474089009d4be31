"""The commercial computing service provider.

- :mod:`repro.service.sla` — per-job SLA lifecycle records.
- :mod:`repro.service.accounting` — utility ledger (Eq. 4 bookkeeping).
- :mod:`repro.service.provider` — :class:`CommercialComputingService`, which
  wires a workload, a resource-management policy, a cluster model, and an
  economic model together on one simulator and produces the
  :class:`repro.core.objectives.JobOutcome` records the risk analysis
  consumes.
"""
