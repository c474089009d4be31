"""Parallel workload modelling.

This package replaces the paper's use of the SDSC SP2 trace from the Parallel
Workloads Archive:

- :mod:`repro.workload.job` — the :class:`Job` record shared by every layer.
- :mod:`repro.workload.swf` — a complete Standard Workload Format (SWF)
  parser/writer so real archive traces can be dropped in when available.
- :mod:`repro.workload.synthetic` — a calibrated synthetic generator matching
  the published summary statistics of the last 5000 SDSC SP2 jobs.
- :mod:`repro.workload.qos` — deadline/budget/penalty (SLA) synthesis with
  high/low urgency classes, high:low ratios and bias (paper §5.3).
- :mod:`repro.workload.estimates` — the runtime-estimate inaccuracy model.
"""
