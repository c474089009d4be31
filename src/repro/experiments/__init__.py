"""Experiment harness reproducing the paper's evaluation (§5–6).

- :mod:`repro.experiments.scenarios` — the Table VI scenario grid: twelve
  scenarios × six varying values around a default configuration, with the
  Set A (accurate estimates) / Set B (trace estimates) split.
- :mod:`repro.experiments.runner` — builds workloads from configurations,
  runs policy × scenario grids with caching, and reduces raw objective
  values to separate/integrated risk analyses.
- :mod:`repro.experiments.sampledata` — the synthetic eight-policy example
  of Fig. 1 / Tables II–IV.
- :mod:`repro.experiments.figures` — one generator per paper figure (1–8).
- :mod:`repro.experiments.tables` — one generator per paper table (I–VI).
- :mod:`repro.experiments.report` — plain-text rendering helpers.
- :mod:`repro.experiments.faultsweep` — availability-vs-risk sweeps: one
  fault knob swept as a one-scenario grid through the same pipeline.
- :mod:`repro.experiments.marketsweep` — population-scale market sweeps:
  provider risk knobs vs final market share/revenue, content-addressed
  through the same :class:`~repro.experiments.runstore.RunStore`.
"""
