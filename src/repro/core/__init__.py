"""The paper's contribution: objectives and risk analysis (paper §3–4).

- :mod:`repro.core.objectives` — the four essential objectives of a
  commercial computing service and their measurement (Eqs. 1–4).
- :mod:`repro.core.normalize` — standardisation of raw objective values to
  [0, 1] with 1 = best (paper §4.1).
- :mod:`repro.core.separate` — separate risk analysis: performance μ_sep and
  volatility σ_sep of one objective over a scenario (Eqs. 5–6).
- :mod:`repro.core.integrated` — integrated risk analysis: weighted
  combination over objectives (Eqs. 7–8).
- :mod:`repro.core.trend` — trend lines over (volatility, performance)
  points and gradient classification.
- :mod:`repro.core.ranking` — the policy ranking rules of Tables III–IV.
- :mod:`repro.core.riskplot` — the risk-analysis plot data model (Fig. 1)
  with ASCII and CSV renderings.
"""
