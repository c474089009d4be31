"""Multi-provider utility-computing market (paper §3's motivation).

The paper argues that in a free utility-computing market "service users can
switch to any computing service whenever they want", so "ignoring
user-centric objectives is likely to result in dwindling number of users,
loss of reputation and revenue, and finally out-of-business".  This package
simulates that dynamic directly, at population scale:

- :mod:`repro.market.user` — the scalar satisfaction/choice primitives;
- :mod:`repro.market.cohort` — :class:`UserCohort`, the whole population's
  satisfaction state as one ``(n_users × n_providers)`` array with
  vectorized EWMA updates (bit-identical to per-object agents — see
  ``docs/market.md`` for the parity contract);
- :mod:`repro.market.provider` — O(1) fluid-queue
  :class:`SyntheticProvider` competitors with sweepable risk knobs
  (capacity, admission policy, MTBF/MTTR, correlated ``outage_group``
  membership via a shared :class:`OutageTimeline`);
- :mod:`repro.market.marketplace` — the market itself: streaming job
  arrival, window-batched feedback, mixed service/synthetic providers on
  one simulator, market-share and revenue time series;
- :mod:`repro.market.stream` — deterministic QoS-annotated Lublin job
  streams (lazy, O(chunk) memory).

It is an *extension* of the paper (none of its figures need it); the
benchmark ``benchmarks/test_market_extension.py`` demonstrates the §3
claim quantitatively and :mod:`repro.experiments.marketsweep` quantifies
risk-vs-survival at population scale.
"""
