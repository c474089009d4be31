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

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.market.cohort import UserCohort
    from repro.market.marketplace import Marketplace, MarketShareSample, ProviderSpec
    from repro.market.provider import OutageTimeline, SyntheticProvider, SyntheticSpec
    from repro.market.stream import market_job_stream
    from repro.market.user import SatisfactionParams, score_outcome, softmax_pick

__all__ = [
    "SatisfactionParams",
    "Marketplace",
    "ProviderSpec",
    "MarketShareSample",
    "UserCohort",
    "OutageTimeline",
    "SyntheticProvider",
    "SyntheticSpec",
    "market_job_stream",
    "score_outcome",
    "softmax_pick",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.market.cohort": ("UserCohort",),
    "repro.market.marketplace": ("Marketplace", "MarketShareSample", "ProviderSpec"),
    "repro.market.provider": ("OutageTimeline", "SyntheticProvider", "SyntheticSpec"),
    "repro.market.stream": ("market_job_stream",),
    "repro.market.user": ("SatisfactionParams", "score_outcome", "softmax_pick"),
})
