"""Economic models, pricing functions, and the penalty function (paper §5.1–5.2).

- :mod:`repro.economy.penalty` — the bid-based model's unbounded linear
  penalty (Fig. 2, Eqs. 9–10).
- :mod:`repro.economy.pricing` — the pricing functions policies use in the
  commodity market model: flat base pricing (backfillers), Libra's static
  incentive pricing, and Libra+$'s dynamic utilisation pricing.
- :mod:`repro.economy.models` — :class:`CommodityMarketModel` (provider sets
  the price; no penalty; budget caps acceptance) and :class:`BidBasedModel`
  (user bids the price; deadline misses are penalised without bound).
"""
