"""Network substrate: shared links and input-data staging.

The paper's platform, GridSim, models differentiated network service (its
ref. [25]); the paper itself ignores transfer times.  This package provides
the corresponding substrate as an optional extension:

- :mod:`repro.network.link` — a fair-shared (processor-sharing) network
  link: concurrent transfers split the bandwidth equally, rates are
  recomputed event-by-event exactly like the time-shared cluster.
- :mod:`repro.network.staging` — a data-staging front end for a
  provider: a job whose ``extra["input_mb"]`` is set must finish staging
  its input over the link before the policy examines it, so transfer time
  eats into the deadline window and into the wait objective.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.network.link import SharedLink, Transfer
    from repro.network.staging import DataStagingFrontEnd, assign_input_sizes

__all__ = [
    "SharedLink",
    "Transfer",
    "DataStagingFrontEnd",
    "assign_input_sizes",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.network.link": ("SharedLink", "Transfer"),
    "repro.network.staging": ("DataStagingFrontEnd", "assign_input_sizes"),
})
