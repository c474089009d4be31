"""repro — reproduction of *Integrated Risk Analysis for a Commercial
Computing Service in Utility Computing* (Yeo & Buyya, IPDPS 2007 / JoGC).

The package is organised bottom-up:

- :mod:`repro.sim` — discrete-event simulation engine (GridSim substitute).
- :mod:`repro.workload` — parallel workload traces (SWF parser, synthetic
  SDSC-SP2-like generator) and SLA/QoS parameter synthesis.
- :mod:`repro.cluster` — space-shared and time-shared cluster resource models.
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

Importing a package loads only what its names need: the simulation stack
(``sim``, ``workload``, ``cluster``, ``economy``, ``policies``,
``service``, ``perf``) imports eagerly, and every other façade — this one
included — resolves its names on first access through
:func:`_lazy_exports`.  See ``docs/architecture.md``.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.integrated import IntegratedRisk, integrated_risk
    from repro.core.objectives import ObjectiveSet
    from repro.core.riskplot import RiskPoint
    from repro.core.separate import SeparateRisk, separate_risk
    from repro.workload.job import Job

__version__ = "1.0.0"

__all__ = [
    "Job",
    "ObjectiveSet",
    "RiskPoint",
    "SeparateRisk",
    "IntegratedRisk",
    "separate_risk",
    "integrated_risk",
    "__version__",
]


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy façade (PEP 562).

    ``exports`` maps each submodule's absolute name to the names the
    package re-exports from it.  A name's submodule is imported on the
    name's first access, and the value is then bound in the package, so
    later reads are plain attribute hits.  Reading any other missing name
    raises :class:`AttributeError`, so ``hasattr``, ``from … import *``
    and ``from pkg import submodule`` behave as for an eager package.

    A lazy façade keeps its ``__all__`` and repeats the same imports in an
    ``if TYPE_CHECKING:`` block, so linters and type checkers see every
    name; ``tests/test_import_layering.py`` holds the two equal.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.integrated": ("IntegratedRisk", "integrated_risk"),
    "repro.core.objectives": ("ObjectiveSet",),
    "repro.core.riskplot": ("RiskPoint",),
    "repro.core.separate": ("SeparateRisk", "separate_risk"),
    "repro.workload.job": ("Job",),
})
