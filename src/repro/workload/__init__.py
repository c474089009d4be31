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

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.workload.cleaning import (
        cap_estimates,
        filter_by_procs,
        filter_span,
        offered_load,
        remove_flurries,
        scale_load,
        take_last,
    )
    from repro.workload.estimates import apply_inaccuracy, synthesize_trace_estimates
    from repro.workload.job import Job
    from repro.workload.lublin import LublinModel, generate_lublin_trace
    from repro.workload.qos import QoSParameter, QoSSpec, assign_qos
    from repro.workload.swf import SWFField, parse_swf, parse_swf_text, write_swf
    from repro.workload.synthetic import SDSC_SP2, TraceModel, generate_trace

__all__ = [
    "Job",
    "SWFField",
    "parse_swf",
    "parse_swf_text",
    "write_swf",
    "TraceModel",
    "SDSC_SP2",
    "generate_trace",
    "LublinModel",
    "generate_lublin_trace",
    "QoSSpec",
    "QoSParameter",
    "assign_qos",
    "apply_inaccuracy",
    "synthesize_trace_estimates",
    "take_last",
    "filter_by_procs",
    "filter_span",
    "remove_flurries",
    "cap_estimates",
    "scale_load",
    "offered_load",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workload.cleaning": (
        "cap_estimates",
        "filter_by_procs",
        "filter_span",
        "offered_load",
        "remove_flurries",
        "scale_load",
        "take_last",
    ),
    "repro.workload.estimates": ("apply_inaccuracy", "synthesize_trace_estimates"),
    "repro.workload.job": ("Job",),
    "repro.workload.lublin": ("LublinModel", "generate_lublin_trace"),
    "repro.workload.qos": ("QoSParameter", "QoSSpec", "assign_qos"),
    "repro.workload.swf": ("SWFField", "parse_swf", "parse_swf_text", "write_swf"),
    "repro.workload.synthetic": ("SDSC_SP2", "TraceModel", "generate_trace"),
})
