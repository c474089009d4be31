"""Discrete-event simulation engine.

A minimal, deterministic event-calendar simulator in the style of GridSim /
SimPy: a monotonic clock, a future event list that is one binary heap,
stable FIFO tie-breaking for simultaneous events, and cancellable event
handles.

The engine is deliberately tiny — policies and resource models drive all the
behaviour — but it is a real substrate: everything in :mod:`repro.service`
and :mod:`repro.cluster` runs on it.
"""

from repro.sim.engine import SimBudgetExceeded, SimulationError, Simulator
from repro.sim.events import EventHandle, Priority
from repro.sim.rng import RngStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "SimBudgetExceeded",
    "EventHandle",
    "Priority",
    "RngStreams",
]
