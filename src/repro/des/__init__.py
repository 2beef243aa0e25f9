"""A deterministic discrete-event simulation (DES) kernel.

This package is the reproduction's substitute for the Castalia/OMNeT++
simulator used in the paper.  It provides:

* :class:`repro.des.engine.Simulator` — an event-scheduling kernel with a
  binary-heap future event list, stable simultaneous-event ordering, and
  cancellable events;
* :mod:`repro.des.rng` — named, independently seeded random streams so
  that every stochastic component is reproducible and runs can be averaged
  over disjoint randomness;
* :mod:`repro.des.monitor` — counters, time-weighted statistics, and trace
  recording used by the network stack's bookkeeping.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.des.engine": ("Simulator", "Event"),
    "repro.des.rng": ("RngStreams",),
    "repro.des.monitor": ("Counter", "TimeWeightedValue", "TraceLog"),
})
