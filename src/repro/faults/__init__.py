"""Fault injection and robust design-space exploration.

The paper motivates the Human Intranet with safety-critical traffic and
argues for mesh flooding precisely because the dynamic body channel makes
single links fragile — yet the base simulator only ever evaluates a
*healthy* network.  This package adds the robustness layer:

* :mod:`repro.faults.model` — declarative fault scenarios (node death,
  battery-depletion acceleration, transient link blackouts, hub radio
  outage with recovery) and seeded ensemble generators;
* :mod:`repro.faults.injector` — compilation of a
  :class:`~repro.faults.model.FaultScenario` into discrete-event-kernel
  events, injected through hooks in the radio/medium/application layers;
* :mod:`repro.faults.resilience` — ensemble evaluation: one configuration
  across a fault-scenario ensemble (parallelized, persistently cached per
  fault fingerprint) reduced to resilience metrics, feeding the
  chance-constrained accept test of
  :meth:`repro.core.explorer.HumanIntranetExplorer.explore_robust`.

Every fault scenario is fully declarative: all randomness is resolved at
ensemble-construction time from dedicated :class:`repro.des.rng.RngStreams`
substreams, so a campaign is a pure function of ``(seed, ensemble spec)``
and bit-reproducible at any ``--jobs`` count.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.model": (
        "FaultKind",
        "FaultScenario",
        "FaultSpec",
        "sample_fault_ensemble",
        "hub_stress_ensemble",
        "torso_crossing_links",
    ),
    "repro.faults.injector": ("FaultInjector", "FaultState"),
    "repro.faults.resilience": (
        "EnsembleOracle", "ResilienceRecord", "pdr_quantile",
    ),
})
