"""Baseline optimizers the paper compares Algorithm 1 against.

* :mod:`repro.baselines.exhaustive` — simulate every feasible
  configuration (the reference for the paper's "87% fewer simulations"
  claim);
* :mod:`repro.baselines.annealing` — simulated annealing over the same
  discrete space with the same simulation oracle (the paper's
  general-purpose comparator, reported 3× slower).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.exhaustive": ("ExhaustiveSearch", "ExhaustiveResult"),
    "repro.baselines.annealing": (
        "SimulatedAnnealing", "AnnealingSchedule", "AnnealingResult",
    ),
})
