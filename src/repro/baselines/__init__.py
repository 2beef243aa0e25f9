"""Baseline optimizers the paper compares Algorithm 1 against.

* :mod:`repro.baselines.exhaustive` — simulate every feasible
  configuration (the reference for the paper's "87% fewer simulations"
  claim);
* :mod:`repro.baselines.annealing` — simulated annealing over the same
  discrete space with the same simulation oracle (the paper's
  general-purpose comparator, reported 3× slower).
"""

from repro.baselines.exhaustive import ExhaustiveSearch, ExhaustiveResult
from repro.baselines.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    SimulatedAnnealing,
)

__all__ = [
    "ExhaustiveSearch",
    "ExhaustiveResult",
    "SimulatedAnnealing",
    "AnnealingSchedule",
    "AnnealingResult",
]
