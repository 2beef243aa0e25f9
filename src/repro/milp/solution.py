"""Solve status and result types shared by all MILP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.milp.expr import Var


class SolveStatus(enum.Enum):
    """Outcome of a MILP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"

    @property
    def ok(self) -> bool:
        return self is SolveStatus.OPTIMAL


@dataclass
class SolveResult:
    """Result of solving a :class:`repro.milp.model.Model`.

    Attributes
    ----------
    status:
        Terminal status of the search.
    objective:
        Optimal objective value in the *model's* sense (a max model reports
        the maximum, not its negation), or ``None`` when no solution exists.
    values:
        Mapping from variable index to value at the optimum.
    nodes_explored:
        Number of branch-and-bound nodes processed, one LP relaxation each.
        It depends on the branching rule and on which optimal vertex each
        relaxation returns (so on warm starts), unlike the objective.
    lp_iterations:
        Total simplex pivots across all node relaxations: dual and primal
        pivots of warm re-solves plus both phases of cold solves.
    incumbent_updates:
        How many times the search improved its best integral solution —
        1 on the Human Intranet models when best-bound search walks
        straight to the optimum; larger values indicate weak pruning.
    warm_lp_solves:
        Node relaxations whose verdict came from the warm path — an
        optimum with a checked residual or an infeasibility with a Farkas
        certificate — rather than the cold two-phase path (see
        :mod:`repro.milp.simplex`).
    root_basis:
        The root relaxation's optimal basis, exported so the *next* solve
        of the same formulation (an Algorithm-1 cut iteration) can warm
        start; ``None`` when the root was infeasible or the solver was
        built with warm starts disabled.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[int, float] = field(default_factory=dict)
    nodes_explored: int = 0
    lp_iterations: int = 0
    incumbent_updates: int = 0
    warm_lp_solves: int = 0
    root_basis: Optional[object] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, var: Var) -> float:
        """Value of a variable at the optimum (integer-rounded if integral)."""
        raw = self.values[var.index]
        if var.is_integer:
            return float(round(raw))
        return raw

    def __repr__(self) -> str:
        obj = "None" if self.objective is None else f"{self.objective:.6g}"
        return (
            f"SolveResult({self.status.value}, objective={obj}, "
            f"nodes={self.nodes_explored})"
        )
