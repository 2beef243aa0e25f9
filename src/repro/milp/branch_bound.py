"""Best-first branch-and-bound MILP solver on top of the simplex LP engine.

The solver follows the classic LP-relaxation scheme:

1. Solve the LP relaxation of the node (integrality dropped, but with the
   node's tightened bounds).
2. Prune if infeasible or if the relaxation bound cannot beat the incumbent.
3. If the relaxation is integral, update the incumbent.
4. Otherwise branch on ``x <= floor(v)`` / ``x >= ceil(v)``, choosing the
   variable *objective first*: the most fractional integer variable with a
   nonzero objective coefficient, and only when all of those are integral
   the most fractional integer variable overall.  On the Human Intranet
   models the objective sits on the (routing, TX level, N) combination
   indicators, so the tree settles the power level before it looks at
   placement bits, which carry no objective weight.

Nodes are explored best-bound-first (a heap keyed on the parent relaxation
value), which gives strong pruning on the Human Intranet models where the
coarse power objective takes few distinct values.  Determinism: ties in the
heap break on node creation order, so repeated solves of the same model
produce identical trajectories.

Each child relaxation is re-solved from its parent's optimal basis (see
:mod:`repro.milp.simplex`); a pending node holds only that basis, never a
tableau.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.milp.model import Model
from repro.milp.simplex import (
    LinearProgram,
    SimplexSolver,
    SimplexStatus,
    WarmStartBasis,
)
from repro.milp.solution import SolveResult, SolveStatus

#: A solution component within this distance of an integer counts as integral.
INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: bound tightenings relative to the root.

    Ordering is (bound, sequence) so the heap pops the most promising node
    first and is deterministic under ties.
    """

    bound: float
    sequence: int
    lower: np.ndarray = None  # type: ignore[assignment]
    upper: np.ndarray = None  # type: ignore[assignment]
    #: Parent relaxation's optimal basis: the child LP differs by one
    #: bound, so re-optimizing from here is a few dual pivots instead of
    #: a full two-phase solve.  Never part of the heap ordering (bound,
    #: sequence) key.
    basis: Optional[WarmStartBasis] = None

    def __post_init__(self) -> None:
        # dataclass(order=True) would compare arrays; exclude them by
        # keeping them out of the comparison via field order — bound and
        # sequence always differ before arrays are reached because sequence
        # is unique.
        pass


class BranchAndBoundSolver:
    """Exact MILP solver.

    Parameters
    ----------
    max_nodes:
        Node budget; the Human Intranet models need well under 1000.
    gap_tol:
        Absolute optimality gap at which a node is pruned against the
        incumbent.  Zero-ish keeps the solver exact for the coarse power
        objective whose distinct values are well separated.
    lp_solver:
        Simplex engine; injectable for testing.
    use_warm_starts:
        Re-optimize each child relaxation from its parent's optimal basis
        (and the root from ``root_warm_start``, when given) instead of a
        cold two-phase solve; ``False`` is the cold reference.  The simplex
        layer returns only checked warm verdicts and falls back cold
        otherwise, so the optimum does not depend on this flag.  The node
        and pivot counts do: a degenerate relaxation has several optimal
        vertices, and warm and cold solves can return different ones, which
        branch differently.
    """

    def __init__(
        self,
        max_nodes: int = 100000,
        gap_tol: float = 1e-9,
        lp_solver: Optional[SimplexSolver] = None,
        use_warm_starts: bool = True,
    ) -> None:
        self.max_nodes = max_nodes
        self.gap_tol = gap_tol
        self.lp_solver = lp_solver or SimplexSolver()
        self.use_warm_starts = use_warm_starts

    def solve(
        self, model: Model, root_warm_start: Optional[WarmStartBasis] = None
    ) -> SolveResult:
        """Solve ``model`` to optimality (in the model's objective sense)."""
        c, a_ub, b_ub, a_eq, b_eq, bounds, c0 = model.to_standard_arrays()
        int_indices = np.array(model.integer_indices, dtype=int)
        objective_ints = int_indices[c[int_indices] != 0.0]

        # Integer variables with infinite bounds would make the search
        # potentially endless; the Human Intranet models never need them.
        for j in int_indices:
            if not (math.isfinite(bounds[j, 0]) and math.isfinite(bounds[j, 1])):
                raise ValueError(
                    f"integer variable {model.variables[j].name!r} must have "
                    "finite bounds for branch and bound"
                )

        counter = itertools.count()
        root = _Node(-math.inf, next(counter))
        root.lower = bounds[:, 0].copy()
        root.upper = bounds[:, 1].copy()
        if self.use_warm_starts:
            root.basis = root_warm_start
        heap: List[_Node] = [root]

        incumbent_value: Optional[np.ndarray] = None
        incumbent_obj = math.inf  # in minimization space
        nodes = 0
        lp_iters = 0
        incumbent_updates = 0
        warm_lp_solves = 0
        root_basis: Optional[WarmStartBasis] = None
        saw_unbounded_relaxation = False
        warm = self.use_warm_starts

        while heap and nodes < self.max_nodes:
            node = heapq.heappop(heap)
            if node.bound >= incumbent_obj - self.gap_tol:
                continue  # cannot improve
            nodes += 1

            lp = LinearProgram(
                c, a_ub, b_ub, a_eq, b_eq,
                np.column_stack([node.lower, node.upper]), 0.0,
            )
            result = self.lp_solver.solve(
                lp, warm_start=node.basis if warm else None, want_basis=warm
            )
            lp_iters += result.iterations
            if result.warm_started:
                warm_lp_solves += 1
            if node is root:
                root_basis = result.basis
            if result.status is SimplexStatus.INFEASIBLE:
                continue
            if result.status is SimplexStatus.UNBOUNDED:
                saw_unbounded_relaxation = True
                # An unbounded relaxation at any node means the MILP itself
                # is unbounded or infeasible; with bounded integers the
                # continuous directions dominate, so report unbounded.
                break
            if result.status is SimplexStatus.ITERATION_LIMIT:
                raise RuntimeError("simplex iteration limit hit inside branch and bound")
            assert result.x is not None and result.objective is not None
            relax_obj = result.objective  # includes no c0 (added at the end)
            if relax_obj >= incumbent_obj - self.gap_tol:
                continue

            frac_j, frac_val = self._branch_variable(
                result.x, objective_ints, int_indices
            )
            if frac_j is None:
                # Integral within tolerance.  Rounding can nudge a point
                # across a constraint that is only epsilon-deep (e.g. the
                # explorer's strict power cuts), so validate the rounded
                # point before accepting it; if it fails, branch on the
                # least-integral variable instead of accepting a bogus
                # incumbent.
                x = result.x.copy()
                x[int_indices] = np.round(x[int_indices])
                if self._rounded_point_feasible(x, a_ub, b_ub, a_eq, b_eq):
                    incumbent_obj = float(c @ x)
                    incumbent_value = x
                    incumbent_updates += 1
                    continue
                frac_j, frac_val = self._branch_variable(
                    result.x, objective_ints, int_indices, tol=1e-12
                )
                if frac_j is None:
                    # Exactly integral yet infeasible after rounding:
                    # a genuinely infeasible LP vertex cannot happen, so
                    # treat as numerical noise and prune this node.
                    continue

            # Branch point: children are x <= k and x >= k + 1.  For a
            # genuinely fractional value, k = floor(v).  For a
            # near-integral value that failed rounded-point validation,
            # k = round(v) - 1 so the up child *pins* the variable at its
            # rounded value (where the LP itself decides feasibility) and
            # the down child excludes it — both children strictly shrink
            # the box, which floor(v + tol) would not.
            dist_to_int = abs(frac_val - round(frac_val))
            if dist_to_int <= INT_TOL:
                floor_v = int(round(frac_val)) - 1
            else:
                floor_v = math.floor(frac_val)
            # Down child: x_j <= floor(v)
            down = _Node(relax_obj, next(counter))
            down.lower = node.lower.copy()
            down.upper = node.upper.copy()
            down.upper[frac_j] = float(floor_v)
            down.basis = result.basis
            if down.lower[frac_j] <= down.upper[frac_j]:
                heapq.heappush(heap, down)
            # Up child: x_j >= floor(v) + 1
            up = _Node(relax_obj, next(counter))
            up.lower = node.lower.copy()
            up.upper = node.upper.copy()
            up.lower[frac_j] = float(floor_v + 1)
            up.basis = result.basis
            if up.lower[frac_j] <= up.upper[frac_j]:
                heapq.heappush(heap, up)

        if saw_unbounded_relaxation and incumbent_value is None:
            return SolveResult(SolveStatus.UNBOUNDED, nodes_explored=nodes,
                               lp_iterations=lp_iters,
                               warm_lp_solves=warm_lp_solves,
                               root_basis=root_basis)
        if incumbent_value is None:
            status = (
                SolveStatus.NODE_LIMIT if heap and nodes >= self.max_nodes
                else SolveStatus.INFEASIBLE
            )
            return SolveResult(status, nodes_explored=nodes, lp_iterations=lp_iters,
                               warm_lp_solves=warm_lp_solves,
                               root_basis=root_basis)
        if heap and nodes >= self.max_nodes:
            # Incumbent exists but optimality was not proven: report it as a
            # best-effort bound under the NODE_LIMIT status.
            min_obj = incumbent_obj + c0
            return SolveResult(
                SolveStatus.NODE_LIMIT,
                objective=float(min_obj if model.sense == "min" else -min_obj),
                values={i: float(v) for i, v in enumerate(incumbent_value)},
                nodes_explored=nodes,
                lp_iterations=lp_iters,
                incumbent_updates=incumbent_updates,
                warm_lp_solves=warm_lp_solves,
                root_basis=root_basis,
            )

        # incumbent_obj is in minimization space without c0; map back.
        min_obj = incumbent_obj + c0
        reported = min_obj if model.sense == "min" else -min_obj
        values = {i: float(v) for i, v in enumerate(incumbent_value)}
        for j in int_indices:
            values[int(j)] = float(round(values[int(j)]))
        return SolveResult(
            SolveStatus.OPTIMAL,
            objective=float(reported),
            values=values,
            nodes_explored=nodes,
            lp_iterations=lp_iters,
            incumbent_updates=incumbent_updates,
            warm_lp_solves=warm_lp_solves,
            root_basis=root_basis,
        )

    @staticmethod
    def _branch_variable(
        x: np.ndarray,
        objective_ints: np.ndarray,
        int_indices: np.ndarray,
        tol: float = INT_TOL,
    ) -> Tuple[Optional[int], float]:
        """Objective-first branching: the most fractional integer variable
        with a nonzero objective coefficient, else the most fractional of
        all integer variables; ``(None, 0.0)`` when all are integral."""
        for candidates in (objective_ints, int_indices):
            if len(candidates) == 0:
                continue
            values = x[candidates]
            dist = np.abs(values - np.round(values))
            best = int(np.argmax(dist))
            if dist[best] > tol:
                return int(candidates[best]), float(values[best])
        return None, 0.0

    @staticmethod
    def _rounded_point_feasible(
        x: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        tol: float = 1e-7,
    ) -> bool:
        """Constraint check for a rounded candidate incumbent."""
        if a_ub.shape[0] and np.any(a_ub @ x > b_ub + tol):
            return False
        if a_eq.shape[0] and np.any(np.abs(a_eq @ x - b_eq) > tol):
            return False
        return True
