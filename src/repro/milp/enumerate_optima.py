"""Enumerate the full set of optimal solutions of a binary-heavy MILP.

Algorithm 1 in the paper (line 3, ``RunMILP``) returns a *set* of candidate
configurations ``S = {(nu*_j, chi*_j)}`` — all solutions attaining the
minimum of the coarse power objective — because the analytical model of
Eq. 9 does not distinguish between, e.g., different node placements with the
same node count.  This module provides that set-valued solve.

The enumeration uses the standard no-good-cut loop:

1. Solve the MILP; record the optimum value ``z*``.
2. Pin the objective to ``z*`` (within a tolerance) and repeatedly:
   a. solve, record the binary assignment found,
   b. add a no-good cut excluding that assignment,
   until the pinned model becomes infeasible or ``max_solutions`` is hit.

No-good cuts require the distinguishing variables to be binary, which holds
for the Human Intranet encoding (placement bits, power-level selectors, MAC
and routing selectors are all 0/1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.milp.expr import LinExpr, Var
from repro.milp.model import Model
from repro.milp.solution import SolveResult, SolveStatus

#: Slack allowed when pinning the objective to the optimum, absorbing
#: simplex round-off.
OBJECTIVE_TOL = 1e-6


def enumerate_optimal_solutions(
    model: Model,
    distinguish_vars: Optional[Sequence[Var]] = None,
    max_solutions: int = 64,
) -> Tuple[SolveStatus, List[SolveResult], Optional[float]]:
    """Return ``(status, solutions, optimum)`` for the given model.

    Parameters
    ----------
    model:
        The MILP to enumerate.  It is copied; the caller's model is not
        mutated.
    distinguish_vars:
        Binary variables whose assignment defines solution identity.  When
        ``None``, all binary variables of the model are used.  Two optima
        with identical assignments on these variables count as one solution.
    max_solutions:
        Upper bound on the number of enumerated optima (a safety valve —
        Algorithm 1 only needs a representative candidate set per
        iteration).

    Returns
    -------
    status:
        ``OPTIMAL`` when at least one solution was found, otherwise the
        first solve's status (e.g. ``INFEASIBLE``).
    solutions:
        Solutions in discovery order; deterministic for a fixed model.
    optimum:
        The shared objective value, or ``None`` when infeasible.
    """
    work = model.copy()
    first = work.solve()
    if not first.is_optimal:
        return first.status, [], None
    assert first.objective is not None
    optimum = first.objective

    if distinguish_vars is None:
        keys = [v for v in work.variables if v.is_binary]
    else:
        keys = [work.var_by_name(v.name) for v in distinguish_vars]
    if not keys:
        # Nothing to distinguish on: the optimum is unique by definition.
        return SolveStatus.OPTIMAL, [first], optimum

    # Pin the objective at the optimal value.
    obj = work.objective
    if work.sense == "min":
        work.add_constraint(obj <= optimum + OBJECTIVE_TOL, name="pin_obj_ub")
        work.add_constraint(obj >= optimum - OBJECTIVE_TOL, name="pin_obj_lb")
    else:
        work.add_constraint(obj >= optimum - OBJECTIVE_TOL, name="pin_obj_lb")
        work.add_constraint(obj <= optimum + OBJECTIVE_TOL, name="pin_obj_ub")

    solutions: List[SolveResult] = [first]
    seen = {_assignment_key(first, keys)}
    _add_no_good_cut(work, first, keys)

    while len(solutions) < max_solutions:
        nxt = work.solve()
        if nxt.status is SolveStatus.INFEASIBLE:
            break
        if not nxt.is_optimal:
            # Node limit or numerical trouble: stop enumerating but keep
            # what we have — Algorithm 1 degrades gracefully with a partial
            # candidate set.
            break
        key = _assignment_key(nxt, keys)
        if key in seen:
            # The cut failed to exclude the point (should not happen for
            # binary keys); bail out rather than loop forever.
            break
        seen.add(key)
        solutions.append(nxt)
        _add_no_good_cut(work, nxt, keys)

    return SolveStatus.OPTIMAL, solutions, optimum


def _assignment_key(result: SolveResult, keys: Sequence[Var]) -> Tuple[int, ...]:
    return tuple(int(round(result.values[v.index])) for v in keys)


def _add_no_good_cut(model: Model, result: SolveResult, keys: Sequence[Var]) -> None:
    """Exclude the binary assignment of ``result`` on ``keys``.

    For assignment a in {0,1}^k the cut is
    ``sum_{a_i=1} (1 - x_i) + sum_{a_i=0} x_i >= 1``.
    """
    terms: List[LinExpr] = []
    ones = 0
    for v in keys:
        a = int(round(result.values[v.index]))
        if a == 1:
            ones += 1
            terms.append(-v.to_expr())
        else:
            terms.append(v.to_expr())
    lhs = LinExpr.sum_of(terms) + ones
    model.add_constraint(lhs >= 1, name=f"nogood_{len(model.constraints)}")


def solution_values_by_name(model: Model, result: SolveResult) -> Dict[str, float]:
    """Convenience: map variable names to their values in a result."""
    return {v.name: result.value(v) for v in model.variables}
