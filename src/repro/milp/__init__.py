"""A self-contained mixed integer linear programming (MILP) toolkit.

The DAC'17 Human Intranet paper drives its design-space exploration with the
CPLEX solver accessed through PuLP.  This package is the reproduction's
substitute: a small but complete MILP stack consisting of

* a modeling layer (:mod:`repro.milp.expr`, :mod:`repro.milp.model`) with
  variables, linear expressions, constraints, and an objective;
* a two-phase dense-tableau simplex LP solver with explicit bound rows
  (:mod:`repro.milp.simplex`);
* a best-first branch-and-bound MILP solver
  (:mod:`repro.milp.branch_bound`);
* an optimum-set enumerator (:mod:`repro.milp.enumerate_optima`) used by
  Algorithm 1, which consumes *sets* of MILP optima rather than a single
  incumbent; and
* an optional cross-check backend built on ``scipy.optimize.milp``
  (:mod:`repro.milp.scipy_backend`).

Quick example::

    from repro.milp import Model

    m = Model("knapsack", sense="max")
    x = [m.add_var(f"x{i}", lb=0, ub=1, is_integer=True) for i in range(4)]
    m.set_objective(3 * x[0] + 5 * x[1] + 4 * x[2] + 2 * x[3])
    m.add_constraint(2 * x[0] + 4 * x[1] + 3 * x[2] + 1 * x[3] <= 6)
    result = m.solve()
    assert result.is_optimal
"""

from repro.milp.expr import LinExpr, Var
from repro.milp.model import Constraint, Model
from repro.milp.solution import SolveResult, SolveStatus
from repro.milp.branch_bound import BranchAndBoundSolver
from repro.milp.simplex import LinearProgram, SimplexSolver, SimplexStatus
from repro.milp.enumerate_optima import enumerate_optimal_solutions
from repro.milp.scipy_backend import solve_with_scipy

__all__ = [
    "Var",
    "LinExpr",
    "Constraint",
    "Model",
    "SolveResult",
    "SolveStatus",
    "BranchAndBoundSolver",
    "LinearProgram",
    "SimplexSolver",
    "SimplexStatus",
    "enumerate_optimal_solutions",
    "solve_with_scipy",
]
