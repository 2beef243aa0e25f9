"""The :class:`Model` container tying variables, constraints, and objective.

A model is the single entry point users need: create variables with
:meth:`Model.add_var`, add constraints with :meth:`Model.add_constraint`,
set an objective, and call :meth:`Model.solve`.  The model also knows how to
lower itself into the standard-form arrays consumed by the simplex and
branch-and-bound solvers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.milp.expr import INF, ConstraintSpec, ExprLike, LinExpr, Var


class Constraint:
    """A named linear constraint ``sum coeffs * x (sense) rhs``."""

    __slots__ = ("name", "coeffs", "sense", "rhs")

    def __init__(self, name: str, coeffs: Dict[int, float], sense: str, rhs: float):
        self.name = name
        self.coeffs = coeffs
        self.sense = sense
        self.rhs = float(rhs)

    def violation(self, values: Dict[int, float], tol: float = 1e-9) -> float:
        """Amount by which a point violates this constraint (0 if satisfied)."""
        lhs = sum(c * values[i] for i, c in self.coeffs.items())
        if self.sense == "<=":
            return max(0.0, lhs - self.rhs - tol)
        if self.sense == ">=":
            return max(0.0, self.rhs - lhs - tol)
        return max(0.0, abs(lhs - self.rhs) - tol)

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"Constraint({self.name!r}: {body} {self.sense} {self.rhs:g})"


class Model:
    """A mixed integer linear program.

    Parameters
    ----------
    name:
        Label used in reprs and error messages.
    sense:
        ``"min"`` or ``"max"``.  Internally everything is minimized; a max
        objective is negated on the way in and the reported objective value
        is negated back on the way out.
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: Dict[str, Var] = {}
        self._constraint_counter = 0

    # -- building ------------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        is_integer: bool = False,
    ) -> Var:
        """Create and register a decision variable.

        Raises :class:`ValueError` on duplicate names so that model-building
        bugs surface immediately instead of silently aliasing columns.
        """
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r} in model {self.name!r}")
        var = Var(len(self.variables), name, lb=lb, ub=ub, is_integer=is_integer)
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str) -> Var:
        """Shorthand for an integer variable with bounds [0, 1]."""
        return self.add_var(name, lb=0.0, ub=1.0, is_integer=True)

    def add_vars(
        self, names: Iterable[str], lb: float = 0.0, ub: float = INF, is_integer: bool = False
    ) -> List[Var]:
        """Create several variables sharing the same bounds and type."""
        return [self.add_var(n, lb=lb, ub=ub, is_integer=is_integer) for n in names]

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by its name."""
        try:
            return self._names[name]
        except KeyError:
            raise KeyError(f"model {self.name!r} has no variable {name!r}") from None

    def add_constraint(self, spec: ConstraintSpec, name: Optional[str] = None) -> Constraint:
        """Add a constraint built with ``<=``, ``>=``, or ``==`` comparisons."""
        if not isinstance(spec, ConstraintSpec):
            raise TypeError(
                "add_constraint expects an expression comparison such as "
                "'x + y <= 3'; got " + repr(spec)
            )
        coeffs, sense, rhs = spec.as_row()
        if not coeffs:
            # Constant constraint: either trivially true (keep nothing) or
            # an immediate modeling error worth failing loudly on.
            satisfied = {
                "<=": 0.0 <= rhs + 1e-12,
                ">=": 0.0 >= rhs - 1e-12,
                "==": abs(rhs) <= 1e-12,
            }[sense]
            if not satisfied:
                raise ValueError(
                    f"constraint {name or ''} is constant and infeasible: 0 {sense} {rhs}"
                )
        if name is None:
            name = f"c{self._constraint_counter}"
        self._constraint_counter += 1
        con = Constraint(name, coeffs, sense, rhs)
        self.constraints.append(con)
        return con

    def set_objective(self, expr: ExprLike, sense: Optional[str] = None) -> None:
        """Set the objective expression (optionally changing the sense)."""
        if sense is not None:
            if sense not in ("min", "max"):
                raise ValueError("sense must be 'min' or 'max'")
            self.sense = sense
        self.objective = LinExpr.from_operand(expr)

    # -- queries -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_indices(self) -> List[int]:
        """Column indices of integer-restricted variables."""
        return [v.index for v in self.variables if v.is_integer]

    def is_feasible_point(self, values: Dict[int, float], tol: float = 1e-6) -> bool:
        """Check bounds, integrality, and constraints at a given point."""
        for var in self.variables:
            x = values[var.index]
            if x < var.lb - tol or x > var.ub + tol:
                return False
            if var.is_integer and abs(x - round(x)) > tol:
                return False
        return all(c.violation(values, tol) == 0.0 for c in self.constraints)

    # -- lowering to arrays ----------------------------------------------------

    def to_standard_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """Lower the model to ``(c, A_ub, b_ub, A_eq, b_eq, bounds, c0)``.

        The returned objective ``c`` always encodes a *minimization*;
        for a max model, ``c`` is the negated coefficient vector and callers
        must negate the optimal value (handled by the solvers).  ``c0`` is
        the objective's constant offset (already sign-adjusted).

        ``>=`` rows are negated into ``<=`` rows.  Bounds is an ``(n, 2)``
        array of per-variable ``[lb, ub]``.
        """
        n = self.num_vars
        c = np.zeros(n)
        for idx, coeff in self.objective.terms.items():
            c[idx] = coeff
        c0 = self.objective.constant
        if self.sense == "max":
            c = -c
            c0 = -c0

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for idx, coeff in con.coeffs.items():
                row[idx] = coeff
            if con.sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
            elif con.sense == ">=":
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(con.rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
        bounds = np.array([[v.lb, v.ub] for v in self.variables]).reshape(n, 2)
        return c, a_ub, b_ub, a_eq, b_eq, bounds, c0

    # -- solving ---------------------------------------------------------------

    def solve(self):
        """Solve with the bundled branch-and-bound solver
        (:class:`repro.milp.branch_bound.BranchAndBoundSolver`)."""
        from repro.milp.branch_bound import BranchAndBoundSolver

        return BranchAndBoundSolver().solve(self)

    def copy(self) -> "Model":
        """Deep-copy the model (variables, constraints, objective)."""
        clone = Model(self.name, self.sense)
        for v in self.variables:
            clone.add_var(v.name, lb=v.lb, ub=v.ub, is_integer=v.is_integer)
        for con in self.constraints:
            clone.constraints.append(
                Constraint(con.name, dict(con.coeffs), con.sense, con.rhs)
            )
        clone._constraint_counter = self._constraint_counter
        clone.objective = LinExpr(dict(self.objective.terms), self.objective.constant)
        return clone

    def __repr__(self) -> str:
        n_int = len(self.integer_indices)
        return (
            f"Model({self.name!r}, {self.sense}, vars={self.num_vars} "
            f"({n_int} integer), constraints={self.num_constraints})"
        )


def lp_values_to_dict(values: Sequence[float]) -> Dict[int, float]:
    """Convert a dense solution vector to the ``{index: value}`` mapping."""
    return {i: float(v) for i, v in enumerate(values)}
