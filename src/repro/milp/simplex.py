"""A two-phase primal simplex solver for linear programs with bounds.

This is the LP engine underneath the branch-and-bound MILP solver.  It
accepts problems in the general form

    minimize    c' x + c0
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lb <= x <= ub        (entries may be +/- infinity)

and reduces them internally to the textbook standard form

    minimize    c' y
    subject to  A y == b,   y >= 0,  b >= 0

via variable shifting (finite lower bounds), reflection (upper-bounded free
variables), splitting (fully free variables), explicit upper-bound rows, and
slack variables.  Finite upper bounds are ordinary rows with their own
slacks; this is not a bounded-variable simplex.  Phase 1 minimizes the sum
of artificial variables to find a basic feasible solution; phase 2
optimizes the true objective.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a cycling-suspicion threshold, which guarantees termination.  The dense
tableau implementation is appropriate for the problem sizes that appear in
Human Intranet design-space exploration (tens of variables and rows) and is
validated against ``scipy.optimize.linprog`` in the test suite.

Re-solves from a stored basis (:class:`WarmStartBasis`) skip phase 1.  The
basis is refactorized through its slack structure (:class:`_SlackBasis`),
dual-simplex pivots restore primal feasibility, and every verdict of that
path is checked against the LP's own standard-form data: an optimum by its
residual, an infeasibility by a Farkas certificate.  Anything unchecked
goes to the cold two-phase solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.obs.runtime import get_active

#: Numerical tolerance for reduced costs, ratio tests, and feasibility.
EPS = 1e-9
#: Tolerance of the warm path's checks against the standard-form data: the
#: residual and sign of an optimum, and both sides of a Farkas certificate.
VERIFY_TOL = 1e-7


class SimplexStatus(enum.Enum):
    """Outcome of a simplex solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LinearProgram:
    """A linear program in general (bounded-variable) form.

    All arrays are dense numpy arrays.  ``bounds`` has shape ``(n, 2)`` with
    columns ``[lb, ub]``; infinities are allowed.  ``c0`` is a constant
    objective offset added to the reported optimum.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: np.ndarray
    c0: float = 0.0

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(n, 2)
        if self.a_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("A_ub and b_ub row counts disagree")
        if self.a_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("A_eq and b_eq row counts disagree")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class WarmStartBasis:
    """An optimal basis exported from one solve for reuse in the next.

    ``basis`` holds the standard-form column index that is basic in each
    row; ``signature`` fingerprints the standard form it belongs to
    (row count, column count, and the per-variable encoding kinds).  A
    warm start is only attempted against an LP whose standard form has
    the identical signature — which is exactly the Algorithm-1 situation
    (same model, one cut rhs tightened) and the B&B parent→child situation
    (same model, one finite bound moved).  Anything else falls back to the
    cold two-phase solve.
    """

    basis: np.ndarray
    signature: Tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "basis", np.asarray(self.basis, dtype=int).copy()
        )


@dataclass
class SimplexResult:
    """Solution report: status, point in the *original* variable space,
    objective value (including ``c0``), and iteration count.

    ``basis`` is populated (on optimal solves) only when the caller asked
    for it with ``want_basis=True``; ``warm_started`` records whether the
    reported verdict (an optimum or a certified infeasibility) came from
    the warm path rather than the two-phase fallback."""

    status: SimplexStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int = 0
    phase1_objective: float = 0.0
    basis: Optional[WarmStartBasis] = None
    warm_started: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status is SimplexStatus.OPTIMAL


#: Encoding kinds of :class:`_Transform` (its ``kind`` codes).
SHIFT, REFLECT, SPLIT = 0, 1, 2


@dataclass
class _Transform:
    """Bookkeeping for mapping standard-form columns back to original vars.

    Variable ``j`` starts at standard-form column ``first[j]`` and has one
    of three encodings (``kind[j]``):

    * ``SHIFT``   — x = lb + y[first]          (``offset`` = lb)
    * ``REFLECT`` — x = ub - y[first]          (``offset`` = ub)
    * ``SPLIT``   — x = y[first] - y[first + 1]

    ``num_std_vars`` counts the structural columns; the slack of row ``i``
    is column ``num_std_vars + i``.
    """

    kind: np.ndarray
    first: np.ndarray
    offset: np.ndarray
    num_std_vars: int

    def recover(self, y: np.ndarray) -> np.ndarray:
        sign = np.where(self.kind == REFLECT, -1.0, 1.0)
        x = self.offset + sign * y[self.first]
        split = self.kind == SPLIT
        cols = self.first[split]
        x[split] = y[cols] - y[cols + 1]
        return x


class _SlackBasis:
    """A standard-form basis, factored through its slack columns.

    Column ``first_slack + i`` is row ``i``'s slack, ``±e_i`` (negative
    when the row was flipped to make its rhs nonnegative).  So each basic
    slack pins one row, and only the k structural basic columns, restricted
    to the k rows no basic slack pins, form a dense block.  Solving with
    ``B = A[:, basis]`` is one k×k solve plus a product for the slack rows.
    """

    def __init__(self, a: np.ndarray, basis: np.ndarray, first_slack: int) -> None:
        is_slack = basis >= first_slack
        self.slack_pos = np.flatnonzero(is_slack)
        self.struct_pos = np.flatnonzero(~is_slack)
        self.slack_rows = basis[self.slack_pos] - first_slack
        self.sign = a[self.slack_rows, basis[self.slack_pos]]
        free = np.ones(a.shape[0], dtype=bool)
        free[self.slack_rows] = False
        self.rows = np.flatnonzero(free)
        cols = basis[self.struct_pos]
        self.block = a[np.ix_(self.rows, cols)]
        self.coupling = a[np.ix_(self.slack_rows, cols)]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``B⁻¹ rhs`` for a matrix ``rhs``; raises LinAlgError if singular."""
        z = np.empty_like(rhs)
        z_struct = np.linalg.solve(self.block, rhs[self.rows])
        z[self.struct_pos] = z_struct
        z[self.slack_pos] = self.sign[:, None] * (
            rhs[self.slack_rows] - self.coupling @ z_struct
        )
        return z

    def inverse_row(self, position: int) -> np.ndarray:
        """Row ``position`` of ``B⁻¹``: the ``u`` with ``Bᵀ u = e_position``."""
        u = np.zeros(len(self.rows) + len(self.slack_rows))
        hit = self.slack_pos == position
        u[self.slack_rows[hit]] = self.sign[hit]
        target = (self.struct_pos == position).astype(float)
        target -= self.coupling.T @ u[self.slack_rows]
        u[self.rows] = np.linalg.solve(self.block.T, target)
        return u


def _farkas_certified(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> bool:
    """True when ``u`` proves ``{A y = b, y >= 0}`` empty: ``uᵀA >= 0``
    and ``uᵀb < 0``, each up to :data:`VERIFY_TOL`."""
    return bool(np.all(u @ a >= -VERIFY_TOL) and u @ b < -VERIFY_TOL)


class SimplexSolver:
    """Two-phase dense-tableau simplex.

    Parameters
    ----------
    max_iterations:
        Hard cap on pivots per phase; generous relative to problem size.
    bland_threshold:
        Number of degenerate pivots tolerated before switching from
        Dantzig's rule to Bland's anti-cycling rule.
    """

    def __init__(self, max_iterations: int = 20000, bland_threshold: int = 50) -> None:
        self.max_iterations = max_iterations
        self.bland_threshold = bland_threshold

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        lp: LinearProgram,
        warm_start: Optional[WarmStartBasis] = None,
        want_basis: bool = False,
    ) -> SimplexResult:
        """Solve the LP and return a :class:`SimplexResult`.

        ``warm_start`` (from a previous solve's ``result.basis``) skips
        phase 1 entirely: the stored basis is refactorized against the new
        constraint data, primal feasibility is restored with a handful of
        dual-simplex pivots, and phase 2 polishes to optimality.  The warm
        path returns only verdicts it has checked on this LP's data: an
        optimum whose residual is within tolerance, or an infeasibility
        with a Farkas certificate.  Any other outcome — signature
        mismatch, singular basis, iteration budget, a failed check —
        reruns the cold two-phase solve, so the verdict and optimum are
        the same with or without a warm start.  ``want_basis=True``
        attaches the optimal basis to the result for the next solve.
        """
        std, transform = self._to_standard_form(lp)
        if std is None:
            # A variable had lb > ub (caught upstream normally).
            return SimplexResult(SimplexStatus.INFEASIBLE, None, None)
        a, b, c = std
        signature = (a.shape[0], a.shape[1], transform.kind.tobytes())
        result: Optional[SimplexResult] = None
        basis: Optional[np.ndarray] = None
        warm_used = False
        if warm_start is not None and warm_start.signature == signature:
            warm = self._warm_solve(
                a, b, c, warm_start.basis, transform.num_std_vars
            )
            if warm is not None:
                result, basis = warm
                warm_used = True
        if result is None:
            result, basis = self._two_phase(a, b, c)
        # Per-solve (not per-pivot) instrumentation: two counter adds per
        # LP relaxation, invisible next to the pivoting work above.
        obs = get_active()
        obs.counter("simplex.solves").inc()
        obs.counter("simplex.pivots").inc(result.iterations)
        if warm_used:
            obs.counter("simplex.warm_solves").inc()
        if result.status is not SimplexStatus.OPTIMAL:
            result.warm_started = warm_used
            return result
        assert result.x is not None
        x_original = transform.recover(result.x)
        objective = float(lp.c @ x_original + lp.c0)
        exported = None
        if want_basis and basis is not None:
            exported = WarmStartBasis(basis=basis, signature=signature)
        return SimplexResult(
            SimplexStatus.OPTIMAL, x_original, objective, result.iterations,
            result.phase1_objective, basis=exported, warm_started=warm_used,
        )

    # -- warm-start path --------------------------------------------------------

    def _warm_solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        basis0: np.ndarray,
        first_slack: int,
    ) -> Optional[Tuple[SimplexResult, Optional[np.ndarray]]]:
        """Re-optimize from a previously optimal basis; None = go cold.

        The stored basis B is refactorized against the *new* (A, b) as
        ``B⁻¹ [A | b]`` through its slack structure (:class:`_SlackBasis`).
        Constraint-data changes that keep the signature (a cut rhs
        tightened, a variable bound moved) typically leave the basis
        dual-feasible but primal-infeasible in a few rows, which
        dual-simplex pivots repair; a final primal pass certifies
        optimality.  A dual-simplex row with no negative entry proves the
        LP infeasible; the verdict is returned only when that row of
        ``B⁻¹`` is a Farkas certificate on (A, b) themselves.  An optimum
        is returned only when its residual ``‖A y − b‖∞`` and its most
        negative entry are within :data:`VERIFY_TOL`.
        """
        m, n = a.shape
        basis = np.asarray(basis0, dtype=int)
        if m == 0 or basis.shape[0] != m:
            return None
        if np.any(basis < 0) or np.any(basis >= n):
            return None
        if len(np.unique(basis)) != m:
            return None
        try:
            sol = _SlackBasis(a, basis, first_slack).solve(
                np.column_stack([a, b])
            )
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        tableau = np.ascontiguousarray(sol[:, :n])
        rhs = sol[:, n].copy()
        # Snap the basic columns to exact unit vectors: _optimize/_pivot
        # maintain this invariant and the refactorization only gives it up
        # to round-off.
        tableau[:, basis] = 0.0
        tableau[np.arange(m), basis] = 1.0

        iterations = 0
        while np.any(rhs < -EPS):
            if iterations >= self.max_iterations:
                return None
            # Dual simplex: leave the most infeasible row, enter the column
            # minimizing the dual ratio.  Zero-cost columns make most
            # ratios tie at 0; ties go to the largest pivot magnitude
            # (then the first index — deterministic).
            leaving = int(np.argmin(rhs))
            row = tableau[leaving]
            candidates = np.nonzero(row < -EPS)[0]
            if len(candidates) == 0:
                # Row `leaving` reads sum(row * y) = rhs < 0 with row >= 0:
                # no y >= 0 satisfies it.  Re-derive the row from (A, b).
                try:
                    u = _SlackBasis(a, basis, first_slack).inverse_row(leaving)
                except np.linalg.LinAlgError:
                    return None
                if not _farkas_certified(a, b, u):
                    return None
                return SimplexResult(
                    SimplexStatus.INFEASIBLE, None, None, iterations
                ), None
            reduced = c - c[basis] @ tableau
            reduced[basis] = 0.0
            ratios = reduced[candidates] / -row[candidates]
            ties = candidates[ratios <= ratios.min() + EPS]
            entering = int(ties[np.argmax(-row[ties])])
            self._pivot(tableau, rhs, basis, leaving, entering)
            iterations += 1

        status, iters = self._optimize(tableau, rhs, c, basis)
        iterations += iters
        if status is SimplexStatus.ITERATION_LIMIT:
            return None
        if status is not SimplexStatus.OPTIMAL:
            # UNBOUNDED: a sound conclusion from a primal-feasible basis.
            return SimplexResult(status, None, None, iterations), None
        y = np.zeros(n)
        y[basis] = rhs
        if (
            np.max(np.abs(a @ y - b)) > VERIFY_TOL
            or np.min(y) < -VERIFY_TOL
        ):
            return None
        return (
            SimplexResult(SimplexStatus.OPTIMAL, y, float(c @ y), iterations),
            basis,
        )

    # -- standard-form reduction ----------------------------------------------

    def _to_standard_form(
        self, lp: LinearProgram
    ) -> Tuple[
        Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]], Optional[_Transform]
    ]:
        """Columns: each variable's encoding columns in variable order,
        then one slack per ``<=`` row and per bound row.  Rows: the
        ``<=`` rows, one ``y <= ub - lb`` row per variable with both
        bounds finite (in variable order), the equalities.  Rows whose rhs
        is negative are negated, slack included."""
        lb, ub = lp.bounds[:, 0], lp.bounds[:, 1]
        if np.any(lb > ub):
            return None, None
        finite_lb, finite_ub = np.isfinite(lb), np.isfinite(ub)
        kind = np.where(
            finite_lb, SHIFT, np.where(finite_ub, REFLECT, SPLIT)
        ).astype(np.int8)
        split = kind == SPLIT
        width = np.where(split, 2, 1)
        first = np.cumsum(width) - width
        num_std = int(width.sum())
        sign = np.where(kind == REFLECT, -1.0, 1.0)
        # x = shift + sign * y: the shift moves every row's rhs.
        shifts = np.where(finite_lb, lb, np.where(finite_ub, ub, 0.0))
        bounded = np.flatnonzero(finite_lb & finite_ub)

        m_ub, m_eq, m_bound = lp.a_ub.shape[0], lp.a_eq.shape[0], len(bounded)
        m = m_ub + m_bound + m_eq
        num_slacks = m_ub + m_bound
        a = np.zeros((m, num_std + num_slacks))
        b = np.empty(m)
        c = np.zeros(num_std + num_slacks)

        def place(target: np.ndarray, coeffs: np.ndarray) -> None:
            target[..., first] = coeffs * sign
            target[..., first[split] + 1] = -coeffs[..., split]

        place(c, lp.c)
        place(a[:m_ub], lp.a_ub)
        place(a[m_ub + m_bound:], lp.a_eq)
        b[:m_ub] = lp.b_ub - _row_dots(lp.a_ub, shifts)
        b[m_ub + m_bound:] = lp.b_eq - _row_dots(lp.a_eq, shifts)
        bound_rows = m_ub + np.arange(m_bound)
        a[bound_rows, first[bounded]] = 1.0
        b[bound_rows] = ub[bounded] - lb[bounded]
        a[np.arange(num_slacks), num_std + np.arange(num_slacks)] = 1.0

        # Normalize to b >= 0 (flipping rows, including their slack signs).
        flip = b < 0
        a[flip] *= -1.0
        b[flip] *= -1.0
        return (a, b, c), _Transform(kind, first, shifts, num_std)

    # -- two-phase driver -------------------------------------------------------

    def _two_phase(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> Tuple[SimplexResult, Optional[np.ndarray]]:
        """Cold solve; returns the result and, on optimal solves whose
        final basis is artificial-free, the basis for warm-start export."""
        m, n = a.shape
        if m == 0:
            # No constraints: minimum of c'y over y >= 0 is 0 unless some
            # cost is negative, in which case the LP is unbounded.
            if np.any(c < -EPS):
                return SimplexResult(SimplexStatus.UNBOUNDED, None, None), None
            return SimplexResult(SimplexStatus.OPTIMAL, np.zeros(n), 0.0), None

        # Identify rows already covered by a positive slack column usable as
        # an initial basic variable; give the rest artificial variables.
        basis = np.full(m, -1, dtype=int)
        for j in range(n):
            col = a[:, j]
            nz = np.nonzero(np.abs(col) > EPS)[0]
            if len(nz) == 1 and abs(col[nz[0]] - 1.0) < EPS and basis[nz[0]] == -1:
                # Unit column: usable as basic if its cost-free (slack) — we
                # only accept columns whose value b[i] >= 0, always true here.
                basis[nz[0]] = j

        needs_artificial = [i for i in range(m) if basis[i] == -1]
        n_art = len(needs_artificial)
        total = n + n_art
        tableau = np.zeros((m, total))
        tableau[:, :n] = a
        for k, i in enumerate(needs_artificial):
            tableau[i, n + k] = 1.0
            basis[i] = n + k
        rhs = b.copy()

        iterations = 0
        phase1_obj = 0.0
        if n_art > 0:
            phase1_cost = np.zeros(total)
            phase1_cost[n:] = 1.0
            status, iters = self._optimize(tableau, rhs, phase1_cost, basis)
            iterations += iters
            if status is not SimplexStatus.OPTIMAL:
                return SimplexResult(status, None, None, iterations), None
            phase1_obj = float(
                sum(rhs[i] for i in range(m) if basis[i] >= n)
            )
            if phase1_obj > 1e-7:
                return SimplexResult(
                    SimplexStatus.INFEASIBLE, None, None, iterations, phase1_obj
                ), None
            # Drive any remaining (degenerate, zero-valued) artificials out
            # of the basis, or drop their rows if they are redundant.
            for i in range(m):
                if basis[i] >= n:
                    pivoted = False
                    for j in range(n):
                        if abs(tableau[i, j]) > 1e-7:
                            self._pivot(tableau, rhs, basis, i, j)
                            pivoted = True
                            break
                    if not pivoted:
                        # Redundant row: zero it so it never constrains.
                        tableau[i, :] = 0.0
                        rhs[i] = 0.0

        # Phase 2 on the real costs (artificial columns forbidden).
        phase2_cost = np.zeros(total)
        phase2_cost[:n] = c
        forbidden = np.zeros(total, dtype=bool)
        forbidden[n:] = True
        status, iters = self._optimize(tableau, rhs, phase2_cost, basis, forbidden)
        iterations += iters
        if status is not SimplexStatus.OPTIMAL:
            return SimplexResult(status, None, None, iterations, phase1_obj), None

        y = np.zeros(n)
        for i in range(m):
            if basis[i] < n:
                y[basis[i]] = rhs[i]
        # Export the basis only when fully artificial-free (a zeroed
        # redundant row keeps its artificial and cannot be refactorized
        # against a future A).
        exportable = basis.copy() if bool(np.all(basis < n)) else None
        return SimplexResult(
            SimplexStatus.OPTIMAL, y, float(c @ y), iterations, phase1_obj
        ), exportable

    # -- core pivoting loop -------------------------------------------------------

    def _optimize(
        self,
        tableau: np.ndarray,
        rhs: np.ndarray,
        cost: np.ndarray,
        basis: np.ndarray,
        forbidden: Optional[np.ndarray] = None,
    ) -> Tuple[SimplexStatus, int]:
        """Run primal simplex pivots in place until optimality."""
        m, total = tableau.shape
        degenerate_streak = 0
        use_bland = False
        for iteration in range(self.max_iterations):
            # Reduced costs: r = cost - cost_B' * B^-1 A, computed directly
            # from the maintained tableau (already in B^-1 A form).
            cost_basis = cost[basis]
            reduced = cost - cost_basis @ tableau
            reduced[basis] = 0.0
            if forbidden is not None:
                reduced = np.where(forbidden, np.inf, reduced)

            if use_bland:
                candidates = np.nonzero(reduced < -EPS)[0]
                if len(candidates) == 0:
                    return SimplexStatus.OPTIMAL, iteration
                entering = int(candidates[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -EPS:
                    return SimplexStatus.OPTIMAL, iteration

            column = tableau[:, entering]
            positive = column > EPS
            if not np.any(positive):
                return SimplexStatus.UNBOUNDED, iteration
            ratios = np.where(positive, rhs / np.where(positive, column, 1.0), np.inf)
            leaving = int(np.argmin(ratios))
            if use_bland:
                # Tie-break the ratio test by smallest basis index.
                best = ratios[leaving]
                ties = np.nonzero(np.abs(ratios - best) <= EPS)[0]
                leaving = int(min(ties, key=lambda i: basis[i]))

            if ratios[leaving] <= EPS:
                degenerate_streak += 1
                if degenerate_streak >= self.bland_threshold:
                    use_bland = True
            else:
                degenerate_streak = 0

            self._pivot(tableau, rhs, basis, leaving, entering)
        return SimplexStatus.ITERATION_LIMIT, self.max_iterations

    @staticmethod
    def _pivot(
        tableau: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int
    ) -> None:
        """Gauss-Jordan pivot bringing ``col`` into the basis at ``row``.

        Fully vectorized: the elimination is a rank-1 update of the whole
        tableau, which keeps the per-pivot cost in BLAS rather than a
        Python row loop.
        """
        pivot = tableau[row, col]
        tableau[row] /= pivot
        rhs[row] /= pivot
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row])
        rhs -= factors * rhs[row]
        # The pivot column must be exactly a unit vector; enforce it to
        # stop round-off from accumulating across pivots.
        tableau[:, col] = 0.0
        tableau[row, col] = 1.0
        basis[row] = col


def _row_dots(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` as one ``row @ x`` per row, so each entry rounds exactly
    as a standalone dot product does (a matrix-vector product may sum in
    another order and differ in the last bit)."""
    return np.array([row @ x for row in a], dtype=float).reshape(-1)


def solve_lp(lp: LinearProgram, **kwargs) -> SimplexResult:
    """Convenience wrapper: solve an LP with default solver settings."""
    return SimplexSolver(**kwargs).solve(lp)
