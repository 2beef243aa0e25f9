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
validated against ``scipy.optimize.linprog`` in the test suite.  A pivot
updates the tableau in place through a scratch buffer allocated with the
tableau, so it allocates O(m + n) however dense its row is.

A re-solve skips phase 1.  A solve handed an earlier solve's final
tableau (:class:`Tableau`) first checks that its LP has the same
objective, constraint matrices, bound pattern (which bounds are finite)
and equality rhs as the tableau's.  Such an LP differs only in its
variable bounds and ``<=`` rows, so its ``B⁻¹b`` is the tableau's plus
``B⁻¹Δb``, read off the tableau's own columns, and dual-simplex pivots
restore feasibility in the tableau itself.  Every verdict of a re-solve
is checked against the LP's own standard-form data: an optimum by its
residual, an infeasibility by a Farkas certificate.  Any other LP, and
any unchecked verdict, goes to the cold two-phase solve.
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

# The per-solve and per-pivot code calls ufunc reductions and ndarray
# methods directly.  numpy's module-level wrappers (``np.any``,
# ``np.argmin``, ``np.flatnonzero``, ...) reach the same C routines, so the
# results are identical, through a Python dispatch layer that costs more
# than the work itself on P̃'s small arrays.
_any = np.logical_or.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce


class SimplexStatus(enum.Enum):
    """Outcome of a simplex solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


def _matrix(values, n: int) -> np.ndarray:
    """``values`` as a float matrix with ``n`` columns; an array that
    already is one is returned as itself, not as a view, so a re-solve can
    recognise the matrix its tableau was computed on."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 2 and array.shape[1] == n:
        return array
    return array.reshape(-1, n)


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
        self.a_ub = _matrix(self.a_ub, n)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        self.a_eq = _matrix(self.a_eq, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(n, 2)
        if self.a_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("A_ub and b_ub row counts disagree")
        if self.a_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("A_eq and b_eq row counts disagree")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


#: Encoding kinds of :class:`_Transform` (its ``kind`` codes).
SHIFT, REFLECT, SPLIT = 0, 1, 2


def _encoding(bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each variable's encoding kind, and whether both its bounds are
    finite (it then has a ``y <= ub - lb`` row)."""
    finite_lb, finite_ub = np.isfinite(bounds[:, 0]), np.isfinite(bounds[:, 1])
    kind = np.where(
        finite_lb, SHIFT, np.where(finite_ub, REFLECT, SPLIT)
    ).astype(np.int8)
    return kind, finite_lb & finite_ub


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` if it is read-only and owns its data, else a read-only
    copy: either way an array whose entries cannot change."""
    if array.flags.owndata and not array.flags.writeable:
        return array
    copy = array.copy()
    copy.setflags(write=False)
    return copy


def _same(array: np.ndarray, frozen: np.ndarray) -> bool:
    """Whether ``array`` has the entries of ``frozen`` (a :func:`_frozen`
    array, so being that very object proves it)."""
    return array is frozen or (
        array.shape == frozen.shape and bool(np.array_equal(array, frozen))
    )


class _Structure:
    """The part of an LP's standard form that its rhs does not touch.

    It comes from the LP's objective, constraint matrices and which of its
    bounds are finite.  Columns: each variable's encoding columns in
    variable order (variable ``j`` starts at ``first[j]``), then one slack
    per ``<=`` row and per bound row.  Rows: the ``<=`` rows, one
    ``y <= ub - lb`` row per variable with both bounds finite (in variable
    order, ``bound_vars``), the equalities.

    ``a`` is the standard-form matrix before any row is flipped to make
    its rhs nonnegative.  A flip negates one row of ``[A | b]``, which
    leaves ``B⁻¹A`` and ``B⁻¹b`` unchanged, so a tableau computed on
    flipped rows is a tableau of ``a`` too.  The LP's own ``c``, ``a_ub``
    and ``a_eq`` are kept as :func:`_frozen` arrays to check that another
    LP has the same ones.
    """

    def __init__(self, lp: LinearProgram, kind: np.ndarray, bounded: np.ndarray):
        self.c_lp, self.a_ub, self.a_eq = (
            _frozen(array) for array in (lp.c, lp.a_ub, lp.a_eq)
        )
        self.kind, self.bounded = kind, bounded
        split = kind == SPLIT
        width = np.where(split, 2, 1)
        self.first = np.cumsum(width) - width
        self.num_std = int(width.sum())
        self.sign = np.where(kind == REFLECT, -1.0, 1.0)
        self.bound_vars = np.flatnonzero(bounded)

        m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
        m_bound = len(self.bound_vars)
        num_slacks = m_ub + m_bound
        a = np.zeros((m_ub + m_bound + m_eq, self.num_std + num_slacks))
        c = np.zeros(self.num_std + num_slacks)

        def place(target: np.ndarray, coeffs: np.ndarray) -> None:
            target[..., self.first] = coeffs * self.sign
            target[..., self.first[split] + 1] = -coeffs[..., split]

        place(c, lp.c)
        place(a[:m_ub], lp.a_ub)
        place(a[m_ub + m_bound:], lp.a_eq)
        a[m_ub + np.arange(m_bound), self.first[self.bound_vars]] = 1.0
        a[np.arange(num_slacks), self.num_std + np.arange(num_slacks)] = 1.0
        self.a, self.c = a, c

    def matches(
        self, lp: LinearProgram, kind: np.ndarray, bounded: np.ndarray
    ) -> bool:
        """Whether ``lp`` has this structure, entry for entry."""
        return (
            np.array_equal(kind, self.kind)
            and np.array_equal(bounded, self.bounded)
            and _same(lp.c, self.c_lp)
            and _same(lp.a_ub, self.a_ub)
            and _same(lp.a_eq, self.a_eq)
        )

    def shifts(self, bounds: np.ndarray) -> np.ndarray:
        """Each variable's ``shift`` in ``x = shift + sign * y``: its lower
        bound, its upper bound when reflected, 0 when split."""
        return np.where(
            self.kind == SHIFT, bounds[:, 0],
            np.where(self.kind == REFLECT, bounds[:, 1], 0.0),
        )

    def rhs(self, lp: LinearProgram, shifts: np.ndarray, exact: bool) -> np.ndarray:
        """``lp``'s unflipped standard-form rhs.  ``exact`` rounds each
        shifted row as a standalone dot product (what the cold reduction
        has always done); otherwise one matrix-vector product, which may
        differ in the last bit and serves the checks of a re-solve."""
        dots = _row_dots if exact else np.dot
        bounds = lp.bounds[self.bound_vars]
        return np.concatenate([
            lp.b_ub - dots(lp.a_ub, shifts),
            bounds[:, 1] - bounds[:, 0],
            lp.b_eq - dots(lp.a_eq, shifts),
        ])

    def standard(
        self, lp: LinearProgram, shifts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``lp``'s standard-form ``(A, b)``: every row whose exact rhs is
        negative negated, slack included."""
        a, b = self.a.copy(), self.rhs(lp, shifts, exact=True)
        flip = b < 0
        a[flip] *= -1.0
        b[flip] *= -1.0
        return a, b


class Tableau:
    """A solve's final tableau, to be re-solved in place by a later solve.

    ``t`` is ``B⁻¹A`` and ``beta`` is ``B⁻¹b`` for the standard-form
    basis ``basis`` (the column basic in each row).  ``structure`` is the
    :class:`_Structure` they belong to, and ``shifts``, ``b_ub``,
    ``bound_ub`` (the upper bounds of the bounded variables) and ``b_eq``
    are the rhs data of the LP they currently solve.  ``work`` is the
    pivots' scratch, allocated with the tableau and shared by its copies,
    so a tableau and its copies are re-solved one at a time.

    A solve handed a tableau re-solves it in place: afterwards the tableau
    is that LP's, and another solve can pick it up from there.  A re-solve
    whose verdict fails its check leaves the tableau spent (``live`` is
    false), and a later solve handed it goes cold.  :meth:`copy` keeps a
    state to come back to.
    """

    def __init__(
        self,
        structure: _Structure,
        t: np.ndarray,
        beta: np.ndarray,
        basis: np.ndarray,
        work: np.ndarray,
        lp: LinearProgram,
        shifts: np.ndarray,
    ) -> None:
        self.structure = structure
        self.t, self.beta, self.basis, self.work = t, beta, basis, work
        self.shifts = shifts.copy()
        self.b_ub = lp.b_ub.copy()
        self.bound_ub = lp.bounds[structure.bound_vars, 1].copy()
        self.b_eq = lp.b_eq.copy()
        self.live = True

    _STATE = ("t", "beta", "basis", "shifts", "b_ub", "bound_ub", "b_eq")

    def copy(self, into: Optional["Tableau"] = None) -> "Tableau":
        """A copy of this tableau.  It is written into ``into`` — a
        tableau of the same structure whose state is no longer needed —
        when one is given, so no array is allocated."""
        if into is None or into.structure is not self.structure:
            into = object.__new__(Tableau)
            into.__dict__.update(self.__dict__)
            for name in self._STATE:
                setattr(into, name, getattr(self, name).copy())
            return into
        for name in self._STATE:
            np.copyto(getattr(into, name), getattr(self, name))
        into.live = self.live
        return into


@dataclass
class SimplexResult:
    """Solution report: status, point in the *original* variable space,
    objective value (including ``c0``), and iteration count.

    ``tableau`` is the final tableau for the next solve to re-solve, when
    it has no artificial column left; ``warm_started`` records whether
    the reported verdict (an optimum or a certified infeasibility) came
    from a re-solve rather than the two-phase fallback."""

    status: SimplexStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int = 0
    warm_started: bool = False
    tableau: Optional[Tableau] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SimplexStatus.OPTIMAL


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


def _inverse_row(
    structure: _Structure, basis: np.ndarray, position: int
) -> np.ndarray:
    """Row ``position`` of ``B⁻¹`` for ``B = structure.a[:, basis]``: the
    ``u`` with ``Bᵀ u = e_position``; raises LinAlgError if ``B`` is
    singular.

    Column ``structure.num_std + i`` of ``structure.a`` is row ``i``'s
    slack, ``e_i``.  So each basic slack pins one row, and only the k
    structural basic columns, restricted to the k rows no basic slack
    pins, form a dense block: the row costs one k×k solve.
    """
    a, first_slack = structure.a, structure.num_std
    is_slack = basis >= first_slack
    slack_pos = is_slack.nonzero()[0]
    struct_pos = (~is_slack).nonzero()[0]
    slack_rows = basis[slack_pos] - first_slack
    cols = basis[struct_pos]
    free = np.ones(a.shape[0], dtype=bool)
    free[slack_rows] = False
    rows = free.nonzero()[0]
    u = np.zeros(a.shape[0])
    u[slack_rows[slack_pos == position]] = 1.0
    target = (struct_pos == position).astype(float)
    target -= a[np.ix_(slack_rows, cols)].T @ u[slack_rows]
    u[rows] = np.linalg.solve(a[np.ix_(rows, cols)].T, target)
    return u


def _farkas_certified(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> bool:
    """True when ``u`` proves ``{A y = b, y >= 0}`` empty: ``uᵀA >= 0``
    and ``uᵀb < 0``, each up to :data:`VERIFY_TOL`."""
    return bool(np.all(u @ a >= -VERIFY_TOL) and u @ b < -VERIFY_TOL)


def _scratch(tableau: np.ndarray) -> np.ndarray:
    """The pivots' scratch for ``tableau``: room for two copies of it."""
    return np.empty(2 * tableau.size)


#: What the cold solve returns: the result and, when its final basis has
#: no artificial column, its final ``(B⁻¹A, B⁻¹b, basis, scratch)``.
_Outcome = Tuple[
    "SimplexResult",
    Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
]


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
        self, lp: LinearProgram, warm_start: Optional[Tableau] = None
    ) -> SimplexResult:
        """Solve the LP and return a :class:`SimplexResult`.

        ``warm_start`` is a previous solve's ``result.tableau``.  When it
        is live and its LP has this LP's objective, constraint matrices,
        bound pattern and equality rhs, it is re-solved in place, skipping
        phase 1: its ``B⁻¹b`` moves by ``B⁻¹Δb`` and dual-simplex pivots
        restore feasibility.  The re-solve returns only verdicts it has
        checked on this LP's data: an optimum whose residual is within
        tolerance, or an infeasibility with a Farkas certificate.  Any
        other LP, and a re-solve that hits the iteration budget or fails
        its check, gets the cold two-phase solve, so the verdict and
        optimum are the same with or without a warm start.  The result
        carries the final tableau for the next solve.
        """
        if _any(lp.bounds[:, 0] > lp.bounds[:, 1]):
            # A variable had lb > ub (caught upstream normally).
            return SimplexResult(SimplexStatus.INFEASIBLE, None, None)
        kind, bounded = _encoding(lp.bounds)
        shared = (
            warm_start is not None
            and warm_start.live
            and warm_start.structure.matches(lp, kind, bounded)
        )
        structure = (
            warm_start.structure if shared else _Structure(lp, kind, bounded)
        )
        shifts = structure.shifts(lp.bounds)
        result: Optional[SimplexResult] = None
        if shared and np.array_equal(lp.b_eq, warm_start.b_eq):
            result = self._inherit(lp, warm_start, shifts)
        warm_used = result is not None
        tableau = warm_start
        if result is None:
            result, final = self._two_phase(
                *structure.standard(lp, shifts), structure.c
            )
            tableau = Tableau(structure, *final, lp, shifts) if final else None
        # Per-solve (not per-pivot) instrumentation: two counter adds per
        # LP relaxation, invisible next to the pivoting work above.
        obs = get_active()
        obs.counter("simplex.solves").inc()
        obs.counter("simplex.pivots").inc(result.iterations)
        if warm_used:
            obs.counter("simplex.warm_solves").inc()
        result.warm_started = warm_used
        result.tableau = tableau
        if result.status is SimplexStatus.OPTIMAL:
            transform = _Transform(
                kind, structure.first, shifts, structure.num_std
            )
            result.x = transform.recover(result.x)
            result.objective = float(lp.c @ result.x + lp.c0)
        return result

    # -- re-solve ---------------------------------------------------------------

    def _inherit(
        self, lp: LinearProgram, tableau: Tableau, shifts: np.ndarray
    ) -> Optional[SimplexResult]:
        """Re-solve ``lp`` in place from ``tableau``, whose structure and
        equality rhs it shares; None = go cold (``tableau`` is then spent).

        ``B⁻¹Δb`` is read off the tableau: a variable whose shift moved by
        ``δ`` moves ``b`` by ``-sign·δ`` times its own standard-form column
        (every row it appears in, its bound row included), so ``B⁻¹b``
        moves by ``-sign·δ`` times its tableau column; a ``<=`` row or a
        bound row whose rhs moved by ``δ`` moves ``B⁻¹b`` by ``δ`` times
        its slack's tableau column, since that slack is ``e_i``.  The
        verdict is then checked on this LP's own rhs.
        """
        structure, t, beta = tableau.structure, tableau.t, tableau.beta
        tableau.live = False
        moved = (shifts != tableau.shifts).nonzero()[0]
        for j in moved:
            delta = structure.sign[j] * (shifts[j] - tableau.shifts[j])
            beta -= delta * t[:, structure.first[j]]
        bound_ub = lp.bounds[structure.bound_vars, 1]
        first_bound_slack = structure.num_std + len(lp.b_ub)
        for new, old, first_slack in (
            (lp.b_ub, tableau.b_ub, structure.num_std),
            (bound_ub, tableau.bound_ub, first_bound_slack),
        ):
            for i in (new != old).nonzero()[0]:
                beta += (new[i] - old[i]) * t[:, first_slack + i]
        tableau.shifts[:] = shifts
        tableau.b_ub[:] = lp.b_ub
        tableau.bound_ub[:] = bound_ub
        result = self._reoptimize(
            tableau, structure.rhs(lp, shifts, exact=False)
        )
        tableau.live = result is not None
        return result

    def _reoptimize(
        self, tableau: Tableau, b: np.ndarray
    ) -> Optional[SimplexResult]:
        """Finish re-solving ``tableau``, whose ``t`` and ``beta`` are
        ``B⁻¹A`` and ``B⁻¹b`` of the LP with structure ``tableau.structure``
        and unflipped standard-form rhs ``b``; None = go cold.

        Constraint-data changes that keep the structure (a cut rhs
        tightened, a variable bound moved) leave the basis dual-feasible
        but primal-infeasible in a few rows, which dual-simplex pivots
        repair; a final primal pass certifies optimality.  A dual-simplex
        row with no negative entry proves the LP infeasible; the verdict is
        returned only when that row of ``B⁻¹`` is a Farkas certificate on
        (A, b) themselves.  An optimum is returned only when its residual
        ``‖A y − b‖∞`` and its most negative entry are within
        :data:`VERIFY_TOL`.
        """
        structure, t, beta, basis, work = (
            tableau.structure, tableau.t, tableau.beta, tableau.basis,
            tableau.work,
        )
        a, c = structure.a, structure.c
        iterations = 0
        while _any(beta < -EPS):
            if iterations >= self.max_iterations:
                return None
            # Dual simplex: leave the most infeasible row, enter the column
            # minimizing the dual ratio.  Zero-cost columns make most
            # ratios tie at 0; ties go to the largest pivot magnitude
            # (then the first index — deterministic).
            leaving = int(beta.argmin())
            row = t[leaving]
            candidates = (row < -EPS).nonzero()[0]
            if len(candidates) == 0:
                # Row `leaving` reads sum(row * y) = beta < 0 with row >= 0:
                # no y >= 0 satisfies it.  Re-derive the row from (A, b).
                try:
                    u = _inverse_row(structure, basis, leaving)
                except np.linalg.LinAlgError:
                    return None
                if not _farkas_certified(a, b, u):
                    return None
                return SimplexResult(
                    SimplexStatus.INFEASIBLE, None, None, iterations
                )
            reduced = c - c[basis] @ t
            reduced[basis] = 0.0
            ratios = reduced[candidates] / -row[candidates]
            ties = candidates[ratios <= _min(ratios) + EPS]
            entering = int(ties[(-row[ties]).argmax()])
            self._pivot(t, beta, basis, leaving, entering, work)
            iterations += 1

        status, iters = self._optimize(t, beta, c, basis, work)
        iterations += iters
        if status is SimplexStatus.ITERATION_LIMIT:
            return None
        if status is not SimplexStatus.OPTIMAL:
            # UNBOUNDED: a sound conclusion from a primal-feasible basis.
            return SimplexResult(status, None, None, iterations)
        y = np.zeros(a.shape[1])
        y[basis] = beta
        if (
            _max(np.abs(a @ y - b)) > VERIFY_TOL
            or _min(y) < -VERIFY_TOL
        ):
            return None
        return SimplexResult(SimplexStatus.OPTIMAL, y, float(c @ y), iterations)

    # -- two-phase driver -------------------------------------------------------

    def _two_phase(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> _Outcome:
        """Cold solve; returns the result and, on optimal solves whose
        final basis is artificial-free, the final tableau for a later
        re-solve."""
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
        work = _scratch(tableau)

        iterations = 0
        if n_art > 0:
            phase1_cost = np.zeros(total)
            phase1_cost[n:] = 1.0
            status, iters = self._optimize(tableau, rhs, phase1_cost, basis, work)
            iterations += iters
            if status is not SimplexStatus.OPTIMAL:
                return SimplexResult(status, None, None, iterations), None
            phase1_obj = float(
                sum(rhs[i] for i in range(m) if basis[i] >= n)
            )
            if phase1_obj > 1e-7:
                return SimplexResult(
                    SimplexStatus.INFEASIBLE, None, None, iterations
                ), None
            # Drive any remaining (degenerate, zero-valued) artificials out
            # of the basis, or drop their rows if they are redundant.
            for i in range(m):
                if basis[i] >= n:
                    pivoted = False
                    for j in range(n):
                        if abs(tableau[i, j]) > 1e-7:
                            self._pivot(tableau, rhs, basis, i, j, work)
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
        status, iters = self._optimize(
            tableau, rhs, phase2_cost, basis, work, forbidden
        )
        iterations += iters
        if status is not SimplexStatus.OPTIMAL:
            return SimplexResult(status, None, None, iterations), None

        y = np.zeros(n)
        for i in range(m):
            if basis[i] < n:
                y[basis[i]] = rhs[i]
        result = SimplexResult(SimplexStatus.OPTIMAL, y, float(c @ y), iterations)
        # Export only a fully artificial-free basis (a zeroed redundant
        # row keeps its artificial and cannot be re-solved against a
        # future rhs).
        if not bool(np.all(basis < n)):
            return result, None
        final = np.ascontiguousarray(tableau[:, :n])
        return result, (final, rhs, basis, work[: 2 * final.size])

    # -- core pivoting loop -------------------------------------------------------

    def _optimize(
        self,
        tableau: np.ndarray,
        rhs: np.ndarray,
        cost: np.ndarray,
        basis: np.ndarray,
        work: np.ndarray,
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
                candidates = (reduced < -EPS).nonzero()[0]
                if len(candidates) == 0:
                    return SimplexStatus.OPTIMAL, iteration
                entering = int(candidates[0])
            else:
                entering = int(reduced.argmin())
                if reduced[entering] >= -EPS:
                    return SimplexStatus.OPTIMAL, iteration

            column = tableau[:, entering]
            positive = column > EPS
            if not _any(positive):
                return SimplexStatus.UNBOUNDED, iteration
            ratios = np.where(positive, rhs / np.where(positive, column, 1.0), np.inf)
            leaving = int(ratios.argmin())
            if use_bland:
                # Tie-break the ratio test by smallest basis index.
                best = ratios[leaving]
                ties = (np.abs(ratios - best) <= EPS).nonzero()[0]
                leaving = int(min(ties, key=lambda i: basis[i]))

            if ratios[leaving] <= EPS:
                degenerate_streak += 1
                if degenerate_streak >= self.bland_threshold:
                    use_bland = True
            else:
                degenerate_streak = 0

            self._pivot(tableau, rhs, basis, leaving, entering, work)
        return SimplexStatus.ITERATION_LIMIT, self.max_iterations

    @staticmethod
    def _pivot(
        tableau: np.ndarray,
        rhs: np.ndarray,
        basis: np.ndarray,
        row: int,
        col: int,
        work: np.ndarray,
    ) -> None:
        """Gauss-Jordan pivot bringing ``col`` into the basis at ``row``.

        The elimination is a rank-1 update of the columns where the pivot
        row is nonzero (on P̃ about one in seven): a full update would
        subtract exactly zero from every other column.  Those columns are
        gathered into ``work`` (:func:`_scratch`), updated there and
        scattered back, so the pivot allocates O(m + n) however dense its
        row is, and its arithmetic is entry for entry that of the full
        update.  The products come from a matrix product with inner
        dimension 1 (each entry one rounded multiplication, as in
        ``np.outer``): a broadcast ``np.multiply`` would allocate numpy's
        128 KB ufunc buffer on every pivot.
        """
        m = tableau.shape[0]
        pivot_row = tableau[row]
        pivot = pivot_row[col]
        pivot_row /= pivot
        rhs[row] /= pivot
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        cols = pivot_row.nonzero()[0]
        size = m * len(cols)
        block = work[:size].reshape(m, len(cols))
        update = work[size:2 * size].reshape(m, len(cols))
        tableau.take(cols, axis=1, out=block, mode="clip")
        np.dot(factors.reshape(m, 1), pivot_row[cols].reshape(1, -1), out=update)
        block -= update
        tableau[:, cols] = block
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


def solve_lp(lp: LinearProgram) -> SimplexResult:
    """Convenience wrapper: solve an LP with default solver settings."""
    return SimplexSolver().solve(lp)
