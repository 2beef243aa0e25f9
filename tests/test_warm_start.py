"""Warm-started simplex and the Dantzig→Bland anti-cycling switch.

The warm-start contract is behavioural: with or without a warm tableau
the solver must return the *same* verdict and optimum (warm starting is a
pure speedup).  These tests drive the contract at three levels — a single
LP re-solved after an rhs change, the branch-and-bound solver across
parent→child bound changes, and the full Algorithm-1 formulation over
randomized tightening-cut sequences.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.milp import SolveStatus, simplex
from repro.milp.branch_bound import BranchAndBoundSolver
from repro.milp.simplex import (
    LinearProgram,
    SimplexSolver,
    SimplexStatus,
    Tableau,
    solve_lp,
)


class ColdSimplex(SimplexSolver):
    """The cold reference: a simplex that ignores ``warm_start``."""

    def solve(self, lp, warm_start=None):
        return super().solve(lp)


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None, c0=0.0):
    c = np.asarray(c, dtype=float)
    n = len(c)
    return LinearProgram(
        c=c,
        a_ub=np.asarray(a_ub if a_ub is not None else np.zeros((0, n))),
        b_ub=np.asarray(b_ub if b_ub is not None else np.zeros(0)),
        a_eq=np.asarray(a_eq if a_eq is not None else np.zeros((0, n))),
        b_eq=np.asarray(b_eq if b_eq is not None else np.zeros(0)),
        bounds=np.asarray(
            bounds if bounds is not None else [[0.0, math.inf]] * n
        ),
        c0=c0,
    )


class TestBlandAntiCycling:
    """Degenerate problems must terminate under the Bland switch."""

    # Beale's classic cycling example: Dantzig's most-negative rule can
    # cycle forever on this highly degenerate LP.
    BEALE = dict(
        c=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )

    def test_beale_terminates_and_matches_scipy(self):
        result = solve_lp(lp(**self.BEALE))
        assert result.status is SimplexStatus.OPTIMAL
        ref = linprog(
            self.BEALE["c"], A_ub=self.BEALE["a_ub"], b_ub=self.BEALE["b_ub"],
            bounds=[(0, None)] * 4, method="highs",
        )
        assert result.objective == pytest.approx(ref.fun, abs=1e-9)

    def test_immediate_bland_switch_agrees_with_dantzig(self):
        """Forcing Bland's rule from the first degenerate pivot must not
        change the optimum, only the pivot path."""
        eager = SimplexSolver(bland_threshold=1).solve(lp(**self.BEALE))
        default = solve_lp(lp(**self.BEALE))
        assert eager.status is SimplexStatus.OPTIMAL
        assert eager.objective == pytest.approx(default.objective, abs=1e-12)

    def test_degenerate_random_lps_terminate_under_eager_bland(self):
        """Randomized degenerate LPs (duplicated rows, zero rhs) solved
        with an immediate Bland switch agree with scipy."""
        rng = np.random.default_rng(7)
        solver = SimplexSolver(bland_threshold=1)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            a = np.vstack([a, a])  # duplicated rows force degeneracy
            b = np.concatenate([np.zeros(m), np.zeros(m)])
            c = rng.integers(-3, 4, size=n).astype(float)
            result = solver.solve(lp(c, a_ub=a, b_ub=b))
            ref = linprog(
                c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs"
            )
            # x = 0 is always feasible here, so the only legal verdicts
            # are optimal and unbounded (termination is Bland's guarantee).
            assert result.status in (
                SimplexStatus.OPTIMAL, SimplexStatus.UNBOUNDED,
            )
            if result.status is SimplexStatus.OPTIMAL:
                assert ref.status == 0
                assert result.objective == pytest.approx(ref.fun, abs=1e-7)
            else:
                assert ref.status == 3


class TestSimplexWarmStart:
    def _base(self):
        # min -x - 2y s.t. x + y <= 4, x + 3y <= 9
        return dict(
            c=[-1.0, -2.0],
            a_ub=[[1.0, 1.0], [1.0, 3.0]],
            bounds=[[0.0, 10.0], [0.0, 10.0]],
        )

    def test_rhs_change_warm_solve_matches_cold(self):
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[4.0, 9.0], **self._base()))
        assert first.status is SimplexStatus.OPTIMAL
        assert first.tableau is not None

        tightened = lp(b_ub=[3.0, 9.0], **self._base())
        warm = solver.solve(tightened, warm_start=first.tableau)
        cold = solver.solve(tightened)
        assert warm.status is SimplexStatus.OPTIMAL
        assert warm.warm_started
        assert warm.objective == cold.objective  # bitwise, not approx
        assert np.array_equal(warm.x, cold.x)

    def test_signature_mismatch_falls_back_cold(self):
        """An LP of another shape never touches the tableau."""
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[4.0, 9.0], **self._base()))
        other = lp(
            [-1.0, -2.0, 0.0],
            a_ub=[[1.0, 1.0, 0.0], [1.0, 3.0, 1.0]],
            b_ub=[4.0, 9.0],
            bounds=[[0.0, 10.0]] * 3,
        )
        result = solver.solve(other, warm_start=first.tableau)
        assert result.status is SimplexStatus.OPTIMAL
        assert not result.warm_started
        assert first.tableau.live

    def test_warm_start_on_infeasible_tightening(self):
        """Tightening the rhs to infeasibility must be detected on the
        warm path (or via its cold fallback) exactly like cold."""
        base = dict(
            c=[1.0],
            a_ub=[[-1.0]],  # -x <= b  i.e. x >= -b
            bounds=[[0.0, 2.0]],
        )
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[-1.0], **base))
        assert first.status is SimplexStatus.OPTIMAL
        infeasible = lp(b_ub=[-3.0], **base)  # x >= 3 with x <= 2
        warm = solver.solve(infeasible, warm_start=first.tableau)
        cold = solver.solve(infeasible)
        assert warm.status is cold.status is SimplexStatus.INFEASIBLE

    def test_randomized_rhs_sequences_warm_equals_cold(self):
        """Random walks over the rhs, warm-starting each solve from the
        previous tableau, agree with cold solves throughout.  (Up to an ulp:
        the two pivot paths accumulate round-off differently; exact
        equality is only promised at the MILP level, where incumbents are
        rounded integer points — see TestBranchAndBoundWarmStart.)"""
        rng = np.random.default_rng(11)
        solver = SimplexSolver()
        for _ in range(10):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            a = rng.normal(size=(m, n)).round(2)
            c = rng.normal(size=n).round(2)
            b = (np.abs(rng.normal(size=m)) + 1.0).round(2)
            bounds = [[0.0, 5.0]] * n
            tableau = None
            for _step in range(6):
                problem = lp(c, a_ub=a, b_ub=b.copy(), bounds=bounds)
                warm = solver.solve(problem, warm_start=tableau)
                cold = solver.solve(problem)
                assert warm.status is cold.status
                if warm.status is SimplexStatus.OPTIMAL:
                    assert warm.objective == pytest.approx(
                        cold.objective, rel=1e-12, abs=1e-12
                    )
                tableau = warm.tableau
                b[int(rng.integers(0, m))] -= float(
                    np.abs(rng.normal()) * 0.1
                )


class TestBranchAndBoundWarmStart:
    def _model(self, cut_mw=None):
        from repro.experiments.scenario import make_problem
        from repro.core.milp_builder import MilpFormulation

        form = MilpFormulation(make_problem(pdr_min=0.9, preset="ci"))
        model, _ = form.build([cut_mw] if cut_mw is not None else [])
        return form, model

    def test_warm_solver_matches_cold_over_tightening_cuts(self):
        form, _ = self._model()
        warm_solver = BranchAndBoundSolver()
        cold_solver = BranchAndBoundSolver(lp_solver=ColdSimplex())
        basis = None
        cuts = []
        for _ in range(4):
            model_w, _ = form.build(cuts)
            model_c, _ = form.build(cuts)
            warm = warm_solver.solve(model_w, root_warm_start=basis)
            cold = cold_solver.solve(model_c)
            assert warm.status is cold.status
            assert warm.objective == cold.objective  # bitwise
            if not warm.is_optimal:
                break
            basis = warm.root_basis
            cuts = [warm.objective]

    def test_warm_lp_solves_counted(self):
        # Adding a cut row changes the LP's shape, so the warmable
        # sequence is one-cut model → one-cut model (the steady state of
        # Algorithm 1's loop, and what the bench measures).
        form, _ = self._model()
        probe = BranchAndBoundSolver(lp_solver=ColdSimplex())
        base = probe.solve(form.build([])[0])
        assert base.is_optimal
        solver = BranchAndBoundSolver()
        first = solver.solve(form.build([base.objective])[0])
        assert first.is_optimal
        second = solver.solve(
            form.build([first.objective])[0],
            root_warm_start=first.root_basis,
        )
        assert second.warm_lp_solves > 0

    def test_randomized_cut_sequences_warm_equals_cold(self):
        """Random (not just monotone) cut sequences: every solve must
        agree with a cold solver bit for bit."""
        form, _ = self._model()
        rng = np.random.default_rng(3)
        probe = BranchAndBoundSolver(lp_solver=ColdSimplex())
        base = probe.solve(form.build([])[0])
        assert base.is_optimal
        lo, hi = base.objective, base.objective + 0.4

        warm_solver = BranchAndBoundSolver()
        basis = None
        for _ in range(6):
            cut = float(rng.uniform(lo, hi))
            model_w, _ = form.build([cut])
            model_c, _ = form.build([cut])
            warm = warm_solver.solve(model_w, root_warm_start=basis)
            cold = probe.solve(model_c)
            assert warm.status is cold.status
            assert warm.objective == cold.objective
            basis = warm.root_basis if warm.is_optimal else None

    def test_tree_keeps_a_bounded_number_of_tableaux(self, monkeypatch):
        """A tree of hundreds of nodes allocates at most three tableaux
        beyond its cold root's: the root's copy and the two saved parents',
        whose arrays later copies reuse.  (Only the warm tree is counted:
        the cold reference gets a fresh tableau from every solve.)"""
        from repro.milp import Model
        from repro.milp.branch_bound import SAVED_TABLEAUX
        from repro.milp.expr import LinExpr

        rng = np.random.default_rng(12)
        model = Model("knapsack", sense="max")
        xs = [model.add_binary(f"x{i}") for i in range(24)]
        weights = rng.integers(20, 60, size=len(xs))
        values = weights + rng.integers(-5, 6, size=len(xs))
        model.set_objective(LinExpr.sum_of(
            int(v) * x for v, x in zip(values, xs)
        ))
        model.add_constraint(LinExpr.sum_of(
            int(w) * x for w, x in zip(weights, xs)
        ) <= int(weights.sum()) // 2)
        allocated = []
        copy = Tableau.copy

        def counting(self, into=None):
            result = copy(self, into)
            if result is not into:
                allocated.append(result)
            return result

        monkeypatch.setattr(Tableau, "copy", counting)
        warm = BranchAndBoundSolver().solve(model)
        monkeypatch.undo()
        cold = BranchAndBoundSolver(lp_solver=ColdSimplex()).solve(model)
        assert warm.nodes_explored > 100
        assert warm.warm_lp_solves == warm.nodes_explored - 1
        assert len(allocated) == 1 + SAVED_TABLEAUX
        assert warm.objective == cold.objective


def _weighted_pair(rng, up):
    """(parent, child): binary LPs whose child moves one bound and is
    infeasible, while the parent is feasible.

    Down branch: ``w·x >= W`` (a negative-rhs row once lowered to
    ``<=``) with some variables already fixed at 0; the child also fixes
    the heaviest free variable at 0.  Up branch: ``w·x <= W`` with some
    variables fixed at 1; the child also fixes the heaviest free one at 1.
    Random always-satisfied rows add slacks and density.
    """
    n = int(rng.integers(4, 9))
    w = rng.uniform(0.5, 2.0, size=n).round(2)
    fixed = rng.permutation(n)[: int(rng.integers(0, n - 2))]
    free = np.setdiff1d(np.arange(n), fixed)
    j = int(free[np.argmax(w[free])])
    extra = rng.uniform(-2.0, 2.0, size=(int(rng.integers(0, 4)), n)).round(1)
    extra_rhs = np.clip(extra, 0.0, None).sum(axis=1) + 0.5
    bounds = np.tile([0.0, 1.0], (n, 1))
    if up:
        bounds[fixed, 0] = 1.0
        weight_row, rhs = w, w[fixed].sum() + w[j] / 2
    else:
        bounds[fixed, 1] = 0.0
        weight_row, rhs = -w, -(w[free].sum() - w[j] / 2)
    child = bounds.copy()
    child[j] = [1.0, 1.0] if up else [0.0, 0.0]
    a_ub = np.vstack([weight_row, extra])
    b_ub = np.concatenate([[rhs], extra_rhs])
    c = rng.normal(size=n).round(2)
    return (
        lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds),
        lp(c, a_ub=a_ub, b_ub=b_ub, bounds=child),
    )


class TestCertifiedInfeasibility:
    """A child made infeasible by one bound change is proved infeasible
    on the warm path, by a Farkas certificate checked on its own data."""

    def test_failed_certificate_falls_back_cold(self, monkeypatch):
        """A certificate that fails the Farkas check on (A, b) is not a
        verdict: the solve reruns cold and reports that it did."""
        parent_lp, child_lp = _weighted_pair(np.random.default_rng(4), False)
        solver = SimplexSolver()
        tableau = solver.solve(parent_lp).tableau
        true_row = simplex._inverse_row
        negated = []

        def corrupted(structure, basis, position):
            negated.append(position)
            return -true_row(structure, basis, position)

        monkeypatch.setattr(simplex, "_inverse_row", corrupted)
        result = solver.solve(child_lp, warm_start=tableau)
        assert negated  # the warm path did reach a certificate
        assert result.status is SimplexStatus.INFEASIBLE
        assert not result.warm_started
        assert not tableau.live

    def test_certificate_check_reads_the_lp_data(self, monkeypatch):
        """The true certificate passes the check; scaled below the
        tolerance or negated it does not."""
        parent_lp, child_lp = _weighted_pair(np.random.default_rng(4), False)
        solver = SimplexSolver()
        tableau = solver.solve(parent_lp).tableau
        structure = simplex._Structure(
            child_lp, *simplex._encoding(child_lp.bounds)
        )
        a = structure.a
        b = structure.rhs(
            child_lp, structure.shifts(child_lp.bounds), exact=True
        )
        captured = {}
        true_row = simplex._inverse_row

        def spy(*args):
            captured["u"] = true_row(*args)
            return captured["u"]

        monkeypatch.setattr(simplex, "_inverse_row", spy)
        assert solver.solve(child_lp, warm_start=tableau).warm_started
        u = captured["u"]
        assert simplex._farkas_certified(a, b, u)
        assert not simplex._farkas_certified(a, b, -u)
        assert not simplex._farkas_certified(a, b, u * 1e-12)


def _reference_standard_form(lp_):
    """The standard-form reduction as a per-variable, per-row loop: the
    reference the vectorised reduction must reproduce array for array.
    Returns ``((a, b, c), encodings, num_std_vars)`` with encodings
    ``("shift", col, lb)``, ``("reflect", col, ub)`` or
    ``("split", col+, col-)``."""
    n = lp_.num_vars
    encodings = []
    columns_per_var = []  # (std col, sign)
    shifts = np.zeros(n)  # contribution of the shift constant to each row
    extra_ub_rows = []  # (std col, rhs) for y <= u

    col = 0
    for j in range(n):
        lb, ub = lp_.bounds[j]
        if lb > ub:
            return None, encodings, col
        if math.isfinite(lb):
            encodings.append(("shift", col, lb))
            columns_per_var.append([(col, 1.0)])
            shifts[j] = lb
            if math.isfinite(ub):
                extra_ub_rows.append((col, ub - lb))
            col += 1
        elif math.isfinite(ub):
            encodings.append(("reflect", col, ub))
            columns_per_var.append([(col, -1.0)])
            shifts[j] = ub
            col += 1
        else:
            encodings.append(("split", col, col + 1))
            columns_per_var.append([(col, 1.0), (col + 1, -1.0)])
            shifts[j] = 0.0
            col += 2

    m_ub, m_eq = lp_.a_ub.shape[0], lp_.a_eq.shape[0]
    m_bound = len(extra_ub_rows)
    m = m_ub + m_bound + m_eq
    total_cols = col + m_ub + m_bound

    a = np.zeros((m, total_cols))
    b = np.zeros(m)
    c = np.zeros(total_cols)
    for j in range(n):
        for std_col, sign in columns_per_var[j]:
            c[std_col] += sign * lp_.c[j]

    row = 0
    for i in range(m_ub):
        rhs = lp_.b_ub[i] - float(lp_.a_ub[i] @ shifts)
        for j in range(n):
            coeff = lp_.a_ub[i, j]
            if coeff != 0.0:
                for std_col, sign in columns_per_var[j]:
                    a[row, std_col] += sign * coeff
        a[row, col + row] = 1.0  # slack
        b[row] = rhs
        row += 1
    for std_col, rhs in extra_ub_rows:
        a[row, std_col] = 1.0
        a[row, col + row] = 1.0
        b[row] = rhs
        row += 1
    for i in range(m_eq):
        rhs = lp_.b_eq[i] - float(lp_.a_eq[i] @ shifts)
        for j in range(n):
            coeff = lp_.a_eq[i, j]
            if coeff != 0.0:
                for std_col, sign in columns_per_var[j]:
                    a[row, std_col] += sign * coeff
        b[row] = rhs
        row += 1

    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0
    return (a, b, c), encodings, col


def _reference_recover(encodings, y):
    x = np.zeros(len(encodings))
    for i, enc in enumerate(encodings):
        if enc[0] == "shift":
            x[i] = enc[2] + y[enc[1]]
        elif enc[0] == "reflect":
            x[i] = enc[2] - y[enc[1]]
        else:
            x[i] = y[enc[1]] - y[enc[2]]
    return x


def _random_general_lp(rng):
    """A model with every encoding (finite/infinite bounds on either side,
    nonzero shifts), ``<=``/``>=``/``==`` rows and rhs of either sign."""
    from repro.milp import Model
    from repro.milp.expr import LinExpr

    model = Model("std")
    n = int(rng.integers(1, 8))
    xs = []
    for j in range(n):
        lo = round(float(rng.normal(scale=2.0)), 3)
        hi = lo + round(float(rng.uniform(0.0, 3.0)), 3)
        lb, ub = [(lo, hi), (lo, math.inf), (-math.inf, hi),
                  (-math.inf, math.inf)][int(rng.integers(0, 4))]
        xs.append(model.add_var(f"x{j}", lb=lb, ub=ub))
    coeffs = rng.normal(size=n).round(3) * (rng.random(n) < 0.8)
    model.set_objective(LinExpr.sum_of(float(k) * x for k, x in zip(coeffs, xs)))
    for _ in range(int(rng.integers(0, 6))):
        row = rng.normal(size=n).round(3) * (rng.random(n) < 0.7)
        if not row.any():
            continue
        expr = LinExpr.sum_of(float(k) * x for k, x in zip(row, xs) if k)
        rhs = round(float(rng.normal(scale=3.0)), 3)
        sense = int(rng.integers(0, 3))
        model.add_constraint(
            expr <= rhs if sense == 0 else expr >= rhs if sense == 1
            else expr == rhs
        )
    return LinearProgram(*model.to_standard_arrays())


class TestVectorisedStandardForm:
    """The vectorised reduction returns exactly the reference loop's
    arrays: same column order, row order and row flips."""

    def _assert_same(self, problem, rng):
        structure = simplex._Structure(
            problem, *simplex._encoding(problem.bounds)
        )
        shifts = structure.shifts(problem.bounds)
        std = (*structure.standard(problem, shifts), structure.c)
        transform = simplex._Transform(
            structure.kind, structure.first, shifts, structure.num_std
        )
        ref_std, encodings, num_std = _reference_standard_form(problem)
        for got, want in zip(std, ref_std, strict=True):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert transform.num_std_vars == num_std
        codes = {"shift": simplex.SHIFT, "reflect": simplex.REFLECT,
                 "split": simplex.SPLIT}
        assert [(int(k), int(f)) for k, f in zip(transform.kind, transform.first)
                ] == [(codes[e[0]], e[1]) for e in encodings]
        for _ in range(3):
            y = rng.normal(size=std[0].shape[1])
            assert np.array_equal(
                transform.recover(y), _reference_recover(encodings, y)
            )

    def test_randomized_general_lps(self):
        rng = np.random.default_rng(2026)
        for _ in range(300):
            self._assert_same(_random_general_lp(rng), rng)

    def test_human_intranet_nodes(self):
        """P̃ with a cut and branch-and-bound style fixings (lb = 1 moves
        every row's rhs through the shift)."""
        from repro.core.milp_builder import MilpFormulation
        from repro.experiments.scenario import make_problem

        form = MilpFormulation(make_problem(pdr_min=0.9, preset="smoke"))
        base = form.distinct_power_levels_mw()[2]
        arrays = list(form.build([base])[0].to_standard_arrays())
        rng = np.random.default_rng(8)
        for _ in range(20):
            bounds = arrays[5].copy()
            picks = rng.permutation(len(bounds))[: int(rng.integers(0, 6))]
            for j in picks:
                bounds[j] = [1.0, 1.0] if rng.random() < 0.5 else [0.0, 0.0]
            problem = LinearProgram(*arrays[:5], bounds, arrays[6])
            self._assert_same(problem, rng)

    def test_crossed_bounds_have_no_standard_form(self, monkeypatch):
        """A variable with lb > ub is infeasible before any reduction."""
        problem = lp([1.0, 1.0], bounds=[[0.0, 1.0], [2.0, 1.0]])
        assert _reference_standard_form(problem)[0] is None
        built = []
        monkeypatch.setattr(simplex, "_Structure", lambda *a: built.append(a))
        result = SimplexSolver().solve(problem)
        assert result.status is SimplexStatus.INFEASIBLE
        assert not built


def _smoke_lowering(cuts):
    """``(levels, c, a_ub, a_eq, b_eq, bounds, c0, b_ub by cut)`` of P̃ on
    smoke with its cut row, lowered once and read-only as branch and bound
    shares them; ``b_ub by cut`` maps each of ``cuts`` (indices into the
    Eq. 9 levels) to the ``<=`` rhs of that cut."""
    from repro.core.milp_builder import MilpFormulation
    from repro.experiments.scenario import make_problem

    form = MilpFormulation(make_problem(pdr_min=0.9, preset="smoke"))
    levels = form.distinct_power_levels_mw()
    lowered = {
        k: form.build([levels[k]])[0].to_standard_arrays() for k in cuts
    }
    c, a_ub, _b_ub, a_eq, b_eq, bounds, c0 = lowered[cuts[0]]
    for array in (c, a_ub, a_eq):
        array.setflags(write=False)
    for arrays in lowered.values():
        assert np.array_equal(arrays[1], a_ub)
    return c, a_ub, a_eq, b_eq, bounds, c0, {
        k: arrays[2] for k, arrays in lowered.items()
    }


def _random_node(rng, bounds):
    """Branch-and-bound style fixings: a few binaries pinned at 0 or 1."""
    node = bounds.copy()
    for j in rng.permutation(len(node))[: int(rng.integers(0, 7))]:
        node[j] = [1.0, 1.0] if rng.random() < 0.5 else [0.0, 0.0]
    return node


class TestInheritedTableau:
    """A solve handed the previous solve's final tableau re-solves it in
    place when its LP differs only in its rhs; every verdict is checked on
    the LP's own data, and anything else goes cold."""

    def _pair(self):
        """(parent, child): the child moves one ``<=`` rhs."""
        base = dict(
            c=[-1.0, -2.0], a_ub=np.array([[1.0, 1.0], [1.0, 3.0]]),
            bounds=[[0.0, 10.0], [0.0, 10.0]],
        )
        return lp(b_ub=[4.0, 9.0], **base), lp(b_ub=[3.0, 9.0], **base)

    def test_randomized_fixings_and_cut_moves_match_cold(self):
        cuts = list(range(0, 18, 3))
        c, a_ub, a_eq, b_eq, bounds, c0, b_ub = _smoke_lowering(cuts)
        rng = np.random.default_rng(25)
        solver = SimplexSolver()
        tableau = None
        statuses = set()
        for step in range(80):
            problem = LinearProgram(
                c, a_ub, b_ub[cuts[int(rng.integers(0, len(cuts)))]],
                a_eq, b_eq, _random_node(rng, bounds), c0,
            )
            warm = solver.solve(problem, warm_start=tableau)
            cold = solver.solve(problem)
            assert warm.status is cold.status, step
            statuses.add(warm.status)
            if cold.is_optimal:
                # up to round-off well inside branch and bound's 1e-9 gap
                # tolerance: this chain re-solves one tableau 80 times,
                # each moving several bounds
                assert warm.objective == pytest.approx(
                    cold.objective, rel=1e-9, abs=1e-9
                ), step
            if step == 0:
                tableau = warm.tableau
                assert not warm.warm_started
            else:
                # re-solved in place, infeasible children included
                assert warm.warm_started, step
                assert warm.tableau is tableau and tableau.live, step
        assert statuses == {SimplexStatus.OPTIMAL, SimplexStatus.INFEASIBLE}

    @pytest.mark.parametrize("part", ["rhs", "tableau"])
    def test_corrupted_tableau_falls_back_cold(self, part):
        parent_lp, child_lp = self._pair()
        solver = SimplexSolver()
        tableau = solver.solve(parent_lp).tableau
        if part == "rhs":
            tableau.beta += 1e-5
        else:
            # the moved row's slack column, which B⁻¹Δb is read from
            tableau.t[:, tableau.structure.num_std] += 1e-3
        result = solver.solve(child_lp, warm_start=tableau)
        cold = solver.solve(child_lp)
        assert not result.warm_started
        assert not tableau.live
        assert result.tableau is not tableau
        assert result.objective == cold.objective
        assert np.array_equal(result.x, cold.x)
        # a spent tableau is never re-solved again: the solve goes cold
        again = solver.solve(child_lp, warm_start=tableau)
        assert not again.warm_started
        assert again.tableau is not tableau and again.tableau.live
        assert again.objective == cold.objective

    @pytest.mark.parametrize("up", [False, True], ids=["down", "up"])
    def test_infeasible_child_is_certified_from_the_tableau(self, up):
        solver = SimplexSolver()
        for seed in (5, 7) if up else (4, 6):
            rng = np.random.default_rng(seed)
            for trial in range(30):
                parent_lp, child_lp = _weighted_pair(rng, up)
                tableau = solver.solve(parent_lp).tableau
                assert tableau is not None, (seed, trial)
                warm = solver.solve(child_lp, warm_start=tableau)
                cold = solver.solve(child_lp)
                assert cold.status is SimplexStatus.INFEASIBLE, (seed, trial)
                assert warm.status is SimplexStatus.INFEASIBLE, (seed, trial)
                assert warm.warm_started and tableau.live, (seed, trial)
                ref = linprog(
                    child_lp.c, A_ub=child_lp.a_ub, b_ub=child_lp.b_ub,
                    bounds=child_lp.bounds, method="highs",
                )
                assert ref.status == 2, (seed, trial)  # HiGHS: infeasible

    def test_infeasible_child_without_certificate_goes_cold(self, monkeypatch):
        parent_lp, child_lp = _weighted_pair(np.random.default_rng(6), False)
        solver = SimplexSolver()
        tableau = solver.solve(parent_lp).tableau
        checked = []

        def refused(a, b, u):
            checked.append(u)
            return False

        monkeypatch.setattr(simplex, "_farkas_certified", refused)
        result = solver.solve(child_lp, warm_start=tableau)
        assert checked  # the re-solve did reach a certificate
        assert result.status is SimplexStatus.INFEASIBLE
        assert not result.warm_started
        assert not tableau.live

    @pytest.mark.parametrize("change", ["a_ub", "a_ub in place", "c", "a_eq"])
    def test_different_matrix_never_uses_the_tableau(self, change, monkeypatch):
        """Same shape, different data: the tableau is neither re-solved
        nor changed; the solve goes cold."""
        base = dict(
            c=np.array([-1.0, -2.0, -0.5]),
            a_ub=np.array([[1.0, 1.0, 1.0], [1.0, 3.0, 0.0]]),
            b_ub=[4.0, 9.0],
            a_eq=np.array([[1.0, 0.0, -1.0]]), b_eq=[0.5],
            bounds=[[0.0, 10.0]] * 3,
        )
        solver = SimplexSolver()
        tableau = solver.solve(lp(**base)).tableau
        before = tableau.copy()
        if change == "a_ub in place":
            base["a_ub"][0, 2] = 2.0  # the very array the tableau saw
        else:
            base[change] = base[change].copy()
            base[change].flat[0] += 0.25
        problem = lp(**base)
        inherited = []
        monkeypatch.setattr(
            SimplexSolver, "_inherit",
            lambda self, *args: inherited.append(args),
        )
        result = solver.solve(problem, warm_start=tableau)
        monkeypatch.undo()
        cold = solver.solve(problem)
        assert not inherited
        assert not result.warm_started
        assert result.tableau is not tableau
        for name in Tableau._STATE:
            assert np.array_equal(getattr(tableau, name), getattr(before, name))
        assert result.status is cold.status is SimplexStatus.OPTIMAL
        assert result.objective == pytest.approx(cold.objective, abs=1e-12)


class TestAllocationFreePivots:
    """Pivots and the set-up of an in-place re-solve allocate O(m + n),
    however dense the pivot row: no temporary the size of the tableau,
    whose allocator cost would depend on the process's malloc state."""

    M, N = 200, 100  # 200 dense rows: a 200 x (100 + 200) tableau

    def _peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_pivot(self):
        rng = np.random.default_rng(0)
        tableau = rng.normal(size=(self.M, self.M + self.N))
        rhs = rng.random(self.M)
        basis = np.arange(self.M)
        work = simplex._scratch(tableau)
        expected = tableau - np.outer(tableau[:, 7], tableau[3] / tableau[3, 7])
        peak = self._peak(
            lambda: SimplexSolver._pivot(tableau, rhs, basis, 3, 7, work)
        )
        assert peak < tableau.nbytes / 10
        expected[3] = tableau[3]
        expected[:, 7] = 0.0
        expected[3, 7] = 1.0
        assert np.allclose(tableau, expected)

    def test_dense_inherited_resolve(self):
        rng = np.random.default_rng(1)
        a_ub = rng.uniform(0.5, 1.5, size=(self.M, self.N))
        a_ub.setflags(write=False)
        c = -rng.uniform(0.5, 1.5, size=self.N)
        c.setflags(write=False)
        b_ub = rng.uniform(5.0, 10.0, size=self.M)
        solver = SimplexSolver()
        first = solver.solve(lp(c, a_ub=a_ub, b_ub=b_ub))
        tableau = first.tableau
        assert tableau.t.shape == (self.M, self.M + self.N)
        for step in range(4):
            b_ub = b_ub.copy()
            b_ub[int(rng.integers(0, self.M))] *= 0.5
            problem = lp(c, a_ub=a_ub, b_ub=b_ub)
            result = None

            def resolve():
                nonlocal result
                result = solver.solve(problem, warm_start=tableau)

            peak = self._peak(resolve)
            assert result.warm_started and result.iterations > 0, step
            assert peak < tableau.t.nbytes / 10, step


class TestAlgorithmOneWalks:
    """Every Eq. 9 level of P̃, warm and cold, and the cold solves of a
    warm walk."""

    @staticmethod
    def _walk(formulation):
        calls, cuts = [], []
        for _level in range(40):
            status, configs, p_star = formulation.enumerate_candidates(cuts)
            calls.append((status, repr(p_star), [c.key() for c in configs]))
            if status is not SolveStatus.OPTIMAL:
                return calls
            cuts.append(p_star)
        raise AssertionError("the walk did not end")

    @pytest.mark.parametrize("preset", ["smoke", "ci", "paper"])
    def test_every_level_is_the_same_warm_and_cold(self, preset):
        from repro.core.milp_builder import MilpFormulation
        from repro.experiments.scenario import make_problem

        walks = []
        for warm in (True, False):
            formulation = MilpFormulation(make_problem(0.9, preset))
            formulation._solver = BranchAndBoundSolver(
                lp_solver=None if warm else ColdSimplex()
            )
            walks.append(self._walk(formulation))
        assert len(walks[0]) == 19  # 18 levels, then infeasible
        assert walks[0] == walks[1]

    @pytest.mark.parametrize("seed", [6, 15, 19, 25, 35, 52])
    def test_a_walk_solves_cold_once(self, seed, monkeypatch):
        """perfbench's deep seeds: only the first root is solved cold."""
        from repro.core.milp_builder import MilpFormulation
        from repro.experiments.scenario import make_problem

        warm_started = []
        solve = SimplexSolver.solve

        def spy(self, *args, **kwargs):
            result = solve(self, *args, **kwargs)
            warm_started.append(result.warm_started)
            return result

        monkeypatch.setattr(SimplexSolver, "solve", spy)
        formulation = MilpFormulation(make_problem(0.99, "smoke", seed=seed))
        assert len(self._walk(formulation)) == 19
        assert warm_started[0] is False
        assert all(warm_started[1:])
