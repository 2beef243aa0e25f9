"""Warm-started simplex and the Dantzig→Bland anti-cycling switch.

The warm-start contract is behavioural: with or without a warm basis the
solver must return the *same* verdict and optimum (warm starting is a
pure speedup).  These tests drive the contract at three levels — a single
LP re-solved after an rhs change, the branch-and-bound solver across
parent→child bound changes, and the full Algorithm-1 formulation over
randomized tightening-cut sequences.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.milp import simplex
from repro.milp.branch_bound import BranchAndBoundSolver
from repro.milp.simplex import (
    LinearProgram,
    SimplexSolver,
    SimplexStatus,
    solve_lp,
)


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
        first = solver.solve(lp(b_ub=[4.0, 9.0], **self._base()), want_basis=True)
        assert first.status is SimplexStatus.OPTIMAL
        assert first.basis is not None

        tightened = lp(b_ub=[3.0, 9.0], **self._base())
        warm = solver.solve(tightened, warm_start=first.basis)
        cold = solver.solve(tightened)
        assert warm.status is SimplexStatus.OPTIMAL
        assert warm.warm_started
        assert warm.objective == cold.objective  # bitwise, not approx
        assert np.array_equal(warm.x, cold.x)

    def test_signature_mismatch_falls_back_cold(self):
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[4.0, 9.0], **self._base()), want_basis=True)
        other = lp(
            [-1.0, -2.0, 0.0],
            a_ub=[[1.0, 1.0, 0.0], [1.0, 3.0, 1.0]],
            b_ub=[4.0, 9.0],
            bounds=[[0.0, 10.0]] * 3,
        )
        result = solver.solve(other, warm_start=first.basis)
        assert result.status is SimplexStatus.OPTIMAL
        assert not result.warm_started

    def test_warm_start_on_infeasible_tightening(self):
        """Tightening the rhs to infeasibility must be detected on the
        warm path (or via its cold fallback) exactly like cold."""
        base = dict(
            c=[1.0],
            a_ub=[[-1.0]],  # -x <= b  i.e. x >= -b
            bounds=[[0.0, 2.0]],
        )
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[-1.0], **base), want_basis=True)
        assert first.status is SimplexStatus.OPTIMAL
        infeasible = lp(b_ub=[-3.0], **base)  # x >= 3 with x <= 2
        warm = solver.solve(infeasible, warm_start=first.basis)
        cold = solver.solve(infeasible)
        assert warm.status is cold.status is SimplexStatus.INFEASIBLE

    def test_randomized_rhs_sequences_warm_equals_cold(self):
        """Random walks over the rhs, warm-starting each solve from the
        previous basis, agree with cold solves throughout.  (Up to an ulp:
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
            basis = None
            for _step in range(6):
                problem = lp(c, a_ub=a, b_ub=b.copy(), bounds=bounds)
                warm = solver.solve(problem, warm_start=basis, want_basis=True)
                cold = solver.solve(problem)
                assert warm.status is cold.status
                if warm.status is SimplexStatus.OPTIMAL:
                    assert warm.objective == pytest.approx(
                        cold.objective, rel=1e-12, abs=1e-12
                    )
                basis = warm.basis
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
        warm_solver = BranchAndBoundSolver(use_warm_starts=True)
        cold_solver = BranchAndBoundSolver(use_warm_starts=False)
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
        # Adding a cut row changes the standard-form signature, so the
        # warmable sequence is one-cut model → one-cut model (the steady
        # state of Algorithm 1's loop, and what the bench measures).
        form, _ = self._model()
        probe = BranchAndBoundSolver(use_warm_starts=False)
        base = probe.solve(form.build([])[0])
        assert base.is_optimal
        solver = BranchAndBoundSolver(use_warm_starts=True)
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
        probe = BranchAndBoundSolver(use_warm_starts=False)
        base = probe.solve(form.build([])[0])
        assert base.is_optimal
        lo, hi = base.objective, base.objective + 0.4

        warm_solver = BranchAndBoundSolver(use_warm_starts=True)
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

    @pytest.mark.parametrize("up", [False, True], ids=["down", "up"])
    def test_infeasible_child_is_certified_warm(self, up):
        rng = np.random.default_rng(5 if up else 4)
        solver = SimplexSolver()
        for trial in range(30):
            parent_lp, child_lp = _weighted_pair(rng, up)
            parent = solver.solve(parent_lp, want_basis=True)
            assert parent.status is SimplexStatus.OPTIMAL, trial
            assert parent.basis is not None, trial
            warm = solver.solve(child_lp, warm_start=parent.basis)
            cold = solver.solve(child_lp)
            assert cold.status is SimplexStatus.INFEASIBLE, trial
            assert warm.status is SimplexStatus.INFEASIBLE, trial
            assert warm.warm_started, trial
            ref = linprog(
                child_lp.c, A_ub=child_lp.a_ub, b_ub=child_lp.b_ub,
                bounds=child_lp.bounds, method="highs",
            )
            assert ref.status == 2, trial  # HiGHS: infeasible

    def test_failed_certificate_falls_back_cold(self, monkeypatch):
        """A certificate that fails the Farkas check on (A, b) is not a
        verdict: the solve reruns cold and reports that it did."""
        parent_lp, child_lp = _weighted_pair(np.random.default_rng(4), False)
        solver = SimplexSolver()
        parent = solver.solve(parent_lp, want_basis=True)
        true_row = simplex._SlackBasis.inverse_row
        negated = []

        def corrupted(self, position):
            negated.append(position)
            return -true_row(self, position)

        monkeypatch.setattr(simplex._SlackBasis, "inverse_row", corrupted)
        result = solver.solve(child_lp, warm_start=parent.basis)
        assert negated  # the warm path did reach a certificate
        assert result.status is SimplexStatus.INFEASIBLE
        assert not result.warm_started

    def test_certificate_check_reads_the_lp_data(self, monkeypatch):
        """The true certificate passes the check; scaled below the
        tolerance or negated it does not."""
        parent_lp, child_lp = _weighted_pair(np.random.default_rng(4), False)
        solver = SimplexSolver()
        parent = solver.solve(parent_lp, want_basis=True)
        (a, b, _c), _transform = solver._to_standard_form(child_lp)
        captured = {}
        true_row = simplex._SlackBasis.inverse_row

        def spy(self, position):
            captured["u"] = true_row(self, position)
            return captured["u"]

        monkeypatch.setattr(simplex._SlackBasis, "inverse_row", spy)
        assert solver.solve(child_lp, warm_start=parent.basis).warm_started
        u = captured["u"]
        assert simplex._farkas_certified(a, b, u)
        assert not simplex._farkas_certified(a, b, -u)
        assert not simplex._farkas_certified(a, b, u * 1e-12)

    def test_bad_warm_residual_falls_back_cold(self, monkeypatch):
        """A warm optimum whose residual on (A, b) exceeds the tolerance is
        not returned: the solve reruns cold, with the cold optimum."""
        base = dict(
            c=[-1.0, -2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]],
            bounds=[[0.0, 10.0], [0.0, 10.0]],
        )
        solver = SimplexSolver()
        first = solver.solve(lp(b_ub=[4.0, 9.0], **base), want_basis=True)
        tightened = lp(b_ub=[3.0, 9.0], **base)
        true_solve = simplex._SlackBasis.solve

        def skewed(self, rhs):
            z = true_solve(self, rhs)
            z[:, -1] += 1e-5  # corrupt B⁻¹b only
            return z

        monkeypatch.setattr(simplex._SlackBasis, "solve", skewed)
        result = solver.solve(tightened, warm_start=first.basis)
        monkeypatch.undo()
        cold = solver.solve(tightened)
        assert not result.warm_started
        assert result.objective == cold.objective


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
        std, transform = SimplexSolver()._to_standard_form(problem)
        ref_std, encodings, num_std = _reference_standard_form(problem)
        if ref_std is None:
            assert std is None
            return
        for got, want in zip(std, ref_std):
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

    def test_crossed_bounds_have_no_standard_form(self):
        problem = lp([1.0, 1.0], bounds=[[0.0, 1.0], [2.0, 1.0]])
        assert SimplexSolver()._to_standard_form(problem)[0] is None
