"""Tests for the branch-and-bound MILP solver, including randomized
cross-checks against scipy's HiGHS MILP."""

import numpy as np
import pytest

from repro.milp import Model, SolveStatus, solve_with_scipy
from repro.milp.branch_bound import BranchAndBoundSolver
from repro.milp.expr import LinExpr


def knapsack(values, weights, capacity, sense="max"):
    m = Model("knapsack", sense=sense)
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.set_objective(LinExpr.sum_of(v * x for v, x in zip(values, xs)))
    m.add_constraint(
        LinExpr.sum_of(w * x for w, x in zip(weights, xs)) <= capacity
    )
    return m, xs


class TestBasics:
    def test_knapsack(self):
        m, xs = knapsack([3, 5, 4, 2], [2, 4, 3, 1], 6)
        result = m.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(9.0)
        chosen = [result.value(x) for x in xs]
        assert chosen == [1.0, 0.0, 1.0, 1.0]

    def test_pure_lp_passthrough(self):
        m = Model("lp")
        x = m.add_var("x", lb=1.5, ub=9.0)
        m.set_objective(x)
        result = m.solve()
        assert result.objective == pytest.approx(1.5)
        assert result.values[0] == pytest.approx(1.5)

    def test_integer_rounding_exact(self):
        m = Model("t", sense="max")
        x = m.add_var("x", lb=0, ub=7, is_integer=True)
        m.add_constraint(2 * x <= 7)  # LP optimum at 3.5
        m.set_objective(x)
        result = m.solve()
        assert result.objective == pytest.approx(3.0)
        assert result.value(x) == 3.0

    def test_infeasible_milp(self):
        m = Model("t")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y >= 3)
        result = m.solve()
        assert result.status is SolveStatus.INFEASIBLE

    def test_infeasible_by_integrality(self):
        # LP-feasible only at x = 0.5: integrality makes it infeasible.
        m = Model("t")
        x = m.add_binary("x")
        m.add_constraint(2 * x == 1)
        result = m.solve()
        assert result.status is SolveStatus.INFEASIBLE

    def test_equality_constrained_assignment(self):
        # Choose exactly 2 of 4 items, minimize cost.
        m = Model("t")
        xs = [m.add_binary(f"x{i}") for i in range(4)]
        costs = [5.0, 1.0, 3.0, 2.0]
        m.add_constraint(LinExpr.sum_of(xs) == 2)
        m.set_objective(LinExpr.sum_of(c * x for c, x in zip(costs, xs)))
        result = m.solve()
        assert result.objective == pytest.approx(3.0)
        assert result.value(xs[1]) == 1.0 and result.value(xs[3]) == 1.0

    def test_unbounded_integer_rejected(self):
        m = Model("t")
        m.add_var("x", is_integer=True)  # ub = inf
        with pytest.raises(ValueError, match="finite bounds"):
            m.solve()

    def test_mixed_integer_continuous(self):
        # min 3x + y  s.t. x + y >= 2.5, x integer in [0,5], y in [0,1].
        m = Model("t")
        x = m.add_var("x", ub=5, is_integer=True)
        y = m.add_var("y", ub=1.0)
        m.add_constraint(x + y >= 2.5)
        m.set_objective(3 * x + y)
        result = m.solve()
        assert result.is_optimal
        # x = 2, y = 0.5 -> 6.5 beats x = 3, y = 0 -> 9.
        assert result.objective == pytest.approx(6.5)

    def test_node_limit_reported(self):
        m, _ = knapsack(list(range(1, 13)), list(range(1, 13)), 30)
        result = BranchAndBoundSolver(max_nodes=1).solve(m)
        assert result.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)

    def test_strict_epsilon_cut_not_violated(self):
        # Regression: rounding a near-integral LP point must not yield an
        # incumbent that violates an epsilon-deep constraint (the explorer's
        # strict power cuts exposed this).
        m = Model("t")
        xs = [m.add_binary(f"x{i}") for i in range(3)]
        costs = [1.0, 2.0, 3.0]
        obj = LinExpr.sum_of(c * x for c, x in zip(costs, xs))
        m.add_constraint(LinExpr.sum_of(xs) == 1)
        m.add_constraint(obj >= 1.0 + 1e-6)  # excludes the cheapest choice
        m.set_objective(obj)
        result = m.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)


class TestAgainstScipy:
    def _random_binary_model(self, rng):
        n = int(rng.integers(3, 9))
        m = Model("rand", sense="min" if rng.random() < 0.5 else "max")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        m.set_objective(
            LinExpr.sum_of(float(rng.normal()) * x for x in xs)
        )
        for _ in range(int(rng.integers(1, 4))):
            coeffs = rng.integers(-3, 4, size=n).astype(float)
            rhs = float(rng.integers(-2, n + 1))
            m.add_constraint(
                LinExpr.sum_of(c * x for c, x in zip(coeffs, xs)) <= rhs
            )
        return m

    def test_randomized_agreement_with_highs(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            m = self._random_binary_model(rng)
            ours = m.solve()
            ref = solve_with_scipy(m)
            assert ours.status == ref.status, f"trial {trial}"
            if ours.is_optimal:
                assert ours.objective == pytest.approx(
                    ref.objective, abs=1e-6
                ), f"trial {trial}"

    def test_randomized_mixed_integer_agreement(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            n_int, n_cont = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            m = Model("mixed")
            xs = [
                m.add_var(f"i{k}", lb=0, ub=4, is_integer=True)
                for k in range(n_int)
            ]
            ys = [m.add_var(f"c{k}", lb=0, ub=2.5) for k in range(n_cont)]
            allv = xs + ys
            m.set_objective(
                LinExpr.sum_of(float(rng.uniform(0.5, 3)) * v for v in allv)
            )
            coeffs = rng.uniform(0.5, 2.0, size=len(allv))
            m.add_constraint(
                LinExpr.sum_of(c * v for c, v in zip(coeffs, allv)) >= 4.0
            )
            ours = m.solve()
            ref = solve_with_scipy(m)
            assert ours.status == ref.status, f"trial {trial}"
            if ours.is_optimal:
                assert ours.objective == pytest.approx(
                    ref.objective, abs=1e-6
                ), f"trial {trial}"

    def test_solutions_are_feasible_points(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = self._random_binary_model(rng)
            result = m.solve()
            if result.is_optimal:
                assert m.is_feasible_point(result.values)


class TestObjectiveFirstBranching:
    def test_objective_variables_branch_first(self):
        # x0 carries no cost and is the most fractional; x1 and x2 carry
        # cost, and x2 is the more fractional of the two.
        x = np.array([0.5, 0.9, 0.3])
        objective_ints = np.array([1, 2])
        all_ints = np.array([0, 1, 2])
        j, v = BranchAndBoundSolver._branch_variable(x, objective_ints, all_ints)
        assert (j, v) == (2, 0.3)

    def test_falls_back_to_all_integers(self):
        x = np.array([0.4, 1.0, 0.0])
        j, v = BranchAndBoundSolver._branch_variable(
            x, np.array([1, 2]), np.array([0, 1, 2])
        )
        assert (j, v) == (0, 0.4)

    def test_integral_point_has_no_branch_variable(self):
        x = np.array([0.0, 1.0, 1e-9])
        assert BranchAndBoundSolver._branch_variable(
            x, np.array([1]), np.array([0, 1, 2])
        ) == (None, 0.0)

    def test_ties_go_to_the_first_index(self):
        x = np.array([0.5, 0.5])
        j, _v = BranchAndBoundSolver._branch_variable(
            x, np.array([], dtype=int), np.array([0, 1])
        )
        assert j == 0
