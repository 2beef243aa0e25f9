"""Tests for the MILP formulation of P̃ (candidate generation)."""

import pytest

from repro.core.design_space import DesignSpace, PlacementConstraints
from repro.core.milp_builder import MilpFormulation
from repro.core.problem import DesignProblem, ScenarioParameters
from repro.library.mac_options import MacKind, RoutingKind
from repro.milp import SolveStatus


def make_formulation(max_nodes=6, tx_levels=(-20.0, -10.0, 0.0)):
    problem = DesignProblem(
        pdr_min=0.9,
        scenario=ScenarioParameters(tsim_s=5.0, replicates=1),
        space=DesignSpace(
            constraints=PlacementConstraints(max_nodes=max_nodes),
            tx_levels_dbm=tx_levels,
        ),
    )
    return MilpFormulation(problem), problem


class TestCostTable:
    def test_cost_table_matches_power_model(self):
        formulation, problem = make_formulation()
        model = problem.scenario.power_model()
        for (routing_value, k, n), cost in formulation._cost_table.items():
            routing = problem.scenario.routing_options(
                RoutingKind(routing_value)
            )
            mode = problem.scenario.tx_mode(problem.space.tx_levels_dbm[k])
            assert cost == pytest.approx(model.radio_power_mw(routing, n, mode))

    def test_distinct_levels_sorted(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        assert levels == sorted(levels)
        assert len(set(levels)) == len(levels)

    def test_cut_epsilon_below_min_gap(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        min_gap = min(b - a for a, b in zip(levels, levels[1:]))
        assert 0 < formulation.cut_epsilon_mw < min_gap


class TestFirstLevel:
    def test_global_optimum_is_min_star_low_power(self):
        formulation, problem = make_formulation()
        status, configs, p_star = formulation.enumerate_candidates()
        assert status is SolveStatus.OPTIMAL
        expected = min(
            problem.analytic_power_mw(c)
            for c in problem.space.feasible_configurations()
        )
        assert p_star == pytest.approx(expected)
        assert all(c.routing is RoutingKind.STAR for c in configs)
        assert all(c.tx_dbm == -20.0 for c in configs)
        assert all(c.num_nodes == 4 for c in configs)

    def test_optimum_set_contains_both_macs(self):
        formulation, _ = make_formulation(max_nodes=4)
        _status, configs, _p = formulation.enumerate_candidates()
        macs = {c.mac for c in configs}
        assert macs == {MacKind.CSMA, MacKind.TDMA}

    def test_optimum_set_covers_all_minimal_placements(self):
        formulation, _ = make_formulation(max_nodes=4)
        _status, configs, _p = formulation.enumerate_candidates(
            max_solutions=64
        )
        placements = {c.placement for c in configs}
        assert len(placements) == 8  # 2 hips x 2 ankles x 2 wrists
        assert len(configs) == 16  # x 2 MACs

    def test_all_candidates_on_grid(self):
        formulation, problem = make_formulation()
        _status, configs, _p = formulation.enumerate_candidates()
        assert all(problem.space.contains(c) for c in configs)

    def test_max_solutions_respected(self):
        formulation, _ = make_formulation()
        _status, configs, _p = formulation.enumerate_candidates(max_solutions=5)
        assert len(configs) == 5


class TestCuts:
    def test_cuts_walk_levels_in_order(self):
        formulation, _ = make_formulation(max_nodes=4)
        cuts, seen = [], []
        while True:
            status, configs, p_star = formulation.enumerate_candidates(cuts)
            if status is not SolveStatus.OPTIMAL or not configs:
                break
            seen.append(p_star)
            cuts.append(p_star)
        # 2 routings x 3 levels x 1 node count = 6 distinct levels.
        assert len(seen) == 6
        assert seen == sorted(seen)
        assert seen == formulation.distinct_power_levels_mw()

    def test_exhausted_space_reports_infeasible(self):
        formulation, _ = make_formulation(max_nodes=4)
        levels = formulation.distinct_power_levels_mw()
        status, configs, p_star = formulation.enumerate_candidates(levels)
        assert status is SolveStatus.INFEASIBLE
        assert configs == [] and p_star is None

    def test_only_binding_cut_matters(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        one = formulation.enumerate_candidates([levels[2]])
        many = formulation.enumerate_candidates(levels[:3])
        assert one[2] == pytest.approx(many[2])


class TestNogoodEquivalence:
    def test_combo_equals_nogood_on_reduced_space(self):
        formulation, _ = make_formulation(
            max_nodes=4, tx_levels=(-10.0, 0.0)
        )
        for cuts in ([], [1.02]):
            _s1, combo, p1 = formulation.enumerate_candidates(
                cuts, max_solutions=64, method="combo"
            )
            _s2, nogood, p2 = formulation.enumerate_candidates(
                cuts, max_solutions=64, method="nogood"
            )
            assert p1 == pytest.approx(p2)
            assert {c.key() for c in combo} == {c.key() for c in nogood}

    def test_unknown_method_rejected(self):
        formulation, _ = make_formulation()
        with pytest.raises(ValueError, match="unknown enumeration method"):
            formulation.enumerate_candidates(method="magic")


class TestPowerLevelWalkAgainstHighs:
    @pytest.mark.parametrize("preset", ["smoke", "ci"])
    def test_every_level_matches_highs(self, preset):
        """Algorithm 1's cut loop from no cut until P̃ is infeasible: the
        in-house branch and bound visits every distinct Eq. 9 level in
        order, and HiGHS agrees on each built model, the last included."""
        from repro.experiments.scenario import make_problem
        from repro.milp import solve_with_scipy

        formulation = MilpFormulation(make_problem(0.9, preset))
        cuts, seen = [], []
        while True:
            status, _configs, p_star = formulation.enumerate_candidates(cuts)
            model, _ = formulation.build([max(cuts)] if cuts else [])
            reference = solve_with_scipy(model)
            if status is not SolveStatus.OPTIMAL:
                break
            assert reference.is_optimal
            assert abs(p_star - reference.objective) <= 1e-9
            seen.append(p_star)
            cuts.append(p_star)
        assert status is SolveStatus.INFEASIBLE
        assert reference.status is SolveStatus.INFEASIBLE
        assert seen == formulation.distinct_power_levels_mw()
        assert len(seen) == 18


class TestProblemValidation:
    def test_pdr_min_range_checked(self):
        with pytest.raises(ValueError):
            DesignProblem(pdr_min=1.5)
        with pytest.raises(ValueError):
            DesignProblem(pdr_min=-0.1)

    def test_coordinator_must_be_required(self):
        space = DesignSpace(
            constraints=PlacementConstraints(required=(1,))
        )
        with pytest.raises(ValueError, match="coordinator"):
            DesignProblem(pdr_min=0.5, space=space)

    def test_tx_levels_must_exist_on_radio(self):
        space = DesignSpace(tx_levels_dbm=(-20.0, 7.0))
        with pytest.raises(KeyError):
            DesignProblem(pdr_min=0.5, space=space)

    def test_with_pdr_min(self):
        problem = DesignProblem(pdr_min=0.5)
        other = problem.with_pdr_min(0.9)
        assert other.pdr_min == 0.9
        assert other.scenario is problem.scenario

    def test_analytic_helpers(self):
        problem = DesignProblem(pdr_min=0.5)
        from repro.core.design_space import Configuration

        c = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.STAR)
        power = problem.analytic_power_mw(c)
        assert power > 0
        assert problem.analytic_lifetime_days(c) == pytest.approx(
            problem.scenario.battery.lifetime_days(power)
        )
