"""Tests for the dual (max-reliability) explorer and adaptive replication."""

import pytest

from repro.core.design_space import DesignSpace, PlacementConstraints
from repro.core.evaluator import SimulationOracle
from repro.core.explorer import DualExplorationResult, HumanIntranetExplorer
from repro.core.problem import DesignProblem, ScenarioParameters
from repro.core.design_space import Configuration
from repro.library.mac_options import MacKind, RoutingKind


def tiny_problem(tsim=4.0, seed=0, **scenario_kwargs):
    scenario_kwargs.setdefault("replicates", 1)
    return DesignProblem(
        pdr_min=0.5,
        scenario=ScenarioParameters(
            tsim_s=tsim, seed=seed, **scenario_kwargs
        ),
        space=DesignSpace(
            constraints=PlacementConstraints(max_nodes=4),
            tx_levels_dbm=(-10.0, 0.0),
        ),
    )


class TestDualExplorer:
    def test_finds_solution_within_budget(self):
        problem = tiny_problem()
        explorer = HumanIntranetExplorer(problem, candidate_cap=8)
        result = explorer.explore_max_reliability(min_lifetime_days=20.0)
        assert result.found
        assert result.best.nlt_days >= 20.0
        assert result.best.power_mw <= result.max_power_mw + 1e-9

    def test_budget_mapping(self):
        problem = tiny_problem()
        explorer = HumanIntranetExplorer(problem)
        result = explorer.explore_max_reliability(min_lifetime_days=27.0)
        battery = problem.scenario.battery
        assert result.max_power_mw == pytest.approx(
            battery.energy_mwh / (27.0 * 24.0)
        )

    def test_impossible_budget_infeasible(self):
        problem = tiny_problem()
        explorer = HumanIntranetExplorer(problem, candidate_cap=8)
        # A 10-year lifetime is below even the baseline power draw.
        result = explorer.explore_max_reliability(min_lifetime_days=3650.0)
        assert not result.found
        assert "infeasible" in result.summary()

    def test_looser_budget_monotone_reliability(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        explorer = HumanIntranetExplorer(problem, oracle=oracle,
                                         candidate_cap=8)
        tight = explorer.explore_max_reliability(30.0)
        loose = explorer.explore_max_reliability(10.0)
        assert tight.found and loose.found
        assert loose.best.pdr >= tight.best.pdr - 1e-9

    def test_validation(self):
        problem = tiny_problem()
        explorer = HumanIntranetExplorer(problem)
        with pytest.raises(ValueError):
            explorer.explore_max_reliability(min_lifetime_days=0.0)

    @pytest.mark.parametrize("days", [float("inf"), float("nan")])
    def test_non_finite_bound_refused(self, days):
        """An infinite bound is a zero power budget; refuse it rather
        than report an infeasible search."""
        explorer = HumanIntranetExplorer(tiny_problem())
        with pytest.raises(ValueError, match="positive and finite"):
            explorer.explore_max_reliability(min_lifetime_days=days)
        assert explorer.oracle.simulations_run == 0

    def test_best_maximizes_pdr_among_budgeted(self):
        problem = tiny_problem()
        explorer = HumanIntranetExplorer(problem, candidate_cap=8)
        result = explorer.explore_max_reliability(15.0)
        within = [
            e for e in result.evaluations
            if e.power_mw <= result.max_power_mw + 1e-12
        ]
        assert result.best.pdr == max(e.pdr for e in within)


class TestAdaptiveOracle:
    def make_oracle(self, **kwargs):
        problem = tiny_problem(
            adaptive_replicates=True, replicates=2, **kwargs
        )
        return SimulationOracle(problem.scenario)

    def config(self):
        return Configuration((0, 1, 3, 6), -10.0, MacKind.TDMA,
                             RoutingKind.STAR)

    def test_adaptive_runs_at_least_minimum(self):
        oracle = self.make_oracle(pdr_epsilon=0.5, max_replicates=8)
        record = oracle.evaluate(self.config())
        assert record.outcome.replicates >= 2

    def test_tight_epsilon_uses_more_replicates(self):
        loose = self.make_oracle(pdr_epsilon=0.5, max_replicates=8)
        tight = self.make_oracle(pdr_epsilon=0.001, max_replicates=8)
        config = self.config()
        n_loose = loose.evaluate(config).outcome.replicates
        n_tight = tight.evaluate(config).outcome.replicates
        assert n_tight >= n_loose

    def test_budget_cap_respected(self):
        oracle = self.make_oracle(pdr_epsilon=1e-6, max_replicates=4)
        record = oracle.evaluate(self.config())
        assert record.outcome.replicates == 4

    def test_adaptive_deterministic(self):
        a = self.make_oracle(pdr_epsilon=0.02, max_replicates=6)
        b = self.make_oracle(pdr_epsilon=0.02, max_replicates=6)
        ra = a.evaluate(self.config())
        rb = b.evaluate(self.config())
        assert ra.pdr == rb.pdr
        assert ra.outcome.replicates == rb.outcome.replicates

    def test_adaptive_mean_matches_fixed_protocol_prefix(self):
        """The adaptive estimate over k replicates equals the fixed
        k-replicate average (same streams, same averaging)."""
        adaptive = self.make_oracle(pdr_epsilon=1e-9, max_replicates=3)
        record = adaptive.evaluate(self.config())
        assert record.outcome.replicates == 3

        fixed_problem = tiny_problem(replicates=3)
        fixed = SimulationOracle(fixed_problem.scenario)
        fixed_record = fixed.evaluate(self.config())
        assert record.pdr == pytest.approx(fixed_record.pdr)


class TestDualResultApi:
    def test_summary_formats(self):
        result = DualExplorationResult(
            min_lifetime_days=10.0, max_power_mw=2.8, best=None
        )
        assert not result.found
        assert "infeasible" in result.summary()
