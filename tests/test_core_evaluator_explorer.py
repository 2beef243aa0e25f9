"""Tests for the simulation oracle and Algorithm 1.

These use heavily reduced scenarios (short horizons, small spaces) so that
each test runs in seconds while still exercising the real pipeline
end to end.
"""

import pytest

from repro.baselines.exhaustive import ExhaustiveSearch
from repro.core.design_space import Configuration, DesignSpace, PlacementConstraints
from repro.core.evaluator import EvaluationRecord, SimulationOracle
from repro.core.explorer import (
    ExplorationResult,
    HumanIntranetExplorer,
    RobustExplorationResult,
)
from repro.core.problem import DesignProblem, ScenarioParameters
from repro.faults.model import FaultScenario
from repro.faults.resilience import ResilienceRecord
from repro.library.mac_options import MacKind, RoutingKind


def tiny_problem(pdr_min=0.5, tsim=4.0, tx_levels=(-10.0, 0.0), max_nodes=4,
                 seed=0, routing_kinds=None):
    """A reduced problem (8 placements at max_nodes=4; tx_levels and
    routing_kinds trim the grid further) so tests run in seconds."""
    space_kwargs = dict(
        constraints=PlacementConstraints(max_nodes=max_nodes),
        tx_levels_dbm=tx_levels,
    )
    if routing_kinds is not None:
        space_kwargs["routing_kinds"] = routing_kinds
    return DesignProblem(
        pdr_min=pdr_min,
        scenario=ScenarioParameters(tsim_s=tsim, replicates=1, seed=seed),
        space=DesignSpace(**space_kwargs),
    )


class TestOracle:
    def test_cache_hit_on_repeat(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        config = next(iter(problem.space.feasible_configurations()))
        first = oracle.evaluate(config)
        second = oracle.evaluate(config)
        assert first is second
        assert oracle.simulations_run == 1
        assert oracle.cache_hits == 1

    def test_distinct_configs_counted(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        configs = list(problem.space.feasible_configurations())[:3]
        oracle.evaluate_many(configs)
        assert oracle.simulations_run == 3
        assert len(oracle.all_records) == 3

    def test_record_fields_sane(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        record = oracle.evaluate(
            Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.STAR)
        )
        assert 0.0 <= record.pdr <= 1.0
        assert record.power_mw > 0
        assert record.nlt_days > 0
        assert record.wall_seconds > 0
        assert record.pdr_percent == pytest.approx(100 * record.pdr)

    def test_record_for_lookup(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        config = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA,
                               RoutingKind.STAR)
        assert oracle.record_for(config) is None
        record = oracle.evaluate(config)
        assert oracle.record_for(config) is record

    def test_reset_counters_keeps_cache(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        config = next(iter(problem.space.feasible_configurations()))
        oracle.evaluate(config)
        oracle.reset_counters()
        assert oracle.simulations_run == 0
        oracle.evaluate(config)
        assert oracle.simulations_run == 0  # served from cache


class TestExplorer:
    def test_finds_feasible_solution(self):
        problem = tiny_problem(pdr_min=0.5)
        result = HumanIntranetExplorer(problem).explore()
        assert result.status == "optimal"
        assert result.best is not None
        assert result.best.pdr >= 0.5
        assert result.simulations_run > 0

    def test_impossible_bound_infeasible(self):
        # Demand 100% delivery from star-only routing at -20 dBm, where
        # the ankle links are ~9 dB below the budget on average: no
        # configuration can deliver everything.
        problem = tiny_problem(
            pdr_min=1.0, tx_levels=(-20.0,),
            routing_kinds=(RoutingKind.STAR,),
        )
        result = HumanIntranetExplorer(problem).explore()
        assert result.status == "infeasible"
        assert result.best is None
        assert result.termination_reason == "milp_infeasible"

    def test_matches_exhaustive_ground_truth(self):
        """Algorithm 1 must return the exhaustive optimum on the same
        oracle (the paper's exactness claim)."""
        problem = tiny_problem(pdr_min=0.6, tsim=3.0)
        oracle = SimulationOracle(problem.scenario)
        exhaustive = ExhaustiveSearch(problem, oracle=oracle).search()
        explorer_result = HumanIntranetExplorer(problem, oracle=oracle).explore()
        assert exhaustive.best is not None
        assert explorer_result.best is not None
        assert explorer_result.best.power_mw <= exhaustive.best.power_mw + 1e-9

    def test_uses_fewer_simulations_than_exhaustive(self):
        problem = tiny_problem(pdr_min=0.5)
        oracle = SimulationOracle(problem.scenario)
        result = HumanIntranetExplorer(problem, oracle=oracle).explore()
        assert result.simulations_run < problem.space.feasible_count()

    def test_candidate_cap_limits_batch(self):
        problem = tiny_problem(pdr_min=0.5)
        result = HumanIntranetExplorer(problem, candidate_cap=4).explore()
        assert all(it.num_candidates <= 4 for it in result.iterations)

    def test_iteration_journal_structure(self):
        problem = tiny_problem(pdr_min=0.5)
        result = HumanIntranetExplorer(problem).explore()
        assert result.iterations
        first = result.iterations[0]
        assert first.index == 0
        assert first.analytic_power_mw > 0
        assert len(first.evaluations) == first.num_candidates
        assert result.summary().startswith("PDRmin=")

    def test_exhaustive_sweep_visits_all_levels(self):
        problem = tiny_problem(pdr_min=0.5)
        explorer = HumanIntranetExplorer(problem)
        result = explorer.sweep()
        levels = [it.analytic_power_mw for it in result.iterations]
        expected = explorer.formulation.distinct_power_levels_mw()
        assert levels == expected

    def test_alpha_disabled_may_terminate_earlier(self):
        problem = tiny_problem(pdr_min=0.5)
        with_alpha = HumanIntranetExplorer(problem).explore()
        without_alpha = HumanIntranetExplorer(
            problem, use_alpha=False
        ).explore()
        assert without_alpha.simulations_run <= with_alpha.simulations_run

    def test_deterministic_given_seed(self):
        problem = tiny_problem(pdr_min=0.6)
        a = HumanIntranetExplorer(problem).explore()
        b = HumanIntranetExplorer(problem).explore()
        assert a.best is not None and b.best is not None
        assert a.best.config.key() == b.best.config.key()
        assert a.simulations_run == b.simulations_run

    def test_shared_oracle_amortizes_runs(self):
        problem = tiny_problem(pdr_min=0.5)
        oracle = SimulationOracle(problem.scenario)
        first = HumanIntranetExplorer(problem, oracle=oracle).explore()
        second = HumanIntranetExplorer(
            problem.with_pdr_min(0.6), oracle=oracle
        ).explore()
        # The second run re-visits the same first levels: cached.
        assert second.simulations_run <= first.simulations_run

    def test_summary_for_infeasible(self):
        problem = tiny_problem(
            pdr_min=1.0, tx_levels=(-20.0,),
            routing_kinds=(RoutingKind.STAR,),
        )
        result = HumanIntranetExplorer(problem).explore()
        assert "infeasible" in result.summary()


class TestSummaryPrintsTheBoundsDigits:
    """PDRmin keeps its digits: 99.5% and the paper's 99.97% do not
    print as 100%, and whole percents print as before."""

    CONFIG = Configuration((0, 1, 3, 6), 0.0, MacKind.TDMA, RoutingKind.STAR)

    @pytest.mark.parametrize(
        "pdr_min,label",
        [(0.995, "PDRmin=99.5%"), (0.9997, "PDRmin=99.97%"),
         (0.9, "PDRmin=90%")],
    )
    def test_nominal_and_robust_summaries(self, pdr_min, label):
        record = EvaluationRecord(self.CONFIG, 1.0, 0.8, 30.0, 0.0, None)
        robust_best = ResilienceRecord(
            self.CONFIG, record, ((FaultScenario("none"), record),)
        )
        for best in (None, record):
            nominal = ExplorationResult(pdr_min, "optimal", "alpha_bound", best)
            assert nominal.summary().startswith(label + ": ")
        for best in (None, robust_best):
            robust = RobustExplorationResult(
                pdr_min, 0.0, "optimal", "alpha_bound", best
            )
            assert robust.summary().startswith(label + " @q=0.00: ")


class TestExhaustiveBaseline:
    def test_search_covers_space(self):
        problem = tiny_problem(pdr_min=0.5, tsim=2.0)
        search = ExhaustiveSearch(problem)
        result = search.search()
        assert result.simulations_run == problem.space.feasible_count()
        assert len(result.evaluations) == result.simulations_run

    def test_required_simulations_without_running(self):
        problem = tiny_problem()
        search = ExhaustiveSearch(problem)
        assert search.required_simulations() == problem.space.feasible_count()
        assert search.oracle.simulations_run == 0

    def test_limit_caps_work(self):
        problem = tiny_problem(tsim=2.0)
        result = ExhaustiveSearch(problem).search(limit=5)
        assert result.simulations_run == 5

    def test_best_is_feasible_minimum_power(self):
        problem = tiny_problem(pdr_min=0.5, tsim=3.0)
        result = ExhaustiveSearch(problem).search()
        assert result.best is not None
        feasible = result.feasible
        assert result.best.power_mw == min(e.power_mw for e in feasible)


class TestJournalExport:
    def test_to_dict_is_json_serializable(self):
        import json

        problem = tiny_problem(pdr_min=0.5)
        result = HumanIntranetExplorer(problem, candidate_cap=4).explore()
        payload = result.to_dict()
        text = json.dumps(payload)
        assert payload["status"] == "optimal"
        assert payload["best"]["routing"] in ("star", "mesh")
        assert payload["iterations"]
        first = payload["iterations"][0]
        assert first["num_candidates"] == len(first["evaluations"])
        assert "placement" in first["evaluations"][0]
        assert isinstance(text, str)

    def test_to_dict_infeasible_run(self):
        problem = tiny_problem(
            pdr_min=1.0, tx_levels=(-20.0,),
            routing_kinds=(RoutingKind.STAR,),
        )
        result = HumanIntranetExplorer(problem).explore()
        payload = result.to_dict()
        assert payload["best"] is None
        assert payload["status"] == "infeasible"
