"""Tests for the simulated-annealing baseline."""

import pytest

from repro.baselines.annealing import (
    AnnealingSchedule,
    SimulatedAnnealing,
)
from repro.core.design_space import DesignSpace, PlacementConstraints
from repro.core.evaluator import SimulationOracle
from repro.core.problem import DesignProblem, ScenarioParameters


def tiny_problem(pdr_min=0.5, tsim=3.0, seed=0):
    return DesignProblem(
        pdr_min=pdr_min,
        scenario=ScenarioParameters(tsim_s=tsim, replicates=1, seed=seed),
        space=DesignSpace(
            constraints=PlacementConstraints(max_nodes=4),
            tx_levels_dbm=(-10.0, 0.0),
        ),
    )


class TestSchedule:
    def test_temperature_endpoints(self):
        schedule = AnnealingSchedule(t_max=10.0, t_min=0.1, steps=50)
        assert schedule.temperature(0) == pytest.approx(10.0)
        assert schedule.temperature(49) == pytest.approx(0.1)

    def test_temperature_monotone_decreasing(self):
        schedule = AnnealingSchedule(steps=30)
        temps = [schedule.temperature(step) for step in range(30)]
        assert temps == sorted(temps, reverse=True)

    def test_single_step_schedule(self):
        schedule = AnnealingSchedule(steps=1)
        assert schedule.temperature(0) == schedule.t_max

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(t_max=1.0, t_min=2.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(steps=0)


class TestMoves:
    def test_neighbors_stay_feasible(self):
        problem = tiny_problem()
        sa = SimulatedAnnealing(problem, seed=3)
        config = sa.initial_state()
        for _ in range(200):
            config = sa.random_neighbor(config)
            assert problem.space.contains(config)

    def test_neighbor_differs_from_current(self):
        problem = tiny_problem()
        sa = SimulatedAnnealing(problem, seed=5)
        config = sa.initial_state()
        diffs = sum(
            sa.random_neighbor(config).key() != config.key()
            for _ in range(50)
        )
        assert diffs == 50

    def test_moves_reach_all_components(self):
        """The move set must be able to change every configuration
        dimension (ergodicity smoke check)."""
        problem = tiny_problem()
        sa = SimulatedAnnealing(problem, seed=7)
        config = sa.initial_state()
        seen_tx, seen_mac, seen_routing, seen_placement = set(), set(), set(), set()
        for _ in range(300):
            config = sa.random_neighbor(config)
            seen_tx.add(config.tx_dbm)
            seen_mac.add(config.mac)
            seen_routing.add(config.routing)
            seen_placement.add(config.placement)
        assert len(seen_tx) == 2
        assert len(seen_mac) == 2
        assert len(seen_routing) == 2
        assert len(seen_placement) > 1


class TestEnergy:
    def test_feasible_energy_is_power(self):
        problem = tiny_problem(pdr_min=0.0)
        sa = SimulatedAnnealing(problem)
        record = sa.oracle.evaluate(sa.initial_state())
        assert sa.energy(record) == pytest.approx(record.power_mw)

    def test_infeasible_energy_penalized(self):
        problem = tiny_problem(pdr_min=1.0)
        sa = SimulatedAnnealing(problem)
        record = sa.oracle.evaluate(sa.initial_state())
        if record.pdr < 1.0:
            assert sa.energy(record) > record.power_mw + 1.0


class TestRun:
    def test_finds_feasible_solution(self):
        problem = tiny_problem(pdr_min=0.5)
        sa = SimulatedAnnealing(
            problem, schedule=AnnealingSchedule(steps=40), seed=1
        )
        result = sa.run()
        assert result.best is not None
        assert result.best.pdr >= 0.5
        assert result.steps_taken == 40
        assert 0 < result.simulations_run <= 41

    def test_trajectory_monotone_best(self):
        problem = tiny_problem(pdr_min=0.5)
        sa = SimulatedAnnealing(
            problem, schedule=AnnealingSchedule(steps=30), seed=2
        )
        result = sa.run()
        best_values = [b for _s, _n, b in result.trajectory]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best_values, best_values[1:]))

    def test_simulations_to_reach(self):
        problem = tiny_problem(pdr_min=0.5)
        sa = SimulatedAnnealing(
            problem, schedule=AnnealingSchedule(steps=30), seed=2
        )
        result = sa.run()
        assert result.best is not None
        sims = result.simulations_to_reach(result.best.power_mw)
        assert sims is not None
        assert sims <= result.simulations_run
        assert result.simulations_to_reach(0.0) is None

    def test_deterministic_per_seed(self):
        problem = tiny_problem(pdr_min=0.5)
        r1 = SimulatedAnnealing(
            problem, schedule=AnnealingSchedule(steps=20), seed=9
        ).run()
        r2 = SimulatedAnnealing(
            problem, schedule=AnnealingSchedule(steps=20), seed=9
        ).run()
        assert r1.best.config.key() == r2.best.config.key()
        assert r1.trajectory == r2.trajectory

    def test_steps_override(self):
        problem = tiny_problem()
        sa = SimulatedAnnealing(problem, seed=1)
        result = sa.run(steps=10)
        assert result.steps_taken == 10

    def test_oracle_cache_shared(self):
        problem = tiny_problem()
        oracle = SimulationOracle(problem.scenario)
        sa = SimulatedAnnealing(
            problem, oracle=oracle, schedule=AnnealingSchedule(steps=60), seed=4
        )
        result = sa.run()
        # Revisits are free: distinct sims < steps for a small space.
        assert result.simulations_run < 61
        assert oracle.cache_hits > 0
