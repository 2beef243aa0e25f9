"""Resilience evaluation: EnsembleOracle, quantiles, E4 divergence.

Pins the PR's acceptance criteria: the same ensemble + seed is
bit-identical at ``--jobs 1`` and ``--jobs 4``, a warm cache replays a
campaign with zero new simulations, and experiment E4 has at least one
regime where the robust optimum differs from the nominal one.
"""

import functools
import math
from dataclasses import replace

import pytest

from repro.channel.posture import PostureParameters
from repro.core.batch import batch_unsupported_reason
from repro.core.design_space import Configuration
from repro.core.evaluator import EvaluationRecord, SimulationOracle
from repro.core.explorer import HumanIntranetExplorer
from repro.core.parallel import (
    WorkerPool,
    replicate_job,
    run_configuration_outcome,
)
from repro.des.engine import FAULT_PRIORITY
from repro.experiments.robustness import run_robustness_comparison
from repro.experiments.scenario import get_preset, make_problem
from repro.faults.injector import first_event_s
from repro.faults.model import (
    FaultKind,
    FaultScenario,
    FaultSpec,
    hub_stress_ensemble,
    sample_fault_ensemble,
)
from repro.faults.resilience import (
    EnsembleOracle,
    ResilienceRecord,
    pdr_quantile,
)
from repro.library.mac_options import MacKind, RoutingKind
from repro.net.network import Network

CONFIGS = (
    Configuration((0, 1, 3, 6), 0.0, MacKind.TDMA, RoutingKind.STAR),
    Configuration((0, 1, 3, 6), 0.0, MacKind.CSMA, RoutingKind.MESH),
)


@pytest.fixture(scope="module")
def scenario():
    return make_problem(0.9, "smoke", seed=1).scenario


@pytest.fixture(scope="module")
def ensemble(scenario):
    return hub_stress_ensemble(
        scenario.tsim_s, outage_fraction=0.25, size=2
    )


class TestPdrQuantile:
    def test_extremes(self):
        values = (0.4, 0.9, 0.7)
        assert pdr_quantile(values, 0.0) == 0.4
        assert pdr_quantile(values, 1.0) == 0.9

    def test_nearest_rank_is_observed_value(self):
        values = (0.1, 0.2, 0.3, 0.4)
        assert pdr_quantile(values, 0.25) == 0.1
        assert pdr_quantile(values, 0.5) == 0.2
        assert pdr_quantile(values, 0.75) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            pdr_quantile((), 0.5)
        with pytest.raises(ValueError):
            pdr_quantile((0.5,), 1.5)


class TestEnsembleOracleValidation:
    def test_rejects_faulted_base_scenario(self, scenario, ensemble):
        with pytest.raises(ValueError, match="healthy"):
            EnsembleOracle(
                replace(scenario, fault_scenario=ensemble[0]), ensemble
            )

    def test_rejects_empty_ensemble(self, scenario):
        with pytest.raises(ValueError, match="empty"):
            EnsembleOracle(scenario, ())

    def test_rejects_duplicate_names(self, scenario, ensemble):
        with pytest.raises(ValueError, match="duplicate"):
            EnsembleOracle(scenario, (ensemble[0], ensemble[0]))


class TestResilienceEvaluation:
    def test_record_internally_consistent(self, scenario, ensemble):
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
            record = oracle.evaluate(CONFIGS[0])
        assert len(record.fault_pdrs) == len(ensemble)
        assert record.pdr_min_fault == min(record.fault_pdrs)
        assert record.pdr_quantile(0.0) == record.pdr_min_fault
        assert record.pdr_mean_fault == pytest.approx(
            sum(record.fault_pdrs) / len(record.fault_pdrs)
        )
        assert 0.0 <= record.lifetime_degradation <= 1.0
        # A hub outage hurts but the healthy run does not see it.
        assert record.pdr_min_fault < record.healthy.pdr
        payload = record.to_dict()
        assert set(payload["fault_pdrs"]) == {fs.name for fs in ensemble}

    def test_bit_identical_across_jobs(self, scenario, ensemble):
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as serial:
            one = [r.to_dict() for r in serial.evaluate_many(CONFIGS)]
        with EnsembleOracle(scenario, ensemble, n_jobs=4) as parallel:
            four = [r.to_dict() for r in parallel.evaluate_many(CONFIGS)]
        assert one == four

    def test_warm_cache_replays_without_simulating(
        self, scenario, ensemble, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        with EnsembleOracle(
            scenario, ensemble, n_jobs=1, cache_dir=cache_dir
        ) as cold:
            first = cold.evaluate(CONFIGS[0])
            assert cold.stats()["simulations_run"] == 1 + len(ensemble)
        with EnsembleOracle(
            scenario, ensemble, n_jobs=1, cache_dir=cache_dir
        ) as warm:
            second = warm.evaluate(CONFIGS[0])
            stats = warm.stats()
        assert stats["simulations_run"] == 0
        assert stats["disk_hits"] == 1 + len(ensemble)
        assert second.to_dict() == first.to_dict()

    def test_stats_reports_ensemble_shape(self, scenario, ensemble):
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
            oracle.evaluate(CONFIGS[0])
            stats = oracle.stats()
        assert stats["ensemble_size"] == len(ensemble)
        assert stats["ensemble_evaluations"] == 1


class TestRepeatedConfiguration:
    """A configuration listed twice in one call runs once per world and
    counts one cache hit per world, as ``SimulationOracle.evaluate_many``
    does for a nominal run."""

    @pytest.mark.parametrize("batch_mode", ["off", "auto"])
    @pytest.mark.parametrize("mac", [MacKind.CSMA, MacKind.TDMA])
    def test_repeat_runs_once_per_world(
        self, scenario, ensemble, mac, batch_mode
    ):
        config = Configuration((0, 1, 3, 6), 0.0, mac, RoutingKind.STAR)
        with EnsembleOracle(
            replace(scenario, batch_mode=batch_mode), ensemble, n_jobs=1
        ) as oracle:
            first, second = oracle.evaluate_many([config, config])
            stats = oracle.stats()
        assert stats["simulations_run"] == 1 + len(ensemble) == 3
        assert stats["cache_hits"] == 3
        assert second.to_dict() == first.to_dict()


class TestE4Divergence:
    """The pinned regime where pricing faults in changes the answer."""

    @pytest.fixture(scope="class")
    def data(self):
        return run_robustness_comparison(
            preset="smoke",
            seed=3,
            pdr_min=0.85,
            quantile=0.0,
            outage_fraction=0.2,
            ensemble_size=2,
            n_jobs=1,
        )

    def test_robust_optimum_differs_from_nominal(self, data):
        assert data.nominal.found and data.robust.found
        assert data.divergent, (
            "E4 must exhibit at least one scenario where the "
            "chance-constrained optimum differs from the nominal one"
        )

    def test_robust_design_meets_chance_constraint(self, data):
        assert (
            data.robust.best.pdr_quantile(data.quantile)
            >= data.pdr_min - 0.01
        )

    def test_nominal_design_violates_it(self, data):
        # ... which is exactly why the optima diverge.
        assert (
            data.nominal_resilience.pdr_quantile(data.quantile)
            < data.pdr_min
        )

    def test_robust_pays_power_for_reliability(self, data):
        assert (
            data.robust.best.healthy.power_mw
            >= data.nominal.best.power_mw
        )

    def test_per_routing_results_present(self, data):
        assert set(data.per_routing) == {RoutingKind.STAR, RoutingKind.MESH}
        for result in data.per_routing.values():
            assert result.status in ("optimal", "infeasible")


class TestFaultFreeEnsemble:
    """Over one fault-free world the chance constraint at quantile 0 is
    the nominal accept test, so the robust run retraces the nominal one."""

    @pytest.mark.parametrize("seed,pdr_min", [(1, 0.90), (3, 0.95)])
    def test_quantile_rule_matches_point_rule(self, seed, pdr_min):
        problem = make_problem(pdr_min, "smoke", seed=seed)
        cap = get_preset("smoke").candidate_cap
        explorer = HumanIntranetExplorer(problem, candidate_cap=cap)
        try:
            nominal = explorer.explore()
        finally:
            explorer.oracle.close()
        with EnsembleOracle(
            problem.scenario, [FaultScenario("none")], n_jobs=1
        ) as oracle:
            robust = HumanIntranetExplorer(
                problem, candidate_cap=cap
            ).explore_robust(oracle, quantile=0.0)
            assert oracle.simulations_run == oracle.stats()["simulations_run"]

        assert [
            (it.analytic_power_mw, it.num_candidates, len(it.feasible),
             it.incumbent_power_mw)
            for it in nominal.iterations
        ] == [
            (it.analytic_power_mw, len(it.records), len(it.feasible),
             it.incumbent_power_mw)
            for it in robust.iterations
        ]
        assert robust.termination_reason == nominal.termination_reason
        assert nominal.found and robust.found
        assert robust.best.config == nominal.best.config
        assert robust.best.power_mw == nominal.best.power_mw
        assert robust.best.healthy.power_mw == robust.best.power_mw


# -- one simulation per (configuration, effective fault world) -------------------

#: Scenario seeds of perfbench's ``robust`` stratum; each draws the same
#: 6-world sampled ensemble as that workload (fault seed = seed + 100000).
SAMPLED_SEEDS = (1, 4)


def _sampled_case(seed, batch_mode="off", cache_dir=None):
    """(scenario, ensemble, configs): 4 placements x both MACs on star,
    so some worlds miss each placement and some hit it."""
    problem = make_problem(
        0.85, "smoke", seed=seed, cache_dir=cache_dir, batch_mode=batch_mode
    )
    scenario = problem.scenario
    ensemble = sample_fault_ensemble(
        6, seed + 100_000, scenario.tsim_s,
        coordinator=scenario.coordinator_location,
    )
    tx_dbm = problem.space.tx_levels_dbm[0]
    configs = [
        Configuration(placement, tx_dbm, mac, RoutingKind.STAR)
        for placement in list(problem.space.placements())[:4]
        for mac in (MacKind.CSMA, MacKind.TDMA)
    ]
    return scenario, ensemble, configs


def _inapplicable_cells(ensemble, configs):
    return [
        (ci, wi)
        for ci, config in enumerate(configs)
        for wi, world in enumerate(ensemble)
        if not world.applicable(config.placement)
    ]


@pytest.fixture(scope="module")
def cell_by_cell():
    """Seed 1's records with every (config, world) cell simulated on its
    own: one scalar oracle per world, one configuration at a time."""
    scenario, ensemble, configs = _sampled_case(SAMPLED_SEEDS[0])
    worlds = [SimulationOracle(scenario, n_jobs=1)] + [
        SimulationOracle(replace(scenario, fault_scenario=fs), n_jobs=1)
        for fs in ensemble
    ]
    records = []
    for config in configs:
        cells = [oracle.evaluate(config) for oracle in worlds]
        records.append(ResilienceRecord(
            config=config,
            healthy=cells[0],
            faulted=tuple(zip(ensemble, cells[1:])),
        ))
    for oracle in worlds:
        oracle.close()
    return records


# -- branches: fault worlds run on from the paused healthy network ------------

#: Every MAC and routing kind of the scalar simulator.
KINDS = [
    (mac, routing)
    for mac in (MacKind.CSMA, MacKind.TDMA)
    for routing in (RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P)
]

#: Includes a torso-crossing link, so correlated blackout groups apply.
BRANCH_PLACEMENT = (0, 1, 3, 6)

#: Replicate protocols the branches must reproduce.
PROTOCOLS = {
    "fixed-1": dict(replicates=1),
    "fixed-2": dict(replicates=2),
    "adaptive": dict(
        replicates=2, adaptive_replicates=True, pdr_epsilon=0.02,
        max_replicates=4,
    ),
}


def _branch_config(mac, routing):
    return Configuration(BRANCH_PLACEMENT, 0.0, mac, routing)


def _branch_scenario(**overrides):
    """The smoke scenario on a 2 s horizon (cheap runs, same physics)."""
    scenario = make_problem(0.85, "smoke", seed=1).scenario
    return replace(scenario, tsim_s=2.0, **overrides)


def _first_generation_s(job, location):
    """When ``location``'s application first generates in ``job``'s run."""
    network = job.network()
    generate = network.nodes[location].app._generate
    return min(
        time for time, _priority, _seq, event in network.sim._heap
        if event.callback == generate
    )


def _branch_worlds(scenario):
    """Sampled, correlated-link and hub-stress worlds, plus worlds at the
    edges of the branch rule, all touching :data:`BRANCH_PLACEMENT`."""
    tsim = scenario.tsim_s
    hub, a, b = 0, 1, 6
    at = 0.4 * tsim
    generation = _first_generation_s(
        replicate_job(
            scenario, _branch_config(MacKind.TDMA, RoutingKind.STAR), 0
        ),
        b,
    )
    edges = (
        FaultScenario("drain-only", (FaultSpec(
            FaultKind.BATTERY_DRAIN, at, location=a, factor=2.0),)),
        FaultScenario("after-horizon", (FaultSpec(
            FaultKind.NODE_DEATH, tsim + 1.0, location=a),)),
        # Two worlds whose first faults share one branch point.
        FaultScenario("twin-outage", (FaultSpec(
            FaultKind.HUB_OUTAGE, at, duration_s=0.2 * tsim, location=hub),)),
        FaultScenario("twin-death", (FaultSpec(
            FaultKind.NODE_DEATH, at, location=b),)),
        # Fires at the instant node b first generates: the death must
        # preempt that generation, as it does in a run from t = 0.
        FaultScenario("at-generation", (FaultSpec(
            FaultKind.NODE_DEATH, generation, location=b),)),
    )
    worlds = (
        sample_fault_ensemble(4, 7, tsim, locations=BRANCH_PLACEMENT)
        + sample_fault_ensemble(
            2, 8, tsim, locations=BRANCH_PLACEMENT, name="correlated",
            correlated_links=True,
        )
        + hub_stress_ensemble(tsim, coordinator=hub, size=2)
        + edges
    )
    assert all(w.applicable(BRANCH_PLACEMENT) for w in worlds)
    return worlds


def _direct_record(scenario, config, world):
    """``config`` under ``world`` simulated on its own from t = 0."""
    outcome = run_configuration_outcome(
        replace(scenario, fault_scenario=world), config
    )
    return EvaluationRecord(
        config=config,
        pdr=outcome.pdr,
        power_mw=outcome.worst_power_mw,
        nlt_days=outcome.nlt_days,
        wall_seconds=0.0,
        outcome=outcome,
    )


@functools.lru_cache(maxsize=None)
def _direct_records(protocol):
    """Cell-by-cell direct runs of every kind under every branch world."""
    scenario = _branch_scenario(**PROTOCOLS[protocol])
    worlds = _branch_worlds(scenario)
    records = []
    for mac, routing in KINDS:
        config = _branch_config(mac, routing)
        records.append(ResilienceRecord(
            config=config,
            healthy=_direct_record(scenario, config, None),
            faulted=tuple(
                (world, _direct_record(scenario, config, world))
                for world in worlds
            ),
        ))
    return records



class TestEffectiveWorldSharing:
    """A world whose faults all miss the placement builds the healthy
    network, so the ensemble oracle runs it once per configuration."""

    @pytest.mark.parametrize("seed", SAMPLED_SEEDS)
    def test_shared_cells_equal_direct_runs(self, seed):
        scenario, ensemble, configs = _sampled_case(seed)
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
            records = oracle.evaluate_many(configs)
            stats = oracle.stats()
        shared = _inapplicable_cells(ensemble, configs)
        assert shared, "the case must exercise sharing"
        assert stats["shared_evaluations"] == len(shared)
        for ci, wi in shared:
            world, record = records[ci].faulted[wi]
            direct = run_configuration_outcome(
                replace(scenario, fault_scenario=world), configs[ci]
            )
            assert record.outcome == direct, (configs[ci].label(), world.name)
            assert record.outcome == records[ci].healthy.outcome

    @pytest.mark.parametrize("batch_mode", ["off", "auto"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_evaluate_many_matches_cell_by_cell(
        self, cell_by_cell, n_jobs, batch_mode
    ):
        scenario, ensemble, configs = _sampled_case(
            SAMPLED_SEEDS[0], batch_mode=batch_mode
        )
        with EnsembleOracle(scenario, ensemble, n_jobs=n_jobs) as oracle:
            records = oracle.evaluate_many(configs)
            stats = oracle.stats()
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in cell_by_cell
        ]
        for got, want in zip(records, cell_by_cell):
            assert got.healthy.outcome == want.healthy.outcome
            for (_w, a), (_v, b) in zip(got.faulted, want.faulted):
                assert a.outcome == b.outcome
        # Accounting: one record per cell, one run per distinct
        # (config, effective world) among the scalar cells.
        cells = len(configs) * (1 + len(ensemble))
        assert stats["simulations_run"] == cells
        scalar = [
            ci for ci, config in enumerate(configs)
            if batch_mode == "off"
            or batch_unsupported_reason(scenario, config) is not None
        ]
        shared = [
            (ci, wi) for ci, wi in _inapplicable_cells(ensemble, configs)
            if ci in scalar
        ]
        assert stats["shared_evaluations"] == len(shared) > 0
        assert stats["scalar_evaluations"] == (
            len(scalar) * (1 + len(ensemble)) - len(shared)
        )
        assert stats["batched_evaluations"] == cells - len(scalar) * (
            1 + len(ensemble)
        )

    def test_shared_records_do_not_alias(self):
        scenario, ensemble, configs = _sampled_case(SAMPLED_SEEDS[0])
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
            records = oracle.evaluate_many(configs)
        ci, wi = _inapplicable_cells(ensemble, configs)[0]
        healthy = records[ci].healthy
        shared = records[ci].faulted[wi][1]
        assert shared.outcome == healthy.outcome
        assert shared.wall_seconds == 0.0 < healthy.wall_seconds
        for field in ("node_pdrs", "node_powers_mw", "totals"):
            mine = getattr(shared.outcome, field)
            theirs = getattr(healthy.outcome, field)
            assert mine is not theirs
            mine[-1] = "written"
            assert -1 not in theirs

    def test_every_world_cache_holds_its_cells(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        scenario, ensemble, configs = _sampled_case(
            SAMPLED_SEEDS[0], cache_dir=cache_dir
        )
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as cold:
            first = [r.to_dict() for r in cold.evaluate_many(configs)]
            journals = [
                [r.config.key() for r in sub.all_records]
                for sub in cold._oracles
            ]
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as warm:
            second = [r.to_dict() for r in warm.evaluate_many(configs)]
            stats = warm.stats()
        assert second == first
        assert stats["simulations_run"] == 0
        assert stats["disk_hits"] == len(configs) * (1 + len(ensemble))
        keys = [c.key() for c in configs]
        assert journals == [keys] * (1 + len(ensemble))

    @pytest.mark.parametrize(
        "posture", [False, True], ids=["still", "posture"]
    )
    @pytest.mark.parametrize(
        "kind", KINDS, ids=[f"{m.value}-{r.value}" for m, r in KINDS]
    )
    def test_branched_runs_equal_direct_runs(self, kind, posture):
        """Every world's branch of one replicate equals its run from
        t = 0, and branching leaves the healthy run untouched."""
        scenario = _branch_scenario()
        worlds = _branch_worlds(scenario)
        job = replace(
            replicate_job(scenario, _branch_config(*kind), 0),
            posture_params=PostureParameters() if posture else None,
        )
        direct = [job.run()] + [
            replace(job, fault_scenario=world).run() for world in worlds
        ]
        with_healthy = job.run_worlds((None,) + worlds)
        assert with_healthy.outcomes == direct
        assert with_healthy.branched == len(worlds)
        # Without the healthy outcome, the world whose first fault comes
        # last runs on the healthy network itself.
        faulted_only = job.run_worlds(worlds)
        assert faulted_only.outcomes == direct[1:]
        assert faulted_only.branched == len(worlds)
        lone = job.run_worlds(worlds[:1])
        assert lone.outcomes == direct[1:2] and lone.branched == 0

    def test_attached_faults_fire_at_their_absolute_times(self):
        """Attaching to a network paused mid-run schedules each fault at
        its own float, not at a delay from the paused clock (which would
        round differently for the node death at 1.3 s)."""
        scenario = _branch_scenario()
        job = replicate_job(
            scenario, _branch_config(MacKind.CSMA, RoutingKind.MESH), 0
        )
        world = FaultScenario("late-death", (
            FaultSpec(
                FaultKind.LINK_BLACKOUT, 0.3, duration_s=0.2, link=(1, 3)
            ),
            FaultSpec(FaultKind.NODE_DEATH, 1.3, location=6),
        ))
        paused_at = math.nextafter(0.3, -math.inf)
        assert first_event_s(world.faults) == 0.3
        assert paused_at + (1.3 - paused_at) != 1.3

        def fault_times(network):
            return sorted(
                time for time, priority, _seq, event in network.sim._heap
                if priority == FAULT_PRIORITY and not event.cancelled
            )

        direct = replace(job, fault_scenario=world).network()
        paused = job.network()
        paused.stats.enable_windows(Network.FAULT_WINDOW_S)
        paused.pause_before(0.3, job.tsim_s)
        assert paused.sim.now == paused_at
        branch = Network.restore(paused.snapshot())
        branch.attach_faults(world)
        assert fault_times(branch) == fault_times(direct) == [0.3, 0.5, 1.3]
        assert branch.run(job.tsim_s) == direct.run(job.tsim_s)

    def test_attaching_mid_run_needs_windows_from_the_start(self):
        scenario = _branch_scenario()
        job = replicate_job(
            scenario, _branch_config(MacKind.TDMA, RoutingKind.STAR), 0
        )
        network = job.network()
        network.pause_before(1.0, job.tsim_s)
        with pytest.raises(ValueError, match="windows"):
            network.attach_faults(_branch_worlds(scenario)[0])

    @pytest.mark.parametrize("batch_mode", ["off", "auto"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_ensemble_branches_equal_direct_runs(
        self, protocol, n_jobs, batch_mode
    ):
        """Through the ensemble oracle, in every mode and replicate
        protocol, each record equals its cell-by-cell direct run."""
        scenario = _branch_scenario(
            batch_mode=batch_mode, **PROTOCOLS[protocol]
        )
        worlds = _branch_worlds(scenario)
        want = _direct_records(protocol)
        configs = [record.config for record in want]
        with EnsembleOracle(scenario, worlds, n_jobs=n_jobs) as oracle:
            got = oracle.evaluate_many(configs)
            stats = oracle.stats()
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        for mine, theirs in zip(got, want):
            assert mine.healthy.outcome == theirs.healthy.outcome
            assert [r.outcome for _w, r in mine.faulted] == [
                r.outcome for _w, r in theirs.faulted
            ]
        assert stats["simulations_run"] == len(configs) * (1 + len(worlds))
        assert stats["branched_evaluations"] > 0

    def test_lone_configuration_spreads_its_worlds_over_the_pool(
        self, monkeypatch
    ):
        """One configuration at one replicate is one wave of one
        replicate: at two workers its worlds split into two tasks, each
        branching off its own healthy prefix, with the serial records."""
        scenario = _branch_scenario(batch_mode="off", replicates=1)
        worlds = _branch_worlds(scenario)
        config = _branch_config(MacKind.CSMA, RoutingKind.MESH)
        with EnsembleOracle(scenario, worlds, n_jobs=1) as oracle:
            want = oracle.evaluate(config)
        tasks = []
        map_ordered = WorkerPool.map_ordered

        def counted(pool, fn, items, *args, **kwargs):
            items = list(items)
            tasks.append(len(items))
            return map_ordered(pool, fn, items, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "map_ordered", counted)
        with EnsembleOracle(scenario, worlds, n_jobs=2) as oracle:
            got = oracle.evaluate(config)
            stats = oracle.stats()
        assert tasks == [2]
        assert got.to_dict() == want.to_dict()
        assert got.healthy.outcome == want.healthy.outcome
        assert [r.outcome for _w, r in got.faulted] == [
            r.outcome for _w, r in want.faulted
        ]
        assert stats["simulations_run"] == 1 + len(worlds)
