"""Batched replicate kernel: bit identity, RNG contract, oracle wiring.

Pins PR 6's acceptance criteria at three levels:

* **numpy bitstream contract** — the vectorized draw blocks of
  :mod:`repro.channel.batch_draws` promise that array draws consume the
  underlying bit stream exactly as scalar draws do; each equivalence the
  module docstring claims is asserted here against the installed numpy.
* **kernel bit identity** — :func:`repro.core.batch.evaluate_batch`
  reproduces the scalar DES outcome field-for-field across randomized
  seeds, replicate counts, TX-power variants, and correlated fault
  worlds; unsupported configurations are refused up front.
* **oracle wiring** — ``batch_mode="auto"`` / ``"on"`` return records
  identical to ``"off"`` (the legacy scalar path) through both
  :class:`SimulationOracle` and :class:`EnsembleOracle`, with the
  duplicate-config dedup/hit accounting preserved and the batch-path
  counters advancing.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.channel.batch_draws import NORMAL, UNIFORM, Block, DrawBlocks
from repro.core.batch import batch_unsupported_reason, evaluate_batch
from repro.core.design_space import Configuration
from repro.core.evaluator import SimulationOracle
from repro.core.parallel import run_configuration_outcome
from repro.core.problem import ScenarioParameters
from repro.des.rng import RngStreams
from repro.faults.model import hub_stress_ensemble, sample_fault_ensemble
from repro.faults.resilience import EnsembleOracle
from repro.library.mac_options import MacKind, RoutingKind

np = pytest.importorskip("numpy")

STAR = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.STAR)
STAR_LOW = replace(STAR, tx_dbm=-10.0)
MESH = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.MESH)
CSMA = Configuration((0, 1, 3, 5), 0.0, MacKind.CSMA, RoutingKind.STAR)


def tiny_scenario(**overrides) -> ScenarioParameters:
    defaults = dict(tsim_s=2.0, replicates=1, seed=0)
    defaults.update(overrides)
    return ScenarioParameters(**defaults)


def assert_outcomes_identical(a, b):
    """Field-for-field equality of two SimulationOutcome dataclasses."""
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestNumpyBitstreamContract:
    """The four draw equivalences batch_draws.py's docstring promises."""

    def _pair(self, seed=7):
        return (
            np.random.Generator(np.random.Philox(seed)),
            np.random.Generator(np.random.Philox(seed)),
        )

    def test_standard_normal_array_equals_scalar_sequence(self):
        vec, scal = self._pair()
        assert vec.standard_normal(size=37).tolist() == [
            float(scal.standard_normal()) for _ in range(37)
        ]

    def test_random_array_equals_scalar_sequence(self):
        vec, scal = self._pair()
        assert vec.random(size=37).tolist() == [
            float(scal.random()) for _ in range(37)
        ]

    def test_normal_is_loc_plus_scale_times_standard_normal(self):
        a, b = self._pair()
        loc, scale = 1.25, 0.375
        for _ in range(37):
            assert float(a.normal(loc, scale)) == loc + scale * float(
                b.standard_normal()
            )

    def test_uniform_defaults_equal_random(self):
        a, b = self._pair()
        for _ in range(37):
            assert float(a.uniform()) == float(b.random())

    def test_chained_block_extension_continues_the_sequence(self):
        """Growing a Block in doubling chunks must yield the same values
        a single bulk draw (or the scalar loop) would have produced."""
        for kind in (NORMAL, UNIFORM):
            rng = RngStreams(seed=3, replicate=1)
            block = Block(rng.stream("fading/0-1"), kind, initial=4)
            grown = [block.get(i) for i in range(500)]  # forces extensions

            ref_stream = RngStreams(seed=3, replicate=1).stream("fading/0-1")
            if kind == NORMAL:
                reference = [float(ref_stream.standard_normal()) for _ in range(500)]
            else:
                reference = [float(ref_stream.uniform()) for _ in range(500)]
            assert grown == reference

    def test_draw_blocks_share_stream_derivation(self):
        blocks = DrawBlocks(seed=5, replicate=2)
        direct = RngStreams(seed=5, replicate=2).stream("shadow/3")
        block = blocks.block("shadow/3", UNIFORM)
        assert block.get(0) == float(direct.uniform())


class TestUnsupportedGate:
    def test_supported_config_passes(self):
        assert batch_unsupported_reason(tiny_scenario(), STAR) is None

    def test_csma_refused(self):
        reason = batch_unsupported_reason(tiny_scenario(), CSMA)
        assert reason is not None and "csma" in reason.lower()

    def test_mesh_refused(self):
        reason = batch_unsupported_reason(tiny_scenario(), MESH)
        assert reason is not None and "mesh" in reason.lower()

    def test_adaptive_protocol_refused(self):
        scenario = tiny_scenario(
            adaptive_replicates=True, pdr_epsilon=0.02, max_replicates=4
        )
        reason = batch_unsupported_reason(scenario, STAR)
        assert reason is not None and "adaptive" in reason

    def test_evaluate_batch_rejects_unsupported(self):
        with pytest.raises(ValueError):
            evaluate_batch(tiny_scenario(), [CSMA], [None])

    def test_evaluate_batch_rejects_mixed_topologies(self):
        other = Configuration((0, 1, 3, 6), 0.0, MacKind.TDMA, RoutingKind.STAR)
        with pytest.raises(ValueError):
            evaluate_batch(tiny_scenario(), [STAR, other], [None])


class TestKernelBitIdentity:
    """evaluate_batch vs the scalar reference, field for field."""

    def _check_grid(self, scenario, configs, worlds):
        outcomes = evaluate_batch(scenario, configs, worlds)
        for ci, config in enumerate(configs):
            for wi, world in enumerate(worlds):
                scalar = run_configuration_outcome(
                    replace(scenario, fault_scenario=world), config
                )
                assert_outcomes_identical(outcomes[(ci, wi)], scalar)

    @pytest.mark.parametrize("seed", [0, 11, 2026])
    def test_healthy_lane_matches_scalar_across_seeds(self, seed):
        self._check_grid(tiny_scenario(seed=seed), [STAR], [None])

    @pytest.mark.parametrize("replicates", [1, 2, 3])
    def test_replicate_counts(self, replicates):
        self._check_grid(
            tiny_scenario(replicates=replicates, seed=4), [STAR], [None]
        )

    def test_tx_variants_and_hub_outage_grid(self):
        scenario = tiny_scenario(seed=9)
        worlds = [None] + list(
            hub_stress_ensemble(scenario.tsim_s, outage_fraction=0.3, size=2)
        )
        self._check_grid(scenario, [STAR, STAR_LOW], worlds)

    def test_correlated_fault_worlds(self):
        scenario = tiny_scenario(seed=13)
        # (0, 1, 3, 6) includes a torso-crossing link, so the correlated
        # blackout group is non-empty.
        config = Configuration((0, 1, 3, 6), 0.0, MacKind.TDMA, RoutingKind.STAR)
        worlds = list(
            sample_fault_ensemble(
                3,
                seed=21,
                horizon_s=scenario.tsim_s,
                locations=config.placement,
                coordinator=0,
                correlated_links=True,
            )
        )
        self._check_grid(scenario, [config], worlds)

    def test_ignores_scenario_fault_field(self):
        """Worlds are explicit arguments; a fault baked into the scenario
        must not leak into the healthy lane."""
        faulted = tiny_scenario(
            fault_scenario=hub_stress_ensemble(2.0, outage_fraction=0.3, size=1)[0]
        )
        healthy = run_configuration_outcome(
            replace(faulted, fault_scenario=None), STAR
        )
        batched = evaluate_batch(faulted, [STAR], [None])
        assert_outcomes_identical(batched[(0, 0)], healthy)


class TestOracleBatchModes:
    def test_batch_mode_validation(self):
        with pytest.raises(ValueError, match="batch_mode"):
            tiny_scenario(batch_mode="sometimes")

    def test_auto_and_on_match_off(self):
        configs = [STAR, STAR_LOW]
        records = {}
        for mode in ("off", "auto", "on"):
            oracle = SimulationOracle(tiny_scenario(batch_mode=mode))
            records[mode] = oracle.evaluate_many(configs)
            assert oracle.simulations_run == 2
        for mode in ("auto", "on"):
            for a, b in zip(records["off"], records[mode]):
                assert a.config.key() == b.config.key()
                assert_outcomes_identical(a.outcome, b.outcome)

    def test_duplicate_configs_count_one_hit_in_every_mode(self):
        """[c1, c1, c2] → 2 simulations, 1 cache hit — the dedup
        accounting the batched dispatch must preserve."""
        for mode in ("off", "auto", "on"):
            oracle = SimulationOracle(tiny_scenario(batch_mode=mode))
            out = oracle.evaluate_many([STAR, STAR, STAR_LOW])
            assert oracle.simulations_run == 2, mode
            assert oracle.cache_hits == 1, mode
            assert out[0].config.key() == out[1].config.key()
            assert_outcomes_identical(out[0].outcome, out[1].outcome)

    def test_counters_track_the_path_taken(self):
        on = SimulationOracle(tiny_scenario(batch_mode="on", replicates=2))
        on.evaluate_many([STAR, STAR_LOW])
        stats = on.stats()
        assert stats["batch_mode"] == "on"
        assert stats["batch_calls"] == 1
        assert stats["batched_evaluations"] == 2
        assert stats["batched_lanes"] == 4  # 2 configs × 2 replicates
        assert stats["scalar_evaluations"] == 0

        off = SimulationOracle(tiny_scenario(batch_mode="off"))
        off.evaluate_many([STAR, STAR_LOW])
        stats = off.stats()
        assert stats["batch_calls"] == 0
        assert stats["batched_evaluations"] == 0
        assert stats["scalar_evaluations"] == 2

    def test_auto_needs_two_lanes_but_on_batches_single(self):
        auto = SimulationOracle(tiny_scenario(batch_mode="auto"))
        auto.evaluate(STAR)
        assert auto.stats()["batch_calls"] == 0
        assert auto.stats()["scalar_evaluations"] == 1

        on = SimulationOracle(tiny_scenario(batch_mode="on"))
        on.evaluate(STAR)
        assert on.stats()["batch_calls"] == 1
        assert on.stats()["scalar_evaluations"] == 0

    def test_unsupported_configs_fall_back_to_scalar(self):
        oracle = SimulationOracle(tiny_scenario(batch_mode="on"))
        record = oracle.evaluate(CSMA)
        assert oracle.stats()["batch_calls"] == 0
        assert oracle.stats()["scalar_evaluations"] == 1
        reference = SimulationOracle(tiny_scenario(batch_mode="off")).evaluate(CSMA)
        assert_outcomes_identical(record.outcome, reference.outcome)

    def test_mixed_batch_splits_by_support(self):
        oracle = SimulationOracle(tiny_scenario(batch_mode="auto"))
        oracle.evaluate_many([STAR, STAR_LOW, CSMA, MESH])
        stats = oracle.stats()
        assert stats["batched_evaluations"] == 2
        assert stats["scalar_evaluations"] == 2
        assert oracle.simulations_run == 4

    def test_reset_counters_clears_batch_telemetry(self):
        oracle = SimulationOracle(tiny_scenario(batch_mode="on"))
        oracle.evaluate(STAR)
        oracle.reset_counters()
        stats = oracle.stats()
        assert stats["batch_calls"] == 0
        assert stats["batched_lanes"] == 0
        assert stats["scalar_evaluations"] == 0


class TestEnsembleOracleBatchModes:
    @pytest.fixture(scope="class")
    def ensemble(self):
        return hub_stress_ensemble(2.0, outage_fraction=0.3, size=2)

    def test_auto_matches_off_bit_for_bit(self, ensemble):
        configs = [STAR, STAR_LOW]
        results = {}
        for mode in ("off", "auto"):
            scenario = tiny_scenario(batch_mode=mode)
            with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
                results[mode] = [
                    r.to_dict() for r in oracle.evaluate_many(configs)
                ]
                stats = oracle.stats()
                assert stats["simulations_run"] == len(configs) * (
                    1 + len(ensemble)
                )
                if mode == "auto":
                    # 2 configs × 3 worlds merge into one kernel call.
                    assert stats["batch_calls"] >= 1
                    assert stats["batched_evaluations"] == 6
                else:
                    assert stats["batch_calls"] == 0
        assert results["auto"] == results["off"]

    def test_unsupported_configs_still_use_pool(self, ensemble):
        scenario = tiny_scenario(batch_mode="auto")
        with EnsembleOracle(scenario, ensemble, n_jobs=1) as oracle:
            oracle.evaluate(MESH)
            stats = oracle.stats()
        assert stats["batch_calls"] == 0
        assert stats["simulations_run"] == 1 + len(ensemble)


class TestTraceReportBatchSection:
    """Satellite: trace_report renders the batch-path counters and stays
    graceful on traces recorded before the batched kernel existed."""

    def test_renders_batch_counters(self):
        from repro.analysis.trace_report import summarize

        events = [
            {"kind": "oracle.batch", "configs": 2, "worlds": 3,
             "lanes": 6, "wall_s": 0.25},
            # An event missing fields must not KeyError (forward compat).
            {"kind": "oracle.batch", "configs": 1, "lanes": 2},
        ]
        report = summarize(events)
        assert "batched kernel" in report
        assert "2 call(s)" in report
        assert "8 lane(s)" in report
        assert "3 configuration(s)" in report

    def test_old_traces_skip_the_section(self):
        from repro.analysis.trace_report import summarize

        events = [
            {"kind": "oracle.evaluate", "cached": False,
             "wall_s": 0.1, "replicates": 1},
        ]
        report = summarize(events)
        assert "oracle" in report
        assert "batched kernel" not in report

    def test_cli_batch_flag_emits_trace_events(self, tmp_path, capsys):
        from repro import cli
        from repro.analysis import trace_report
        from repro.obs import read_trace

        trace = tmp_path / "run.jsonl"
        assert cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke",
            "--batch", "on", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        events = read_trace(trace)
        manifest = events[0]
        assert manifest.get("batch") == "on"
        assert any(e.get("kind") == "oracle.batch" for e in events)
        assert trace_report.main([str(trace)]) == 0
        assert "batched kernel" in capsys.readouterr().out
