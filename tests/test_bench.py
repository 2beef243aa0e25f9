"""The benchmark subsystem's ground rules: the legacy reference stack is
faithful, the fast paths are bit-identical to it, and the harness refuses
to report a speedup when results diverge.

The PHY A/B tests here complement the channel-level equivalence tests in
test_channel.py: they run whole traffic patterns through the medium and
compare every per-node counter of the fast delivery path with the seed
reference loop.
"""

import math

import pytest

import repro.net.network as network_mod
from repro.bench.hotpath import (
    bench_des_throughput,
    run_hotpath_benchmarks,
    write_report,
)
from repro.bench.reference import (
    LegacySimulator,
    build_network,
    legacy_network,
)
from repro.channel.fading import FadingParameters
from repro.channel.link import Channel
from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.experiments.scenario import make_scenario, make_space
from repro.library.radios import CC2650
from repro.net.packet import Packet
from repro.net.radio import Medium, Radio
from repro.net.stats import NodeStats

ALL_LOCATIONS = tuple(range(10))  # 9 receivers: the widest fan-out

STAT_COUNTERS = (
    "transmissions", "receptions", "collisions_seen", "below_sensitivity",
    "tx_seconds", "rx_seconds", "fault_rx_suppressed",
)


def build_medium(locations, tx_dbm=0.0, seed=0, sigma=6.0, shadow=0.05,
                 use_fast_path=True):
    sim = Simulator()
    channel = Channel(
        RngStreams(seed=seed),
        fading_params=FadingParameters(
            sigma_db=sigma, shadow_fraction=shadow
        ),
    )
    medium = Medium(sim, channel, use_fast_path=use_fast_path)
    radios, stats = {}, {}
    for loc in locations:
        stats[loc] = NodeStats(loc)
        radios[loc] = Radio(
            sim, medium, loc, CC2650, CC2650.tx_mode_by_dbm(tx_dbm),
            stats[loc],
        )
    return sim, radios, stats


def drive_traffic(sim, radios, locations, n_packets=40):
    """Deterministic overlapping broadcasts (some concurrent, so the
    interference/capture branch is exercised too)."""
    airtime = CC2650.packet_airtime_s(100)
    busy_until = {loc: 0.0 for loc in locations}
    for k in range(n_packets):
        sender = locations[k % len(locations)]
        start = (k // len(locations)) * airtime * 1.7 + 0.0001 * (
            k % len(locations)
        )
        if start < busy_until[sender]:
            continue
        busy_until[sender] = start + airtime
        packet = Packet(
            origin=sender, seq=k,
            destination=locations[(k + 1) % len(locations)],
            length_bytes=100,
        ).originated()
        sim.schedule(start, radios[sender].transmit, packet)
    sim.run()


def counters(stats):
    return {
        loc: {name: getattr(s, name) for name in STAT_COUNTERS}
        for loc, s in stats.items()
    }


class TestFastPathBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_fast_equals_reference_on_wide_fanout(self, seed):
        """9 receivers per broadcast; every counter must match the seed
        reference loop exactly."""
        results = {}
        for fast in (True, False):
            sim, radios, stats = build_medium(
                ALL_LOCATIONS, seed=seed, use_fast_path=fast
            )
            drive_traffic(sim, radios, ALL_LOCATIONS)
            results[fast] = (counters(stats), sim.events_executed)
        assert results[True] == results[False]

    @pytest.mark.parametrize("seed", [5, 31])
    def test_fast_equals_reference_with_faulty_radio(self, seed):
        """A failed radio must be suppressed identically on both paths
        (no RX energy, no shadow-chain tick)."""
        results = {}
        for fast in (True, False):
            sim, radios, stats = build_medium(
                ALL_LOCATIONS, seed=seed, use_fast_path=fast
            )
            radios[4].failed = True
            drive_traffic(sim, radios, ALL_LOCATIONS)
            results[fast] = (counters(stats), sim.events_executed)
        assert results[True] == results[False]
        assert results[True][0][4]["fault_rx_suppressed"] > 0


class TestLegacyReferenceStack:
    def _scenario_and_config(self):
        scenario = make_scenario("smoke")
        config = max(
            make_space("smoke").feasible_configurations(),
            key=lambda c: (len(c.placement), c.key()),
        )
        return scenario, config

    def test_legacy_stack_outcome_is_bit_identical(self):
        """The frozen seed implementations and the optimized stack must
        tell exactly the same story about a full replicate."""
        scenario, config = self._scenario_and_config()
        fast = build_network(scenario, config).run(scenario.tsim_s)
        legacy = legacy_network(scenario, config).run(scenario.tsim_s)
        for name in (
            "pdr", "node_pdrs", "node_powers_mw", "worst_power_mw",
            "nlt_days", "totals", "events_executed", "mean_latency_s",
        ):
            assert getattr(fast, name) == getattr(legacy, name), name

    def test_legacy_network_restores_simulator_symbol(self):
        """legacy_network patches the module's Simulator during
        construction; the patch must never leak."""
        scenario, config = self._scenario_and_config()
        net = legacy_network(scenario, config)
        assert network_mod.Simulator is Simulator
        assert isinstance(net.sim, LegacySimulator)
        assert net.medium.use_fast_path is False

    def test_legacy_simulator_matches_new_kernel(self):
        """Identical schedule/cancel workloads must execute the same
        events at the same times on both kernels."""
        from repro.bench.hotpath import _timer_churn

        new, old = Simulator(), LegacySimulator()
        assert _timer_churn(new, 2000) == _timer_churn(old, 2000)
        assert new.now == old.now
        assert new.pending_count == old.pending_count == 0


class TestHarness:
    def test_des_benchmark_reports_consistent_counts(self):
        report = bench_des_throughput(n_events=2000, repeats=1)
        assert report["identical_event_counts"]
        assert report["events"] >= 2000
        assert report["fast_wall_seconds"] > 0
        assert report["speedup"] == (
            report["legacy_wall_seconds"] / report["fast_wall_seconds"]
        )

    def test_des_benchmark_raises_on_divergence(self, monkeypatch):
        """The harness must refuse to benchmark kernels that disagree."""
        real = LegacySimulator.run

        def tampered(self, *a, **k):
            result = real(self, *a, **k)
            self._events_executed += 1  # simulate a divergent kernel
            return result

        monkeypatch.setattr(LegacySimulator, "run", tampered)
        with pytest.raises(AssertionError, match="different event counts"):
            bench_des_throughput(n_events=500, repeats=1)

    def test_write_report_round_trips(self, tmp_path):
        import json

        path = tmp_path / "bench.json"
        payload = {"benchmark": "hotpath", "speedup": 1.5}
        write_report(payload, str(path))
        assert json.loads(path.read_text()) == payload
