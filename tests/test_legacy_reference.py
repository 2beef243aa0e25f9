"""The frozen legacy reference stack is faithful, and the fast paths are
bit-identical to it.

The PHY A/B tests here complement the channel-level equivalence tests in
test_channel.py: they run whole traffic patterns through the medium and
compare every per-node counter of the fast delivery path with the seed
reference loop.  The whole-replicate and DES-kernel tests compare the
optimized stack with the seed copies in ``tests/legacy_stack.py``.
"""

import dataclasses
from typing import List

import pytest

import repro.net.network as network_mod
from repro.channel.fading import FadingParameters
from repro.channel.link import Channel
from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.experiments.scenario import make_scenario, make_space
from repro.library.radios import CC2650
from repro.net.network import SimulationOutcome
from repro.net.packet import Packet
from repro.net.radio import Medium, Radio
from repro.net.stats import NodeStats

from tests.legacy_stack import LegacySimulator, build_network, legacy_network

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


def _timer_churn(sim, n_events: int) -> int:
    """Schedule ``n_events`` staggered timers, cancel every third from
    inside the callbacks (retransmission-guard style), and drain."""
    pending: List = []

    def fire(i: int) -> None:
        # Cancel a previously scheduled neighbour — the MAC's dominant
        # pattern (guard timers cancelled by their acknowledgement).
        if i % 3 == 0 and pending:
            pending.pop().cancel()
        if i % 7 == 0:
            pending.append(sim.schedule(0.5, lambda: None))

    for i in range(n_events):
        # Deterministic pseudo-staggered delays (no RNG: keeps the two
        # kernels trivially comparable).
        delay = ((i * 2654435761) % 1000) / 1000.0 + 0.001
        sim.schedule(delay, fire, i)
    sim.run()
    return sim.events_executed


class TestLegacyReferenceStack:
    def _scenario_and_config(self, preset="smoke"):
        """The densest feasible placement: fan-out width is what the PHY
        fast path optimizes."""
        scenario = make_scenario(preset)
        config = max(
            make_space(preset).feasible_configurations(),
            key=lambda c: (len(c.placement), c.key()),
        )
        return scenario, config

    @pytest.mark.parametrize("preset", ["smoke", "ci"])
    def test_legacy_stack_outcome_is_bit_identical(self, preset):
        """The frozen seed implementations and the optimized stack must
        tell exactly the same story about a full replicate."""
        scenario, config = self._scenario_and_config(preset)
        fast = build_network(scenario, config).run(scenario.tsim_s)
        legacy = legacy_network(scenario, config).run(scenario.tsim_s)
        for field in dataclasses.fields(SimulationOutcome):
            name = field.name
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
        new, old = Simulator(), LegacySimulator()
        assert _timer_churn(new, 2000) == _timer_churn(old, 2000)
        assert new.now == old.now
        assert new.pending_count == old.pending_count == 0
