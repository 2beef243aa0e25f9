"""Tests for the point-to-point forwarding mesh extension."""

import hashlib
import json
import random

import pytest

from repro.channel.body import STANDARD_BODY
from repro.channel.fading import FadingParameters
from repro.channel.link import Channel
from repro.channel.pathloss import MeanPathLossModel
from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.experiments.scenario import make_space
from repro.library.mac_options import (
    MacKind,
    MacOptions,
    RoutingKind,
    RoutingOptions,
)
from repro.library.radios import CC2650
from repro.net.app import AppParameters
from repro.net.mac_csma import CsmaMac
from repro.net.network import Network, simulate_configuration
from repro.net.packet import Packet
from repro.net.radio import Medium, Radio
from repro.net.routing_p2p import P2pRouting, build_route_tables
from repro.net.stats import NodeStats

QUIET = FadingParameters(sigma_db=0.0, shadow_fraction=0.0)
MEAN_MODEL = MeanPathLossModel(STANDARD_BODY)


class TestRouteTables:
    def test_direct_routes_when_all_links_close(self):
        """At 0 dBm every link of a torso placement closes: all routes are
        single-hop."""
        tables = build_route_tables([0, 1, 2], MEAN_MODEL, 0.0, -97.0)
        assert tables[0] == {1: 1, 2: 2}
        assert tables[1] == {0: 0, 2: 2}

    def test_multihop_route_around_dead_link(self):
        """ankle(3) <-> head(8) exceeds 100 dB: at 0 dBm the route must
        pass through an intermediate."""
        tables = build_route_tables([0, 3, 8], MEAN_MODEL, 0.0, -97.0)
        assert tables[3][8] == 0
        assert tables[8][3] == 0

    def test_unreachable_destination_omitted(self):
        # At -20 dBm (budget 77 dB) the ankle is unreachable from the head
        # even via the chest relay (chest-ankle is 86 dB).
        tables = build_route_tables([0, 3, 8], MEAN_MODEL, -20.0, -97.0)
        assert 3 not in tables[8]

    def test_margin_prunes_marginal_links(self):
        no_margin = build_route_tables([0, 3], MEAN_MODEL, -10.0, -97.0)
        with_margin = build_route_tables(
            [0, 3], MEAN_MODEL, -10.0, -97.0, margin_db=10.0
        )
        assert 3 in no_margin[0]      # 1 dB of mean margin: routed
        assert 3 not in with_margin[0]  # pruned under a 10 dB requirement

    def test_routes_prefer_low_loss_paths(self):
        # Between two equal-hop alternatives the lower-loss one wins:
        # verified indirectly by weight = path loss in Dijkstra; tables
        # must be consistent (next hop leads closer to the destination).
        placement = [0, 1, 3, 6]
        tables = build_route_tables(placement, MEAN_MODEL, 0.0, -97.0)
        for src in placement:
            for dst, hop in tables[src].items():
                assert hop in placement
                assert hop != src


def _networkx_tables(placement, tx_dbm, margin_db=0.0):
    """The route tables networkx's Dijkstra builds: the reference the
    in-house Dijkstra must match, route for route and in order."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(placement)
    for a_index, a in enumerate(placement):
        for b in placement[a_index + 1:]:
            loss = MEAN_MODEL.mean_path_loss(a, b)
            if tx_dbm - loss >= CC2650.sensitivity_dbm + margin_db:
                graph.add_edge(a, b, weight=loss)
    tables = {node: {} for node in placement}
    for source in placement:
        paths = nx.single_source_dijkstra_path(graph, source, weight="weight")
        for dst, path in paths.items():
            if dst != source:
                tables[source][dst] = path[1]
    return tables


class TestRouteTablesMatchReference:
    """Left/right body symmetry gives 15 path-loss values shared by two
    or more of the 45 body links, so equal-loss routes are common and
    tie-breaking decides next hops.  The tables must equal networkx's
    over every smoke placement and TX level."""

    #: sha256 of the canonical JSON of ``[placement, tx_dbm, tables]``
    #: over all 110 smoke placements x 3 TX levels, as built by networkx
    #: ``single_source_dijkstra_path`` (pins the routes where networkx is
    #: not installed).
    DIGEST = "d08ba56c4cce0ea4920e23936ef0f109125cd5aa7a1b81b26fc68e063835eb2a"

    def _grid(self):
        space = make_space("smoke")
        return [
            (list(p), tx)
            for p in space.placements()
            for tx in space.tx_levels_dbm
        ]

    def test_smoke_grid_digest(self):
        tables = [
            [placement, tx, build_route_tables(
                placement, MEAN_MODEL, tx, CC2650.sensitivity_dbm
            )]
            for placement, tx in self._grid()
        ]
        assert len(tables) == 330
        blob = json.dumps(tables, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGEST

    def test_equal_to_networkx_in_any_placement_order(self):
        rng = random.Random(7)
        for placement, tx in self._grid():
            shuffled = rng.sample(placement, len(placement))
            for order, margin in ((placement, 0.0), (shuffled, 0.0),
                                  (shuffled, 5.0)):
                ours = build_route_tables(
                    order, MEAN_MODEL, tx, CC2650.sensitivity_dbm, margin
                )
                reference = _networkx_tables(order, tx, margin)
                # same routes, listed in the same order
                assert [list(t.items()) for t in ours.values()] == [
                    list(t.items()) for t in reference.values()
                ], (order, tx, margin)


class TestForwardingMechanics:
    def build(self, placement, tx_dbm=0.0):
        sim = Simulator()
        channel = Channel(RngStreams(seed=0), fading_params=QUIET)
        medium = Medium(sim, channel)
        stats, routers, delivered = {}, {}, {loc: [] for loc in placement}
        for loc in placement:
            stats[loc] = NodeStats(loc)
            radio = Radio(
                sim, medium, loc, CC2650, CC2650.tx_mode_by_dbm(tx_dbm),
                stats[loc],
            )
            mac = CsmaMac(
                sim, radio, MacOptions(kind=MacKind.CSMA), stats[loc],
                RngStreams(seed=loc),
            )
            router = P2pRouting(
                sim, mac,
                RoutingOptions(kind=RoutingKind.P2P, max_hops=3),
                stats[loc], RngStreams(seed=loc),
                placement=list(placement),
            )
            radio.on_receive = router.on_receive

            def sink(loc=loc):
                return lambda p, rssi: delivered[loc].append(p)

            router.deliver_up = sink()
            routers[loc] = router
        return sim, routers, stats, delivered

    def test_single_hop_delivery(self):
        sim, routers, stats, delivered = self.build([0, 1, 2])
        routers[1].send(Packet(origin=1, seq=0, destination=2,
                               length_bytes=100))
        sim.run()
        assert {p.uid for p in delivered[2]} == {(1, 0)}
        total_tx = sum(s.transmissions for s in stats.values())
        assert total_tx == 1  # direct route, no relays

    def test_two_hop_forwarding(self):
        sim, routers, stats, delivered = self.build([0, 3, 8])
        routers[3].send(Packet(origin=3, seq=0, destination=8,
                               length_bytes=100))
        sim.run()
        assert {p.uid for p in delivered[8]} == {(3, 0)}
        assert stats[0].relays == 1
        total_tx = sum(s.transmissions for s in stats.values())
        assert total_tx == 2  # source + one forwarder

    def test_only_next_hop_forwards(self):
        # 4 nodes; the copy is addressed to one next hop, so even though
        # everyone hears it, only that node relays.
        sim, routers, stats, delivered = self.build([0, 1, 3, 8])
        routers[3].send(Packet(origin=3, seq=0, destination=8,
                               length_bytes=100))
        sim.run()
        relayers = [loc for loc, s in stats.items() if s.relays > 0]
        assert len(relayers) <= 2
        assert {p.uid for p in delivered[8]} == {(3, 0)}

    def test_next_hop_lookup_fallback(self):
        sim, routers, _stats, _delivered = self.build([0, 1, 2])
        # Unrouted destination (not in this placement): falls back direct.
        assert routers[0].next_hop_for(9) == 9


class TestEndToEnd:
    def run_config(self, routing_kind, tx_dbm=0.0, seed=5):
        return simulate_configuration(
            placement=(0, 1, 3, 6),
            radio_spec=CC2650,
            tx_mode=CC2650.tx_mode_by_dbm(tx_dbm),
            mac_options=MacOptions(kind=MacKind.TDMA),
            routing_options=RoutingOptions(kind=routing_kind, coordinator=0,
                                           max_hops=2),
            app_params=AppParameters(),
            tsim_s=20.0,
            replicates=1,
            seed=seed,
        )

    def test_p2p_cheaper_than_flooding(self):
        """The paper's predicted trade-off: point-to-point forwarding
        transmits far fewer copies than controlled flooding (longer
        lifetime) but loses its single-route redundancy (lower PDR on the
        dynamic body channel)."""
        flood = self.run_config(RoutingKind.MESH)
        p2p = self.run_config(RoutingKind.P2P)
        assert p2p.totals["transmissions"] < flood.totals["transmissions"] / 2
        assert p2p.worst_power_mw < flood.worst_power_mw
        assert p2p.pdr <= flood.pdr

    def test_p2p_network_builds_without_coordinator(self):
        network = Network(
            placement=(1, 3, 6),
            radio_spec=CC2650,
            tx_mode=CC2650.tx_mode_by_dbm(0.0),
            mac_options=MacOptions(kind=MacKind.TDMA),
            routing_options=RoutingOptions(kind=RoutingKind.P2P, max_hops=2),
            app_params=AppParameters(),
            seed=0,
        )
        assert network.coordinator_locations == set()
        outcome = network.run(tsim_s=3.0)
        assert 0.0 <= outcome.pdr <= 1.0

    def test_p2p_retx_model_bounds_simulation(self):
        """The coarse model's N_reTx bound (= max_hops) must upper-bound
        the per-payload transmissions observed on a clean channel."""
        outcome = simulate_configuration(
            placement=(0, 1, 3, 6),
            radio_spec=CC2650,
            tx_mode=CC2650.tx_mode_by_dbm(0.0),
            mac_options=MacOptions(kind=MacKind.TDMA),
            routing_options=RoutingOptions(kind=RoutingKind.P2P, max_hops=2),
            app_params=AppParameters(),
            tsim_s=10.0,
            replicates=1,
            seed=0,
            fading_params=QUIET,
        )
        payloads = 4 * 10.0 * 10.0
        per_payload = outcome.totals["transmissions"] / payloads
        opts = RoutingOptions(kind=RoutingKind.P2P, max_hops=2)
        assert per_payload <= opts.retx_count(4) + 0.05


class TestCoarseModelBranch:
    def test_retx_count_p2p(self):
        opts = RoutingOptions(kind=RoutingKind.P2P, max_hops=2)
        assert opts.retx_count(4) == 2
        assert RoutingOptions(kind=RoutingKind.P2P, max_hops=5).retx_count(4) == 3

    def test_prt_encoding(self):
        assert RoutingKind.P2P.prt == 1  # multi-hop family

    def test_milp_space_with_p2p(self):
        """A custom space including P2P flows through the MILP path."""
        from repro.core.design_space import DesignSpace, PlacementConstraints
        from repro.core.milp_builder import MilpFormulation
        from repro.core.problem import DesignProblem, ScenarioParameters

        problem = DesignProblem(
            pdr_min=0.5,
            scenario=ScenarioParameters(tsim_s=5.0, replicates=1),
            space=DesignSpace(
                constraints=PlacementConstraints(max_nodes=4),
                tx_levels_dbm=(0.0,),
                routing_kinds=(
                    RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P
                ),
            ),
        )
        formulation = MilpFormulation(problem)
        _status, configs, p_star = formulation.enumerate_candidates(
            max_solutions=64
        )
        # P2P at max_hops=2 has NreTx=2 < star's effective cost? The star
        # branch costs phi*Tpkt*(Tx + 2*3*Rx); P2P costs
        # phi*Tpkt*2*(Tx + 3*Rx).  Star: 18.3+106.2=124.5; P2P:
        # 2*(18.3+53.1)=142.8 -> star still cheapest.
        assert all(c.routing is RoutingKind.STAR for c in configs)
        # Walk one level: the next cheapest is P2P.
        _s, configs2, p2 = formulation.enumerate_candidates(
            [p_star], max_solutions=64
        )
        assert p2 > p_star
        assert all(c.routing is RoutingKind.P2P for c in configs2)
