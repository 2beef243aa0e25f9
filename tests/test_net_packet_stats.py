"""Tests for packets and the PDR/power statistics (Eqs. 4, 6, 7)."""

import pytest

from repro.library.batteries import CR2032
from repro.net.packet import Packet
from repro.net.stats import NetworkStats, lifetime_days_from_power


def make_packet(**kwargs):
    defaults = dict(origin=0, seq=1, destination=3, length_bytes=100)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestPacket:
    def test_uid_shared_by_copies(self):
        p = make_packet()
        relayed = p.originated().relayed_by(5)
        assert relayed.uid == p.uid
        assert relayed.copy_id != p.copy_id

    def test_originated_marks_origin(self):
        p = make_packet().originated()
        assert p.relayer == 0
        assert 0 in p.visited
        assert p.hops_used == 0

    def test_relay_increments_hops_and_history(self):
        p = make_packet().originated()
        r1 = p.relayed_by(5)
        r2 = r1.relayed_by(6)
        assert r1.hops_used == 1 and r2.hops_used == 2
        assert r2.visited == frozenset({0, 5, 6})
        assert r2.relayer == 6

    def test_original_packet_immutable(self):
        p = make_packet().originated()
        p.relayed_by(4)
        assert p.hops_used == 0 and p.visited == frozenset({0})

    def test_validation(self):
        with pytest.raises(ValueError):
            make_packet(length_bytes=0)
        with pytest.raises(ValueError):
            make_packet(hops_used=-1)

    @pytest.mark.parametrize("length", [0, -1, -100])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(ValueError, match="length"):
            make_packet(length_bytes=length)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError, match="hop"):
            make_packet(hops_used=-3)

    @pytest.mark.parametrize(
        "field",
        ["origin", "seq", "destination", "length_bytes", "hops_used",
         "visited", "relayer", "created_at", "next_hop", "copy_id"],
    )
    def test_fields_cannot_be_assigned(self, field):
        p = make_packet().originated()
        with pytest.raises(AttributeError):
            setattr(p, field, 9)
        with pytest.raises(AttributeError):
            p.extra = 1  # no new attributes either

    def test_every_copy_gets_a_new_copy_id(self):
        p = make_packet()
        copies = [p, p.originated()]
        copies.append(copies[-1].relayed_by(5))
        copies.append(copies[-1].relayed_by(6))
        assert len({c.copy_id for c in copies}) == len(copies)
        assert {c.uid for c in copies} == {(0, 1)}

    def test_explicit_copy_id_kept(self):
        assert make_packet(copy_id=41).copy_id == 41

    def test_copies_keep_payload_fields_and_history(self):
        p = make_packet(created_at=2.5, next_hop=4)
        o = p.originated()
        r = o.relayed_by(7)
        for c in (o, r):
            assert (c.origin, c.seq, c.destination, c.length_bytes) == (
                0, 1, 3, 100
            )
            assert c.created_at == 2.5 and c.next_hop == 4
        assert (o.hops_used, o.visited, o.relayer) == (0, frozenset({0}), 0)
        assert (r.hops_used, r.visited, r.relayer) == (
            1, frozenset({0, 7}), 7
        )
        # the copies it was made from are unchanged
        assert p.visited == frozenset() and p.relayer is None

    def test_addressed_to_is_the_same_copy_readdressed(self):
        o = make_packet().originated()
        a = o.addressed_to(5)
        assert a.next_hop == 5 and o.next_hop is None
        assert a.copy_id == o.copy_id
        assert a._replace(next_hop=None) == o

    def test_repr_names_route_state(self):
        r = make_packet().originated().relayed_by(5)
        assert repr(r) == "Packet(0->3 seq=1 hops=1 via=5)"


class _RecordingMac:
    """Just enough of a MAC for a routing layer: a location and a queue."""

    def __init__(self, location):
        self.location = location
        self.queue = []

    def enqueue(self, packet):
        self.queue.append(packet)
        return True


class TestP2pCopies:
    """Point-to-point forwarding re-addresses each copy it builds to the
    next hop of its route."""

    def router(self, location, routes):
        from repro.des.engine import Simulator
        from repro.des.rng import RngStreams
        from repro.library.mac_options import RoutingKind, RoutingOptions
        from repro.net.routing_p2p import P2pRouting
        from repro.net.stats import NodeStats

        mac = _RecordingMac(location)
        router = P2pRouting(
            Simulator(), mac, RoutingOptions(kind=RoutingKind.P2P),
            NodeStats(location), RngStreams(seed=0), route_table=routes,
        )
        return router, mac

    def test_send_addresses_the_original_copy(self, monkeypatch):
        router, mac = self.router(3, {8: 0})
        originals = []
        real = Packet.originated

        def spy(packet):
            originals.append(real(packet))
            return originals[-1]

        monkeypatch.setattr(Packet, "originated", spy)
        router.send(make_packet(origin=3, destination=8))
        (copy,) = mac.queue
        assert copy.next_hop == 0
        assert copy.copy_id == originals[0].copy_id
        assert copy._replace(next_hop=None) == originals[0]

    def test_forwarded_copy_is_a_new_copy_to_the_next_hop(self):
        router, mac = self.router(0, {8: 8})
        heard = make_packet(origin=3, destination=8).originated().addressed_to(0)
        router.on_receive(heard, -60.0)
        (copy,) = mac.queue
        assert copy.next_hop == 8
        assert copy.copy_id != heard.copy_id
        assert copy.uid == heard.uid
        assert (copy.hops_used, copy.visited, copy.relayer) == (
            1, frozenset({3, 0}), 0
        )


class TestPdrEstimators:
    def make_stats(self):
        return NetworkStats([0, 1, 2])

    def test_eq6_per_node_average_over_sources(self):
        stats = self.make_stats()
        # node 0 sends 10 to node 2, node 1 sends 5 to node 2.
        for _ in range(10):
            stats.node(0).record_sent(2)
        for _ in range(5):
            stats.node(1).record_sent(2)
        # node 2 receives 8 from 0 and 5 from 1.
        for k in range(8):
            stats.node(2).record_delivery(0, (0, k), 0.0)
        for k in range(5):
            stats.node(2).record_delivery(1, (1, k), 0.0)
        assert stats.node_pdr(2) == pytest.approx((0.8 + 1.0) / 2)

    def test_eq7_network_average(self):
        stats = self.make_stats()
        stats.node(0).record_sent(1)
        stats.node(1).record_delivery(0, (0, 0), 0.0)
        # pair (0,1) is perfect; all other pairs carried no traffic and are
        # excluded, so node 1 has PDR 1 and nodes 0, 2 have PDR 0
        # (no ratios -> 0).
        assert stats.network_pdr() == pytest.approx(1.0 / 3.0)

    def test_duplicate_deliveries_counted_once(self):
        stats = self.make_stats()
        stats.node(0).record_sent(1)
        assert stats.node(1).record_delivery(0, (0, 0), 0.1)
        assert not stats.node(1).record_delivery(0, (0, 0), 0.2)
        assert stats.node(1).received[0] == 1

    def test_zero_traffic_pairs_excluded(self):
        stats = self.make_stats()
        stats.node(0).record_sent(1)  # only pair (0,1) carries traffic
        assert stats.node_pdr(1) == 0.0  # sent but nothing received
        assert stats.node_pdr(2) == 0.0  # no ratios at all

    def test_pdr_capped_at_one(self):
        stats = self.make_stats()
        stats.node(0).record_sent(1)
        # Two distinct uids received though only one send was recorded
        # (possible when a run drains in-flight packets past the horizon).
        stats.node(1).record_delivery(0, (0, 0), 0.0)
        stats.node(1).record_delivery(0, (0, 1), 0.0)
        assert stats.node_pdr(1) <= 1.0

    def test_pair_matrix(self):
        stats = self.make_stats()
        stats.node(0).record_sent(1)
        stats.node(1).record_delivery(0, (0, 0), 0.0)
        matrix = stats.pair_matrix()
        assert matrix[(0, 1)] == (1, 1)
        assert matrix[(1, 0)] == (0, 0)

    def test_mean_latency(self):
        stats = self.make_stats()
        stats.node(1).record_delivery(0, (0, 0), 0.2)
        stats.node(1).record_delivery(0, (0, 1), 0.4)
        assert stats.node(1).mean_latency_s == pytest.approx(0.3)


class TestPowerAndLifetime:
    def test_node_power_accounting(self):
        stats = NetworkStats([0, 1])
        node = stats.node(0)
        node.tx_seconds = 10.0
        node.rx_seconds = 20.0
        # over 100 s: 0.1 mW baseline + 10% of 18.3 + 20% of 17.7.
        power = stats.node_power_mw(0, 100.0, 18.3, 17.7, 0.1)
        assert power == pytest.approx(0.1 + 1.83 + 3.54)

    def test_lifetime_uses_worst_node(self):
        stats = NetworkStats([0, 1, 2])
        stats.node(1).tx_seconds = 50.0  # hungriest
        nlt = stats.network_lifetime_days(100.0, 10.0, 0.0, 0.1, CR2032)
        worst_power = 0.1 + 50.0 / 100.0 * 10.0
        assert nlt == pytest.approx(CR2032.lifetime_days(worst_power))

    def test_exclude_coordinator(self):
        stats = NetworkStats([0, 1])
        stats.node(0).tx_seconds = 99.0  # coordinator, excluded
        power = stats.max_noncoordinator_power_mw(
            100.0, 10.0, 0.0, 0.1, exclude={0}
        )
        assert power == pytest.approx(0.1)

    def test_all_excluded_rejected(self):
        stats = NetworkStats([0])
        with pytest.raises(ValueError):
            stats.max_noncoordinator_power_mw(1.0, 1.0, 1.0, 0.1, exclude={0})

    def test_bad_horizon_rejected(self):
        stats = NetworkStats([0])
        with pytest.raises(ValueError):
            stats.node_power_mw(0, 0.0, 1.0, 1.0, 0.1)

    def test_lifetime_days_from_power(self):
        assert lifetime_days_from_power(1.0, CR2032) == pytest.approx(
            675.0 / 24.0
        )
