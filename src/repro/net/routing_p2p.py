"""Point-to-point forwarding mesh: least-loss routes instead of flooding.

This is the alternative mesh scheme the paper cites (Sec. 2.1.2: "mesh
networks generally relay messages using either flooding or point-to-point
forwarding schemes") and argues against for the Human Intranet because of
route-maintenance overhead under a fast-changing channel.  Implementing it
makes that argument *testable*: P2P transmits far fewer copies than
controlled flooding (one per traversed hop — lower power), but a single
deep fade on any route edge loses the packet (lower reliability on the
dynamic body channel), which is exactly the trade-off the paper predicts.

Routes are shortest paths by mean path loss over the connectivity graph
whose edges are the links whose *average* budget closes at the configured
TX power (Dijkstra at construction — static routing, mirroring a
protocol that amortizes route discovery).  Every node derives the same
tables from the same mean channel, so next-hop forwarding is consistent.

Forwarding rules: a copy is addressed to one ``next_hop``; only that node
relays (re-addressing the copy to its own next hop), the hop counter and
visited history bound the route, and unreachable destinations fall back to
a direct single-hop attempt.  Destinations opportunistically accept any
overheard copy — reception is free redundancy on a broadcast medium.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional

from repro.channel.pathloss import MeanPathLossModel
from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.library.mac_options import RoutingOptions
from repro.net.mac_base import MacBase
from repro.net.packet import Packet
from repro.net.stats import NodeStats


def build_route_tables(
    placement: List[int],
    mean_model: MeanPathLossModel,
    tx_dbm: float,
    sensitivity_dbm: float,
    margin_db: float = 0.0,
) -> Dict[int, Dict[int, int]]:
    """Next-hop tables for every node: ``tables[node][dst] -> next hop``.

    Edges exist where the mean link budget closes with at least
    ``margin_db`` of slack; weights are the mean path losses, so routes
    prefer strong links.  Unreachable destinations are omitted (callers
    fall back to a direct attempt).
    """
    # Each node lists its links in placement order, which fixes how
    # equal-loss routes (left/right body symmetry makes them common) tie.
    links: Dict[int, List[tuple]] = {node: [] for node in placement}
    for a_index, a in enumerate(placement):
        for b in placement[a_index + 1:]:
            loss = mean_model.mean_path_loss(a, b)
            if tx_dbm - loss >= sensitivity_dbm + margin_db:
                links[a].append((b, loss))
                links[b].append((a, loss))

    tables: Dict[int, Dict[int, int]] = {node: {} for node in placement}
    for source in placement:
        for dst, path in _shortest_paths(links, source).items():
            if dst != source:
                tables[source][dst] = path[1]
    return tables


def _shortest_paths(links, source: int) -> Dict[int, List[int]]:
    """Least-loss path from ``source`` to every reachable node, in the
    order the nodes are settled.

    Between equal-loss paths the first one found wins: the fringe orders
    equal distances by push order, and a node's predecessor only changes
    for a strictly shorter path.
    """
    paths: Dict[int, List[int]] = {}
    best = {source: 0.0}
    via = {source: None}
    order = itertools.count()
    fringe = [(0.0, next(order), source)]
    while fringe:
        dist, _, node = heapq.heappop(fringe)
        if node in paths:
            continue
        parent = via[node]
        paths[node] = [node] if parent is None else paths[parent] + [node]
        for neighbour, loss in links[node]:
            candidate = dist + loss
            if neighbour not in paths and (
                neighbour not in best or candidate < best[neighbour]
            ):
                best[neighbour] = candidate
                via[neighbour] = node
                heapq.heappush(fringe, (candidate, next(order), neighbour))
    return paths


class P2pRouting:
    """Routing layer for one node in a point-to-point forwarding mesh."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacBase,
        options: RoutingOptions,
        stats: NodeStats,
        rng: RngStreams,
        route_table: Optional[Dict[int, int]] = None,
        placement: Optional[List[int]] = None,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.options = options
        self.stats = stats
        self.rng = rng
        self.deliver_up: Optional[Callable[[Packet, float], None]] = None
        if route_table is not None:
            self._routes = dict(route_table)
        elif placement is not None:
            tables = build_route_tables(
                sorted(placement),
                mac.radio.medium.channel.mean_model,
                mac.radio.tx_mode.output_dbm,
                mac.radio.spec.sensitivity_dbm,
            )
            self._routes = tables[self.location]
        else:
            raise ValueError("P2P routing needs a route table or a placement")

    @property
    def location(self) -> int:
        return self.mac.location

    def next_hop_for(self, destination: int) -> int:
        """The configured next hop (destination itself when unrouted)."""
        return self._routes.get(destination, destination)

    # -- downward path -----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        copy = packet.originated().addressed_to(
            self.next_hop_for(packet.destination)
        )
        self.mac.enqueue(copy)

    # -- upward path ---------------------------------------------------------------

    def on_receive(self, packet: Packet, rssi_dbm: float) -> None:
        if self.deliver_up is not None:
            # Opportunistic delivery: the application accepts any copy
            # addressed (at the app layer) to this node, even overheard
            # ones — free redundancy on a broadcast PHY.
            self.deliver_up(packet, rssi_dbm)
        if not self._should_forward(packet):
            return
        self.stats.relays += 1
        copy = packet.relayed_by(self.location).addressed_to(
            self.next_hop_for(packet.destination)
        )
        self.mac.enqueue(copy)

    def _should_forward(self, packet: Packet) -> bool:
        if packet.next_hop != self.location:
            return False
        if packet.destination == self.location:
            return False
        if self.location in packet.visited:
            return False
        return packet.hops_used < self.options.max_hops
