"""Mesh routing: controlled flooding with hop counter and visited history.

The paper opts for controlled flooding (Sec. 2.1.2) as the mesh scheme:
every node rebroadcasts any received packet copy provided that

1. it is not the copy's final destination,
2. it does not already appear in the copy's visited history (the payload
   carries the list of nodes reached, preventing revisits), and
3. the copy's hop counter is below N_hops.

With full connectivity and N_hops = 2 this produces exactly
``N_reTx = 1 + (N−2)² = N² − 4N + 5`` transmissions per payload — the
origin's broadcast, a first relay ring of N−2 copies (everyone but origin
and destination), and (N−2)(N−3) second-ring copies — matching the paper's
expression used in the mesh branch of Eqs. 5 and 9.

A small random forwarding jitter decorrelates the relays that a single
broadcast triggers simultaneously; without it, CSMA relays would all sense
an idle medium at the same instant and collide deterministically.  Real
flooding implementations apply the same jitter for the same reason.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.library.mac_options import RoutingOptions
from repro.net.mac_base import MacBase
from repro.net.packet import Packet
from repro.net.stats import NodeStats

#: Upper edge of the uniform forwarding jitter window.
FLOOD_JITTER_MAX_S = 5e-3


class FloodRouting:
    """Routing layer for one node in a controlled-flooding mesh."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacBase,
        options: RoutingOptions,
        stats: NodeStats,
        rng: RngStreams,
        jitter_max_s: float = FLOOD_JITTER_MAX_S,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.options = options
        self.stats = stats
        self.rng = rng
        self.jitter_max_s = jitter_max_s
        self.deliver_up: Optional[Callable[[Packet, float], None]] = None
        # Fixed at construction, as in StarRouting; and the jitter stream
        # handle is cached once, as CSMA caches its backoff stream, so a
        # relay draws without a name lookup.
        self._location = mac.location
        if jitter_max_s > 0:
            self._jitter_stream = rng.stream(f"flood_jitter/{self._location}")

    @property
    def location(self) -> int:
        return self._location

    # -- downward path -----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit a freshly generated payload (hop 0, history = {origin})."""
        self.mac.enqueue(packet.originated())

    # -- upward path ---------------------------------------------------------------

    def on_receive(self, packet: Packet, rssi_dbm: float) -> None:
        if self.deliver_up is not None:
            self.deliver_up(packet, rssi_dbm)
        if not self._should_relay(packet):
            return
        copy = packet.relayed_by(self._location)
        self.stats.relays += 1
        if self.jitter_max_s > 0:
            delay = float(self._jitter_stream.uniform(0.0, self.jitter_max_s))
            self.sim.schedule(delay, self.mac.enqueue, copy)
        else:
            self.mac.enqueue(copy)

    def _should_relay(self, packet: Packet) -> bool:
        """The three controlled-flooding conditions."""
        location = self._location
        if packet.destination == location:
            return False
        if location in packet.visited:
            return False
        return packet.hops_used < self.options.max_hops
