"""Application layer: periodic traffic generation and PDR bookkeeping.

Each node generates L_pkt-byte payloads at the configured throughput φ
(packets per second, equal for all nodes — Sec. 2.1.2, χ_app).  The paper's
PDR estimator (Eq. 6) is defined over source/destination pairs, so
destinations rotate round-robin over all other nodes: every pair (i, k)
carries φ/(N−1) payloads per second and accumulates the per-pair statistics
``N^(s)_{i→k}`` and ``N^(r)_{i→k}``.

Sequence numbers identify payloads; the application counts each payload at
most once no matter how many relayed copies arrive (``unique packets`` in
the paper's wording).  A uniformly random initial phase desynchronizes the
generators so that CSMA does not see pathological simultaneous arrivals at
t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.net.packet import Packet, _copy_counter, _new_record
from repro.net.stats import NodeStats


@dataclass(frozen=True)
class AppParameters:
    """χ_app: baseline power P_bl (mW), packet length L_pkt (bytes), and
    throughput φ (packets/second)."""

    baseline_mw: float = 0.1
    packet_bytes: int = 100
    throughput_pps: float = 10.0

    def __post_init__(self) -> None:
        if self.packet_bytes <= 0:
            raise ValueError("packet length must be positive")
        if self.throughput_pps <= 0:
            raise ValueError("throughput must be positive")
        if self.baseline_mw < 0:
            raise ValueError("baseline power cannot be negative")

    @property
    def period_s(self) -> float:
        return 1.0 / self.throughput_pps


class Application:
    """Traffic source/sink for one node."""

    def __init__(
        self,
        sim: Simulator,
        location: int,
        peers: List[int],
        params: AppParameters,
        stats: NodeStats,
        rng: RngStreams,
        routing_send,
        warmup_s: float = 0.0,
    ) -> None:
        if location in peers:
            raise ValueError("a node cannot be its own peer")
        self.sim = sim
        self.location = location
        self.peers = sorted(peers)
        self.params = params
        self.stats = stats
        self.rng = rng
        self.routing_send = routing_send
        self.warmup_s = warmup_s
        self._seq = 0
        self._dst_cursor = 0
        self._generation_stopped = False
        self._halted = False
        self._stop_at: Optional[float] = None
        # Read on every generation.
        self._period_s = params.period_s
        self._packet_bytes = params.packet_bytes
        if self.peers:
            phase = rng.uniform(f"app_phase/{location}", 0.0, params.period_s)
            sim.schedule(warmup_s + phase, self._generate)

    def stop_generation_at(self, t: float) -> None:
        """Stop creating new payloads at time t (lets in-flight packets
        drain before metrics are read, avoiding end-of-run truncation
        bias)."""
        self._stop_at = t

    def halt(self) -> None:
        """Permanently stop producing payloads (fault injection: a dead
        node creates no data).  Unlike :meth:`stop_generation_at`, this
        takes effect at the next scheduled generation regardless of its
        timestamp."""
        self._halted = True

    # -- traffic generation ---------------------------------------------------

    def _generate(self) -> None:
        now = self.sim.now
        if self._halted or (self._stop_at is not None and now >= self._stop_at):
            self._generation_stopped = True
            return
        destination = self.peers[self._dst_cursor % len(self.peers)]
        self._dst_cursor += 1
        seq = self._seq
        # The Packet record, built directly: AppParameters validated the
        # length, and every other field is a fresh payload's default.
        packet = _new_record(Packet, (
            self.location, seq, destination, self._packet_bytes, 0,
            frozenset(), None, now, None, next(_copy_counter),
        ))
        self._seq = seq + 1
        self.stats.record_sent(destination, t=now)
        self.routing_send(packet)
        self.sim.schedule(self._period_s, self._generate)

    # -- reception -----------------------------------------------------------------

    def on_receive(self, packet: Packet, rssi_dbm: float) -> None:
        """Called by the routing layer for every decoded copy; counts the
        payload once if this node is its destination."""
        if packet.destination != self.location:
            return
        self.stats.record_delivery(
            packet.origin,
            packet.uid,
            self.sim.now - packet.created_at,
            created_at=packet.created_at,
        )

    @property
    def packets_generated(self) -> int:
        return self._seq
