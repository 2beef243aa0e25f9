"""Packets and their routing metadata.

A packet models one application payload travelling through the network.
The routing-relevant fields mirror Sec. 2.1.2: mesh flooding increments a
hop counter on every relay and carries the history of visited nodes, which
together bound the total number of transmissions per packet (N_reTx).

Packets are identified by ``(origin, seq)``; relayed copies share that
identity, so the application layer counts *unique* deliveries as required
by the PDR estimator (Eq. 6).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import FrozenSet, Optional

_copy_counter = itertools.count()
_new_record = tuple.__new__

_PacketRecord = namedtuple(
    "_PacketRecord",
    (
        "origin", "seq", "destination", "length_bytes", "hops_used",
        "visited", "relayer", "created_at", "next_hop", "copy_id",
    ),
)


class Packet(_PacketRecord):
    """One (possibly relayed) copy of an application packet.

    An immutable record: assigning a field raises ``AttributeError``, and
    every change of routing state is a new copy.  The simulator builds
    one copy per transmission, so the record is a tuple — a frozen
    dataclass cost two to three times as much per copy.

    Attributes
    ----------
    origin:
        Location index of the node that generated the payload.
    seq:
        Per-origin sequence number (application layer, Sec. 2.1.2).
    destination:
        Location index of the final destination.
    length_bytes:
        L — physical-layer packet length, sets the airtime Tpkt = 8L/BR.
    hops_used:
        Number of relays this copy has undergone (0 for the original
        transmission from the origin).
    visited:
        History of nodes this copy has been relayed by (including the
        origin); a node never relays a copy whose history contains itself.
    relayer:
        The node currently transmitting this copy (origin for hops_used=0).
    created_at:
        Simulation time the payload was generated (for latency stats).
    next_hop:
        Intended receiver of this copy in point-to-point forwarding (None
        for broadcast schemes: star and controlled flooding).
    copy_id:
        Unique id of this physical copy, used only for tracing; drawn from
        a process-wide counter when not given.
    """

    __slots__ = ()

    def __new__(
        cls,
        origin: int,
        seq: int,
        destination: int,
        length_bytes: int,
        hops_used: int = 0,
        visited: FrozenSet[int] = frozenset(),
        relayer: Optional[int] = None,
        created_at: float = 0.0,
        next_hop: Optional[int] = None,
        copy_id: Optional[int] = None,
    ) -> "Packet":
        if length_bytes <= 0:
            raise ValueError("packet length must be positive")
        if hops_used < 0:
            raise ValueError("hop count cannot be negative")
        if copy_id is None:
            copy_id = next(_copy_counter)
        return _new_record(cls, (
            origin, seq, destination, length_bytes, hops_used, visited,
            relayer, created_at, next_hop, copy_id,
        ))

    @property
    def uid(self) -> tuple:
        """Application-level identity shared by all copies of a payload."""
        return (self.origin, self.seq)

    # The copy methods below build the record directly: their fields
    # come from a validated packet and cannot fail validation.

    def relayed_by(self, node: int) -> "Packet":
        """A new copy as rebroadcast by ``node``: hop counter incremented,
        node appended to the visited history."""
        (origin, seq, destination, length, hops, visited, _relayer,
         created_at, next_hop, _copy_id) = self
        return _new_record(Packet, (
            origin, seq, destination, length, hops + 1, visited | {node},
            node, created_at, next_hop, next(_copy_counter),
        ))

    def originated(self) -> "Packet":
        """The original transmission copy: origin in the visited set and
        marked as the current relayer."""
        (origin, seq, destination, length, hops, visited, _relayer,
         created_at, next_hop, _copy_id) = self
        return _new_record(Packet, (
            origin, seq, destination, length, hops, visited | {origin},
            origin, created_at, next_hop, next(_copy_counter),
        ))

    def addressed_to(self, next_hop: Optional[int]) -> "Packet":
        """This copy re-addressed to ``next_hop`` (point-to-point
        forwarding).  It is the same physical copy, so it keeps its
        ``copy_id``."""
        return self._replace(next_hop=next_hop)

    def __repr__(self) -> str:
        return (
            f"Packet({self.origin}->{self.destination} seq={self.seq} "
            f"hops={self.hops_used} via={self.relayer})"
        )
