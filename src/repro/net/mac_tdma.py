"""Round-robin TDMA with fixed-duration slots.

The paper's design example (Sec. 4.1) assigns 1 ms slots equally to all
nodes in round-robin fashion.  The schedule assumes a globally synchronized
clock (the paper's Remark notes that maintaining it is the protocol's main
practical cost); the simulator grants perfect synchronization, so TDMA
never collides — its losses come only from the channel, exactly the
deterministic-communication behaviour that makes TDMA attractive for
reliability-critical configurations.

A node may transmit one queued packet per owned slot; the packet airtime
must fit within a slot (checked at construction — with Table 1's CC2650 and
100-byte packets, Tpkt ≈ 0.78 ms < 1 ms).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.des.engine import Event, Simulator
from repro.des.rng import RngStreams
from repro.library.mac_options import MacOptions
from repro.net.mac_base import MacBase
from repro.net.radio import Radio
from repro.net.stats import NodeStats


class TdmaMac(MacBase):
    """TDMA MAC: transmit only at the start of owned slots.

    Parameters
    ----------
    slot_index:
        This node's position in the frame (0-based).
    num_slots:
        Frame length in slots (= number of nodes in the network).
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        options: MacOptions,
        stats: NodeStats,
        rng: RngStreams,
        slot_index: int,
        num_slots: int,
    ) -> None:
        super().__init__(sim, radio, options, stats, rng)
        if not (0 <= slot_index < num_slots):
            raise ValueError(
                f"slot index {slot_index} out of range for {num_slots} slots"
            )
        self.slot_index = slot_index
        self.num_slots = num_slots
        #: The scheduled slot start, cleared when it fires; never
        #: cancelled, so a handle that is set is pending.
        self._slot_event: Optional[Event] = None
        # The slot grid, fixed at construction.
        self._offset = slot_index * options.slot_s
        self._frame = num_slots * options.slot_s

    @property
    def frame_s(self) -> float:
        return self._frame

    def next_own_slot_time(self, now: float) -> float:
        """Start time of the next slot owned by this node, strictly after
        (or at) ``now`` with a small epsilon guard so that a packet queued
        exactly on a slot boundary still uses that slot."""
        offset = self._offset
        frame = self._frame
        k = math.ceil((now - offset - 1e-12) / frame)
        t = offset + max(0, k) * frame
        if t < now - 1e-12:
            t += frame
        return t

    def _kick(self) -> None:
        if not self.queue or self._in_flight is not None:
            return
        if self._slot_event is not None:
            return
        t = self.next_own_slot_time(self.sim.now)
        self._slot_event = self.sim.schedule_at(t, self._slot_start)

    def _slot_start(self) -> None:
        self._slot_event = None
        if not self.queue or self._in_flight is not None:
            return
        packet = self.queue[0]
        airtime = self.radio.airtime_s(packet.length_bytes)
        if airtime > self.options.slot_s + 1e-12:
            raise ValueError(
                f"packet airtime {airtime * 1e3:.3f} ms exceeds the TDMA slot "
                f"of {self.options.slot_s * 1e3:.3f} ms"
            )
        self._start_transmission()
