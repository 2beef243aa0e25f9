"""Common MAC machinery: the transmit queue (B_MAC) and the MAC interface.

A MAC owns a bounded FIFO of packet copies awaiting transmission.  The
buffer size is the χ_MAC parameter B_MAC; arrivals to a full buffer are
dropped and counted (a real loss mechanism the coarse analytical model
cannot see, and one of the reasons simulation is needed for PDR).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.des.engine import Simulator
from repro.des.rng import RngStreams
from repro.library.mac_options import MacOptions
from repro.net.packet import Packet
from repro.net.radio import Radio
from repro.net.stats import NodeStats


class MacBase:
    """Shared queueing behaviour for CSMA and TDMA MACs.

    Subclasses implement :meth:`_kick`, which must arrange for the head of
    the queue to eventually be transmitted, and are driven by the radio's
    transmission-complete callback through :meth:`_on_tx_done`.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        options: MacOptions,
        stats: NodeStats,
        rng: RngStreams,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.options = options
        self.stats = stats
        self.rng = rng
        self.queue: Deque[Packet] = deque()
        self._in_flight: Optional[Packet] = None
        # B_MAC, read on every enqueue.
        self._buffer_size = options.buffer_size
        radio.on_tx_done = self._on_tx_done

    @property
    def location(self) -> int:
        return self.radio.location

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet copy for transmission.

        Returns False (and counts a buffer drop) when B_MAC is exceeded.
        """
        if len(self.queue) >= self._buffer_size:
            self.stats.buffer_drops += 1
            return False
        self.queue.append(packet)
        self._kick()
        return True

    def _start_transmission(self) -> None:
        """Pop the queue head and put it on the air."""
        if self._in_flight is not None:
            raise RuntimeError(
                f"MAC at {self.location} started a transmission while one is in flight"
            )
        packet = self.queue.popleft()
        self._in_flight = packet
        self.radio.transmit(packet)

    def _on_tx_done(self, packet: Packet) -> None:
        self._in_flight = None
        self._after_tx()

    # -- subclass hooks ----------------------------------------------------------

    def _kick(self) -> None:
        """Called whenever new work may be available."""
        raise NotImplementedError

    def _after_tx(self) -> None:
        """Called when a transmission completes; default: look for more."""
        self._kick()
