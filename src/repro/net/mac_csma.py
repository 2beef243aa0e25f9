"""Non-persistent CSMA, mirroring Castalia's TunableMAC configuration.

Protocol (Sec. 2.1.2 and 4.1): before transmitting, the node senses the
medium.  If idle, it transmits immediately.  If busy, *non-persistent*
access backs off for a random time drawn uniformly from the configured
window and then senses again (rather than continuously monitoring for the
idle transition, which is what makes the scheme collision-thrifty at the
price of extra latency).  Collisions still happen when two nodes sense an
idle medium within each other's vulnerable window or are hidden from each
other by the body (deep around-torso path loss below the carrier-sense
threshold) — both effects emerge naturally from the PHY model.

The persistent access mode (AM in χ_MAC) is also implemented: on busy
medium the node re-senses after a minimal spin interval, approximating
1-persistent listening within the event-driven framework.
"""

from __future__ import annotations

from typing import Optional

from repro.des.engine import Event, Simulator
from repro.des.rng import RngStreams
from repro.library.mac_options import CsmaAccessMode, MacOptions
from repro.net.mac_base import MacBase
from repro.net.radio import Radio
from repro.net.stats import NodeStats

#: Re-sense interval approximating continuous listening in persistent mode.
PERSISTENT_SPIN_S = 0.2e-3


class CsmaMac(MacBase):
    """Non-persistent (or persistent) CSMA MAC."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        options: MacOptions,
        stats: NodeStats,
        rng: RngStreams,
    ) -> None:
        super().__init__(sim, radio, options, stats, rng)
        #: The scheduled sensing attempt, cleared when it fires; never
        #: cancelled, so a handle that is set is pending.
        self._pending_attempt: Optional[Event] = None
        self.backoffs = 0
        # Stream handle cached once: the backoff draw is on the contention
        # hot path and the name-keyed registry lookup is not.
        self._backoff_stream = rng.stream(f"csma_backoff/{self.location}")

    def _kick(self) -> None:
        if not self.queue or self._in_flight is not None:
            return
        if self._pending_attempt is not None:
            return  # an attempt is already scheduled
        self._pending_attempt = self.sim.schedule(0.0, self._attempt)

    def _attempt(self) -> None:
        self._pending_attempt = None
        if not self.queue or self._in_flight is not None:
            return
        busy = self.radio.medium.sensed_busy(
            self.location, self.options.carrier_sense_dbm
        )
        if not busy:
            self._start_transmission()
            return
        self.backoffs += 1
        if self.options.access_mode is CsmaAccessMode.NON_PERSISTENT:
            delay = float(
                self._backoff_stream.uniform(
                    self.options.csma_backoff_min_s,
                    self.options.csma_backoff_max_s,
                )
            )
        else:
            delay = PERSISTENT_SPIN_S
        self._pending_attempt = self.sim.schedule(delay, self._attempt)
