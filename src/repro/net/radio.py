"""Physical layer: broadcast radios over the shared body channel.

Reception follows the paper's link-budget condition — a packet from i is
decodable at j when ``Tx_dBm − PL(i,j,t) ≥ Rx_sensitivity`` — augmented
with the second-order effects the discrete-event simulator exists to
capture (Sec. 2.2):

* **Collisions.** Two transmissions overlapping in time interfere at a
  common receiver.  The stronger one survives if it exceeds the strongest
  interferer by the capture threshold (10 dB, typical of 2.4 GHz PHYs);
  otherwise both are lost at that receiver.
* **Half duplex.** A transmitting radio cannot receive; any packet arriving
  while a node transmits is lost at that node.
* **Energy.** A radio burns TX power for the packet airtime when sending
  and RX power for the airtime of every decodable arrival it locks onto
  (whether or not the packet survives interference).  Arrivals below
  sensitivity never wake the receive chain and cost nothing, matching the
  duty-cycled receiver model behind Eq. 3.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.channel.link import Channel
from repro.des.engine import Simulator
from repro.des.monitor import TraceLog
from repro.library.radios import RadioSpec, TxMode
from repro.net.packet import Packet
from repro.net.stats import NodeStats

#: SIR (dB) by which a packet must exceed the strongest overlapping
#: interferer to be captured.
CAPTURE_THRESHOLD_DB = 10.0


class RadioState(enum.Enum):
    SLEEP = "sleep"
    TX = "tx"
    RX = "rx"


class _Transmission:
    """Bookkeeping for one on-air packet copy."""

    __slots__ = (
        "sender",
        "packet",
        "start",
        "end",
        "rx_power",
        "interference",
        "plan",
    )

    def __init__(
        self,
        sender: int,
        packet: Packet,
        start: float,
        end: float,
        rx_power: Dict[int, float],
        plan: Optional["_FanoutPlan"] = None,
    ) -> None:
        self.sender = sender
        self.packet = packet
        self.start = start
        self.end = end
        #: received power at each other node, sampled at transmission start.
        self.rx_power = rx_power
        #: strongest interferer power seen at each receiver (−inf if none).
        self.interference: Dict[int, float] = {}
        #: the sender's fan-out plan on the fast path, looked up once at
        #: transmission start and reused for delivery (None on the
        #: reference path).
        self.plan = plan

    def note_interference(self, receiver: int, power_dbm: float) -> None:
        current = self.interference.get(receiver, -math.inf)
        if power_dbm > current:
            self.interference[receiver] = power_dbm


class _FanoutPlan:
    """Per-sender precomputed reception geometry (see DESIGN.md §8).

    Everything deterministic about one sender's broadcast fan-out is
    computed once per (sender, tx-mode) and reused for every packet, in
    receiver registration order: ``entries`` are the channel's rows
    ``(receiver, mean path loss, skip, pair key)``
    (:meth:`repro.channel.link.Channel.fanout_powers`; ``skip`` marks a
    pair that is provably unobservable), ``receivers`` the delivery rows
    ``(receiver, radio, sensitivity)``.  Plans are invalidated whenever a
    radio registers.
    """

    __slots__ = ("entries", "receivers")

    def __init__(
        self,
        entries: List[Tuple[int, float, bool, Tuple[int, int]]],
        receivers: List[Tuple[int, "Radio", float]],
    ) -> None:
        self.entries = entries
        self.receivers = receivers


class Medium:
    """The shared wireless medium connecting all radios of one network.

    ``faults`` is an optional fault-state object (see
    :class:`repro.faults.injector.FaultState`) consulted on the hot path
    through two narrow hooks: ``link_blocked(a, b)`` forces the received
    power of a blacked-out pair below sensitivity (asked only while
    ``any_link_blocked``), and a failed radio (``radio.failed``) neither
    senses, receives, nor reaches the medium.  Healthy networks pass
    ``None`` and pay nothing.

    ``carrier_sense_floor_dbm`` is the lowest carrier-sense threshold any
    MAC in this network will ever pass to :meth:`sensed_busy`.  Supplying
    it enables the dead-pair skip: a pair whose best-case received power
    (mean path loss minus the fading clip) is below
    ``min(sensitivity, floor) − CAPTURE_THRESHOLD_DB`` in *both*
    directions can never decode, never trips carrier sense, and can never
    decide a capture comparison, so its fading draw is provably
    unobservable and is skipped.  Left ``None`` (the default), no pair is
    ever skipped.

    ``use_fast_path=False`` selects the original per-receiver reference
    implementation; the fast path must produce bit-identical results, and
    the A/B tests (``tests/test_legacy_reference.py``) rely on both paths
    staying callable.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        trace: Optional[TraceLog] = None,
        faults=None,
        carrier_sense_floor_dbm: Optional[float] = None,
        use_fast_path: bool = True,
    ):
        self.sim = sim
        self.channel = channel
        # Explicit None check: TraceLog has __len__, so an (empty) enabled
        # log is falsy and `trace or ...` would silently discard it.
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.faults = faults
        self.carrier_sense_floor_dbm = carrier_sense_floor_dbm
        self.use_fast_path = use_fast_path
        self._radios: Dict[int, "Radio"] = {}
        self._active: List[_Transmission] = []
        self._plans: Dict[int, _FanoutPlan] = {}

    def register(self, radio: "Radio") -> None:
        if radio.location in self._radios:
            raise ValueError(f"two radios registered at location {radio.location}")
        self._radios[radio.location] = radio
        self._plans.clear()

    def _plan_for(self, radio: "Radio") -> _FanoutPlan:
        plan = self._plans.get(radio.location)
        if plan is None:
            plan = self._build_plan(radio)
            self._plans[radio.location] = plan
        return plan

    def _build_plan(self, radio: "Radio") -> _FanoutPlan:
        sender = radio.location
        channel = self.channel
        mean_pl = channel.mean_model.mean_path_loss
        gain = channel.max_fade_gain_db()
        cs_floor = self.carrier_sense_floor_dbm
        # Posture draws are time-keyed and shared across pairs, so no OU
        # draw is skippable while the posture process is active; without a
        # carrier-sense floor the skip is disabled outright.
        allow_skip = cs_floor is not None and channel.posture is None
        entries: List[Tuple[int, float, bool, Tuple[int, int]]] = []
        receivers: List[Tuple[int, "Radio", float]] = []
        for loc, other in self._radios.items():
            if loc == sender:
                continue
            mean = mean_pl(sender, loc)
            skip = False
            if allow_skip:
                # Dead in the sender→receiver direction...
                floor_out = min(other.spec.sensitivity_dbm, cs_floor)
                dead_out = (
                    radio.tx_mode.output_dbm - mean + gain
                    < floor_out - CAPTURE_THRESHOLD_DB
                )
                # ...and in the reverse direction, because the OU stream
                # is shared per unordered pair: skipping a draw for one
                # direction must not shift draws the other direction
                # would observe.
                floor_back = min(radio.spec.sensitivity_dbm, cs_floor)
                dead_back = (
                    other.tx_mode.output_dbm - mean_pl(loc, sender) + gain
                    < floor_back - CAPTURE_THRESHOLD_DB
                )
                skip = dead_out and dead_back
            key = (sender, loc) if sender <= loc else (loc, sender)
            entries.append((loc, mean, skip, key))
            receivers.append((loc, other, other.spec.sensitivity_dbm))
        return _FanoutPlan(entries, receivers)

    @property
    def radios(self) -> Dict[int, "Radio"]:
        return dict(self._radios)

    # -- carrier sensing --------------------------------------------------------

    def sensed_busy(self, location: int, threshold_dbm: float) -> bool:
        """Whether a node at ``location`` currently senses energy above its
        carrier-sense threshold (uses powers sampled at each transmission's
        start; the fading coherence time far exceeds packet airtimes)."""
        if self._radios[location].failed:
            return False  # a dark radio senses nothing
        for tx in self._active:
            if tx.sender == location:
                return True
            power = tx.rx_power.get(location, -math.inf)
            if power >= threshold_dbm:
                return True
        return False

    # -- transmission lifecycle ----------------------------------------------------

    def begin_transmission(self, radio: "Radio", packet: Packet) -> float:
        """Start broadcasting ``packet`` from ``radio``; returns airtime."""
        now = self.sim.now
        airtime = radio.airtime_s(packet.length_bytes)
        faults = self.faults
        # With no link blacked out, link_blocked answers False for every
        # pair, so it is not asked at all.
        blocked = (
            faults.link_blocked
            if faults is not None and faults.any_link_blocked
            else None
        )
        sender = radio.location
        if self.use_fast_path:
            plan = self._plans.get(sender) or self._plan_for(radio)
            rx_power = self.channel.fanout_powers(
                sender, radio.tx_mode.output_dbm, plan.entries, now, blocked
            )
        else:
            plan = None
            # Reference path: per-receiver link-budget derivation, kept
            # callable for A/B bit-identity tests.
            rx_power = {}
            for loc in self._radios:
                if loc == sender:
                    continue
                if blocked is not None and blocked(sender, loc):
                    # Blackout episode: the pair is in deep shadowing,
                    # below sensitivity in both directions.
                    rx_power[loc] = -math.inf
                    continue
                rx_power[loc] = self.channel.received_power_dbm(
                    radio.tx_mode.output_dbm, sender, loc, now
                )
        tx = _Transmission(sender, packet, now, now + airtime, rx_power, plan)

        # Mutual interference with every overlapping transmission.
        for other in self._active:
            other_rx = other.rx_power
            for loc in self._radios:
                if loc != sender and loc != other.sender:
                    other.note_interference(loc, rx_power.get(loc, -math.inf))
                    tx.note_interference(loc, other_rx.get(loc, -math.inf))
            # Half duplex: each transmitter destroys the other's copy at
            # its own location.
            other.note_interference(sender, math.inf)
            tx.note_interference(other.sender, math.inf)

        self._active.append(tx)
        if self.trace.enabled:
            self.trace.log(now, "phy_tx_start", sender=sender, packet=repr(packet))
        self.sim.schedule(airtime, self._finish_transmission, tx)
        return airtime

    def _finish_transmission(self, tx: _Transmission) -> None:
        """End ``tx``: free the sender, then resolve decodability and
        capture at every receiver, in registration order.

        The fast path walks the sender's plan and makes the reference
        loop's comparisons on the same floats, so it is decision for
        decision the same delivery."""
        self._active.remove(tx)
        self._radios[tx.sender]._transmission_ended(tx)
        plan = tx.plan
        if plan is None:
            self._deliver_reference(tx)
            return
        duration = tx.end - tx.start
        rx_power = tx.rx_power
        interf = tx.interference
        packet = tx.packet
        tracing = self.trace.enabled
        for loc, radio, sensitivity in plan.receivers:
            if radio.failed:
                # A dark radio never wakes its receive chain: no RX
                # energy, no delivery.
                radio.stats.fault_rx_suppressed += 1
                continue
            power = rx_power[loc]
            stats = radio.stats
            if power < sensitivity:
                stats.below_sensitivity += 1
                continue
            # The receive chain locked onto this arrival: pay RX energy.
            stats.rx_seconds += duration
            if interf:
                interference = interf.get(loc, -math.inf)
                if (
                    interference > -math.inf
                    and power - interference < CAPTURE_THRESHOLD_DB
                ):
                    stats.collisions_seen += 1
                    if tracing:
                        self.trace.log(
                            self.sim.now, "phy_collision", receiver=loc,
                            sender=tx.sender,
                        )
                    continue
            stats.receptions += 1
            if tracing:
                self.trace.log(
                    self.sim.now, "phy_rx", receiver=loc, sender=tx.sender,
                    packet=repr(packet),
                )
            receive = radio.on_receive
            if receive is not None:
                receive(packet, power)

    def _deliver_reference(self, tx: _Transmission) -> None:
        """Original per-receiver decodability/capture resolution."""
        duration = tx.end - tx.start
        for loc, radio in self._radios.items():
            if loc == tx.sender:
                continue
            if radio.failed:
                # A dark radio never wakes its receive chain: no RX
                # energy, no delivery.
                radio.stats.fault_rx_suppressed += 1
                continue
            power = tx.rx_power[loc]
            if power < radio.spec.sensitivity_dbm:
                radio.stats.below_sensitivity += 1
                continue
            # The receive chain locked onto this arrival: pay RX energy.
            radio.stats.rx_seconds += duration
            interference = tx.interference.get(loc, -math.inf)
            if interference > -math.inf and power - interference < CAPTURE_THRESHOLD_DB:
                radio.stats.collisions_seen += 1
                self.trace.log(
                    self.sim.now, "phy_collision", receiver=loc, sender=tx.sender
                )
                continue
            radio.stats.receptions += 1
            self.trace.log(
                self.sim.now, "phy_rx", receiver=loc, sender=tx.sender,
                packet=repr(tx.packet),
            )
            radio.deliver(tx.packet, power)


class Radio:
    """One node's radio front end.

    The MAC layer calls :meth:`transmit`; the medium hands successfully
    decoded packets up the stack through ``on_receive`` (the reference
    delivery loop through :meth:`deliver`).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        location: int,
        spec: RadioSpec,
        tx_mode: TxMode,
        stats: NodeStats,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.location = location
        self.spec = spec
        self.tx_mode = tx_mode
        self.stats = stats
        self.state = RadioState.SLEEP
        #: Fault-injection switch: a failed radio is electrically dark —
        #: it neither transmits onto the medium, receives, senses, nor
        #: draws radio energy.  Toggled by the fault injector only.
        self.failed = False
        self.on_receive: Optional[Callable[[Packet, float], None]] = None
        self.on_tx_done: Optional[Callable[[Packet], None]] = None
        #: Packet length (bytes) -> airtime (s), filled on first use.
        self._airtimes: Dict[int, float] = {}
        medium.register(self)

    @property
    def is_transmitting(self) -> bool:
        return self.state is RadioState.TX

    def airtime_s(self, length_bytes: int) -> float:
        """Airtime of a ``length_bytes`` packet on this radio, computed
        once per length."""
        airtime = self._airtimes.get(length_bytes)
        if airtime is None:
            airtime = self.spec.packet_airtime_s(length_bytes)
            self._airtimes[length_bytes] = airtime
        return airtime

    # -- fault hooks ------------------------------------------------------------

    def fail(self) -> None:
        """Take the radio down (fault injection).  A transmission already
        on the air completes — airtimes are milliseconds, far below any
        meaningful fault timescale — but nothing new reaches the medium
        and nothing is received until :meth:`recover`."""
        self.failed = True

    def recover(self) -> None:
        """Bring the radio back up after a transient outage."""
        self.failed = False

    def transmit(self, packet: Packet) -> float:
        """Broadcast a packet copy; returns its airtime in seconds.

        The MAC layer must not call this while a transmission is in flight
        (half duplex is a protocol invariant, so violating it is a bug, not
        a simulated loss).
        """
        if self.state is RadioState.TX:
            raise RuntimeError(
                f"radio at location {self.location} is already transmitting"
            )
        if self.failed:
            # The MAC's state machine still sees its transmit attempt
            # complete after the nominal airtime — keeping TDMA slots and
            # CSMA cycles deterministic through an outage — but the packet
            # never reaches the medium and no energy is drawn.
            airtime = self.airtime_s(packet.length_bytes)
            self.state = RadioState.TX
            self.stats.fault_tx_suppressed += 1
            self.sim.schedule(airtime, self._void_transmission_ended, packet)
            return airtime
        self.state = RadioState.TX
        airtime = self.medium.begin_transmission(self, packet)
        self.stats.transmissions += 1
        self.stats.tx_seconds += airtime
        return airtime

    def _transmission_ended(self, tx) -> None:
        self.state = RadioState.SLEEP
        if self.on_tx_done is not None:
            self.on_tx_done(tx.packet)

    def _void_transmission_ended(self, packet: Packet) -> None:
        """Tail of a transmission suppressed by a radio fault."""
        self.state = RadioState.SLEEP
        if self.on_tx_done is not None:
            self.on_tx_done(packet)

    def deliver(self, packet: Packet, rssi_dbm: float) -> None:
        if self.on_receive is not None:
            self.on_receive(packet, rssi_dbm)
