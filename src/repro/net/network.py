"""Whole-network assembly and simulation entry points.

:class:`Network` builds a complete Human Intranet simulation — channel,
medium, and one :class:`repro.net.node.Node` per occupied location — from
explicit component choices, runs it for T_sim seconds, and reports a
:class:`SimulationOutcome` with the paper's metrics (Eqs. 4, 6, 7).  A
fault world is attached to a network at its current clock
(:meth:`Network.attach_faults`): at t = 0 when the network is built with
one, or mid-run on a *branch* — a copy of a healthy network paused just
before the world's first fault (:meth:`Network.pause_before`,
:meth:`Network.snapshot`, :meth:`Network.restore`).

:func:`simulate_configuration` adds the paper's averaging protocol
(Sec. 4: metrics averaged over several runs to mitigate randomness) by
running independent replicates with disjoint random streams.
:meth:`ReplicateJob.run_worlds` runs one replicate under several fault
worlds, simulating their common pre-fault prefix once (DESIGN.md §7).
"""

from __future__ import annotations

import copyreg
import functools
import gc
import io
import itertools
import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.channel.body import BodyModel
from repro.channel.fading import FadingParameters
from repro.channel.link import Channel
from repro.channel.pathloss import PathLossParameters
from repro.channel.posture import PostureParameters
from repro.des.engine import Simulator
from repro.des.monitor import TraceLog
from repro.des.rng import RngStreams, generator_from_state
from repro.faults.injector import FaultInjector, first_event_s
from repro.library.batteries import COORDINATOR_PACK, CR2032, BatterySpec
from repro.library.mac_options import MacOptions, RoutingKind, RoutingOptions
from repro.library.radios import RadioSpec, TxMode
from repro.net.app import AppParameters
from repro.net.node import Node
from repro.net.radio import Medium
from repro.net.stats import NetworkStats
from repro.obs import runtime as obs_runtime


@dataclass
class SimulationOutcome:
    """Metrics extracted from one simulation run (or replicate average).

    ``pdr`` is the network PDR of Eq. 7 in [0, 1]; ``worst_power_mw`` is
    the maximum average power among battery-limited (non-coordinator)
    nodes, the quantity Algorithm 1 compares with its MILP estimate;
    ``nlt_days`` is Eq. 4 evaluated with the node battery.
    """

    pdr: float
    node_pdrs: Dict[int, float]
    node_powers_mw: Dict[int, float]
    worst_power_mw: float
    nlt_days: float
    horizon_s: float
    totals: Dict[str, int] = field(default_factory=dict)
    events_executed: int = 0
    replicates: int = 1
    #: Mean end-to-end delivery latency over all delivered payloads (s);
    #: 0.0 when nothing was delivered.  Star pays the coordinator relay,
    #: TDMA pays slot waiting, CSMA pays backoffs — a secondary metric the
    #: paper does not evaluate but any deployment asks about.
    mean_latency_s: float = 0.0
    #: Time-resolved network delivery ratio, ``((bin_end_s, pdr-or-None),
    #: ...)``, keyed by payload *generation* time — populated only for
    #: fault-injected runs (see :meth:`repro.net.stats.NetworkStats.
    #: windowed_pdr`); empty for healthy runs.
    windowed_pdr: Tuple[Tuple[float, Optional[float]], ...] = ()

    @property
    def pdr_percent(self) -> float:
        return 100.0 * self.pdr


class Network:
    """A fully wired Human Intranet instance.

    Parameters
    ----------
    placement:
        Occupied body locations (the ν vector's support).
    radio_spec, tx_mode:
        χ_rd: the radio chip and its selected transmit operating point.
    mac_options, routing_options, app_params:
        χ_MAC, χ_rt, χ_app.
    battery:
        Energy store of battery-limited nodes (CR2032 in the paper).
    seed, replicate:
        Random-stream identity for this run.
    body, pathloss_params, fading_params:
        Channel model configuration (defaults reproduce the paper setup).
    trace:
        Enable structured event tracing (tests/debugging only).
    fault_scenario:
        Optional :class:`repro.faults.model.FaultScenario`, attached at
        t = 0 through :meth:`attach_faults` once the healthy network is
        built.  ``None`` (the default) builds the healthy network with
        zero fault machinery on any hot path.
    """

    #: Generation-time bin width for fault-injected runs (seconds).  One
    #: second resolves recovery transients at the paper's φ = 10 pkt/s
    #: (≈ 10 payloads per node per bin) without ballooning the outcome.
    FAULT_WINDOW_S = 1.0

    def __init__(
        self,
        placement: Sequence[int],
        radio_spec: RadioSpec,
        tx_mode: TxMode,
        mac_options: MacOptions,
        routing_options: RoutingOptions,
        app_params: AppParameters,
        battery: BatterySpec = CR2032,
        coordinator_battery: BatterySpec = COORDINATOR_PACK,
        seed: int = 0,
        replicate: int = 0,
        body: Optional[BodyModel] = None,
        pathloss_params: Optional[PathLossParameters] = None,
        fading_params: Optional[FadingParameters] = None,
        posture_params: Optional[PostureParameters] = None,
        trace: bool = False,
        fault_scenario=None,
    ) -> None:
        placement = tuple(sorted(set(placement)))
        if len(placement) < 2:
            raise ValueError("a network needs at least two nodes")
        if routing_options.kind is RoutingKind.STAR and (
            routing_options.coordinator not in placement
        ):
            raise ValueError(
                f"star coordinator location {routing_options.coordinator} "
                f"is not part of the placement {placement}"
            )
        self.placement = placement
        self.radio_spec = radio_spec
        self.tx_mode = tx_mode
        self.mac_options = mac_options
        self.routing_options = routing_options
        self.app_params = app_params
        self.battery = battery
        self.coordinator_battery = coordinator_battery

        self.sim = Simulator()
        self.rng = RngStreams(seed=seed, replicate=replicate)
        self.trace = TraceLog(enabled=trace)
        channel = Channel(
            self.rng, body=body, pathloss_params=pathloss_params,
            fading_params=fading_params, posture_params=posture_params,
        )
        self.channel = channel

        self.fault_scenario = None
        self._fault_injector = None
        self.fault_state = None

        self.medium = Medium(
            self.sim, channel, self.trace,
            # The lowest threshold any MAC will carrier-sense with; lets
            # the medium prove which link pairs are never observable and
            # skip their fading draws (see Medium docstring).
            carrier_sense_floor_dbm=mac_options.carrier_sense_dbm,
        )
        self.stats = NetworkStats(list(placement))

        self.nodes: Dict[int, Node] = {}
        for slot_index, loc in enumerate(placement):
            peers = [p for p in placement if p != loc]
            self.nodes[loc] = Node(
                sim=self.sim,
                medium=self.medium,
                location=loc,
                peers=peers,
                radio_spec=radio_spec,
                tx_mode=tx_mode,
                mac_options=mac_options,
                routing_options=routing_options,
                app_params=app_params,
                stats=self.stats.node(loc),
                rng=self.rng,
                slot_index=slot_index,
                num_slots=len(placement),
            )

        if fault_scenario is not None:
            self.attach_faults(fault_scenario)

    def attach_faults(self, fault_scenario) -> None:
        """Attach a fault world at the current clock.

        The world's faults that apply to this placement are compiled into
        simulator events at their absolute times
        (:meth:`repro.faults.injector.FaultInjector.install`), so the
        network must be paused before the first of them.  The outcome
        then carries a ``windowed_pdr`` series, whose bins count payloads
        by generation time from t = 0: a network that has already run
        must have had ``stats.enable_windows`` on from the start.  A world
        whose faults all miss the placement leaves the network healthy.
        """
        if self._fault_injector is not None:
            raise ValueError("a network carries one fault world")
        self.fault_scenario = fault_scenario
        if not fault_scenario.applicable(self.placement):
            return
        if self.stats.window_s is None:
            if self.sim.events_executed:
                raise ValueError(
                    "windowed PDR bins payloads from t = 0: enable windows "
                    "before the run starts to attach faults mid-run"
                )
            self.stats.enable_windows(self.FAULT_WINDOW_S)
        self._fault_injector = FaultInjector(self, fault_scenario)
        self.fault_state = self.medium.faults = self._fault_injector.state
        self._fault_injector.install()

    # -- pausing and copying (branches, DESIGN.md §7) -------------------------

    def pause_before(
        self, t: float, tsim_s: float, drain_s: float = 0.5
    ) -> None:
        """Simulate every event before ``t`` and stop, ready for a fault
        world whose first event fires at ``t`` (at most to the end of the
        run, ``tsim_s + drain_s``).  :meth:`run` continues from here."""
        self._stop_generation_at(tsim_s)
        self.sim.run(
            until=min(math.nextafter(t, -math.inf), tsim_s + drain_s)
        )

    def snapshot(self) -> bytes:
        """This paused network as bytes that :meth:`restore` turns into an
        independent copy, sharing no mutable object — no random stream,
        event or counter — with this network or with any other copy.

        Pickling reads every instance's ``__dict__``, which on CPython
        3.11 leaves this network's attribute access slower for the rest
        of its run (the remaining events ran ~30% slower), so a caller
        that keeps simulating continues on a restored copy instead.
        """
        buffer = io.BytesIO()
        _SnapshotPickler(buffer).dump(self)
        return buffer.getvalue()

    @staticmethod
    def restore(snapshot: bytes) -> "Network":
        """A fresh copy of the network a :meth:`snapshot` was taken of."""
        return pickle.loads(snapshot)

    def _stop_generation_at(self, tsim_s: float) -> None:
        for node in self.nodes.values():
            node.app.stop_generation_at(tsim_s)

    @property
    def coordinator_locations(self) -> Set[int]:
        """Locations excluded from the lifetime minimum (Eq. 4): the star
        coordinator has a larger energy store (Sec. 4.1)."""
        if self.routing_options.kind is RoutingKind.STAR:
            return {self.routing_options.coordinator}
        return set()

    def run(self, tsim_s: float, drain_s: float = 0.5) -> SimulationOutcome:
        """Simulate for ``tsim_s`` seconds and extract the metrics.

        Traffic generation stops at ``tsim_s`` and the network is given
        ``drain_s`` extra seconds to flush in-flight packets, so the PDR
        estimator is not biased by payloads truncated at the horizon.
        Power is normalized over the generation horizon.  A paused
        network (:meth:`pause_before`) runs on from its clock; the
        outcome's ``events_executed`` counts the whole run either way.
        """
        if tsim_s <= 0:
            raise ValueError("simulation horizon must be positive")
        self._stop_generation_at(tsim_s)
        self.sim.run(until=tsim_s + drain_s)

        node_pdrs = {loc: self.stats.node_pdr(loc) for loc in self.placement}
        exclude = self.coordinator_locations
        tx_mw = self.tx_mode.power_mw
        rx_mw = self.radio_spec.rx_power_mw
        baseline = self.app_params.baseline_mw
        node_powers = {
            loc: self.stats.node_power_mw(loc, tsim_s, tx_mw, rx_mw, baseline)
            for loc in self.placement
        }
        windowed: Tuple[Tuple[float, Optional[float]], ...] = ()
        if self.fault_state is not None:
            # Battery-drain faults deplete energy faster without changing
            # traffic: fold them in as an equivalent average-power scaling.
            node_powers = {
                loc: power * self.fault_state.power_scale(loc, tsim_s)
                for loc, power in node_powers.items()
            }
            windowed = self.stats.windowed_pdr(tsim_s)
        candidates = [loc for loc in self.placement if loc not in exclude]
        if not candidates:
            raise ValueError("no battery-limited nodes")
        worst = max(node_powers[loc] for loc in candidates)
        nlt_days = self.battery.lifetime_days(worst)
        deliveries = sum(s.deliveries for s in self.stats.nodes.values())
        latency_total = sum(s.latency_sum for s in self.stats.nodes.values())
        obs = obs_runtime.get_active()
        if obs.tracing:
            # Per-node energy trajectory at teardown (Fitzgerald et al.'s
            # lifetime view): average power per location over the horizon.
            obs.event(
                "des.teardown",
                placement=list(self.placement),
                events=self.sim.events_executed,
                node_powers_mw={str(k): v for k, v in node_powers.items()},
                node_pdrs={str(k): v for k, v in node_pdrs.items()},
                worst_power_mw=worst,
                nlt_days=nlt_days,
                fault_scenario=(
                    self.fault_scenario.name
                    if self.fault_scenario is not None
                    else None
                ),
            )
        return SimulationOutcome(
            pdr=self.stats.network_pdr(),
            node_pdrs=node_pdrs,
            node_powers_mw=node_powers,
            worst_power_mw=worst,
            nlt_days=nlt_days,
            horizon_s=tsim_s,
            totals=self.stats.totals(),
            events_executed=self.sim.events_executed,
            mean_latency_s=latency_total / deliveries if deliveries else 0.0,
            windowed_pdr=windowed,
        )


# -- snapshots -----------------------------------------------------------------


def _reduce_generator(generator):
    bit_generator = generator.bit_generator
    return generator_from_state, (type(bit_generator), bit_generator.state)


@functools.lru_cache(maxsize=None)
def _snapshot_dispatch_table() -> dict:
    """copyreg's table plus numpy generators.  Built on first use:
    importing ``numpy.random`` with this module would add ~15 modules to
    every command's start-up."""
    table = copyreg.dispatch_table.copy()
    table[np.random.Generator] = _reduce_generator
    return table


def _set_attributes(obj, state: dict) -> None:
    setattr = object.__setattr__  # frozen dataclasses included
    for name, value in state.items():
        setattr(obj, name, value)


@functools.lru_cache(maxsize=None)
def _restored_by_attribute(cls: type) -> bool:
    """Whether :class:`_SnapshotPickler` rebuilds instances of ``cls``
    attribute by attribute: the simulator's own classes that pickle the
    default way (enums, for one, do not)."""
    return (
        cls.__module__.startswith("repro.")
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and getattr(cls, "__getstate__", None)
        is getattr(object, "__getstate__", None)
        and not hasattr(cls, "__setstate__")
    )


class _SnapshotPickler(pickle.Pickler):
    """The pickler behind :meth:`Network.snapshot`.

    It differs from plain pickling in two ways, both for speed and
    neither changing a value:

    * a numpy generator is rebuilt from its bit generator's state, about
      5x cheaper than numpy's own pickling (which re-creates the seed
      sequence too);
    * an instance of the simulator's own classes is rebuilt by setting
      its attributes one at a time, in the order the original set them.
      Plain unpickling fills a fresh ``__dict__`` instead, and on CPython
      3.11 that left every later attribute access of the copy slower (its
      remaining events ran ~30% slower than a freshly built network's).
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=5)
        self.dispatch_table = _snapshot_dispatch_table()

    def reducer_override(self, obj):
        cls = type(obj)
        if not _restored_by_attribute(cls):
            return NotImplemented
        state = getattr(obj, "__dict__", None)
        if state is None:
            return NotImplemented
        return copyreg.__newobj__, (cls,), state, None, None, _set_attributes


def simulate_configuration(
    placement: Sequence[int],
    radio_spec: RadioSpec,
    tx_mode: TxMode,
    mac_options: MacOptions,
    routing_options: RoutingOptions,
    app_params: AppParameters,
    tsim_s: float,
    replicates: int = 3,
    seed: int = 0,
    battery: BatterySpec = CR2032,
    body: Optional[BodyModel] = None,
    pathloss_params: Optional[PathLossParameters] = None,
    fading_params: Optional[FadingParameters] = None,
    posture_params: Optional[PostureParameters] = None,
    fault_scenario=None,
) -> SimulationOutcome:
    """Run ``replicates`` independent simulations and average the metrics.

    This is the paper's evaluation protocol: T_sim = 600 s averaged over 3
    runs gave performance estimates within 0.5% relative error (Sec. 4).
    Replicates use disjoint random streams derived from the same seed.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    outcomes: List[SimulationOutcome] = []
    for rep in range(replicates):
        outcomes.append(
            simulate_replicate(
                placement=placement,
                radio_spec=radio_spec,
                tx_mode=tx_mode,
                mac_options=mac_options,
                routing_options=routing_options,
                app_params=app_params,
                tsim_s=tsim_s,
                replicate=rep,
                seed=seed,
                battery=battery,
                body=body,
                pathloss_params=pathloss_params,
                fading_params=fading_params,
                posture_params=posture_params,
                fault_scenario=fault_scenario,
            )
        )
    return average_outcomes(outcomes, battery)


def simulate_replicate(
    placement: Sequence[int],
    radio_spec: RadioSpec,
    tx_mode: TxMode,
    mac_options: MacOptions,
    routing_options: RoutingOptions,
    app_params: AppParameters,
    tsim_s: float,
    replicate: int,
    seed: int = 0,
    battery: BatterySpec = CR2032,
    body: Optional[BodyModel] = None,
    pathloss_params: Optional[PathLossParameters] = None,
    fading_params: Optional[FadingParameters] = None,
    posture_params: Optional[PostureParameters] = None,
    fault_scenario=None,
) -> SimulationOutcome:
    """One independent replicate (disjoint random streams per index)."""
    network = Network(
        placement=placement,
        radio_spec=radio_spec,
        tx_mode=tx_mode,
        mac_options=mac_options,
        routing_options=routing_options,
        app_params=app_params,
        battery=battery,
        seed=seed,
        replicate=replicate,
        body=body,
        pathloss_params=pathloss_params,
        fading_params=fading_params,
        posture_params=posture_params,
        fault_scenario=fault_scenario,
    )
    return network.run(tsim_s)


@dataclass(frozen=True)
class ReplicateJob:
    """Picklable description of one replicate simulation.

    This is the unit of work shipped to :class:`ProcessPoolExecutor`
    workers by :mod:`repro.core.parallel` (with the fault worlds of
    :meth:`run_worlds`): every field is a frozen dataclass (or
    primitive), so the job crosses a process boundary cheaply, and
    :meth:`run` and :meth:`run_worlds` are pure functions of the job —
    the same job produces the same :class:`SimulationOutcome` in any
    process, because all randomness derives from the ``(seed,
    replicate)`` pair.
    """

    placement: Sequence[int]
    radio_spec: RadioSpec
    tx_mode: TxMode
    mac_options: MacOptions
    routing_options: RoutingOptions
    app_params: AppParameters
    tsim_s: float
    replicate: int
    seed: int = 0
    battery: BatterySpec = CR2032
    body: Optional[BodyModel] = None
    pathloss_params: Optional[PathLossParameters] = None
    fading_params: Optional[FadingParameters] = None
    posture_params: Optional[PostureParameters] = None
    #: Frozen FaultScenario (or None); frozen dataclasses pickle cleanly.
    fault_scenario: Optional[object] = None

    def network(self) -> Network:
        """This job's network at t = 0, its fault world attached."""
        return Network(
            placement=self.placement,
            radio_spec=self.radio_spec,
            tx_mode=self.tx_mode,
            mac_options=self.mac_options,
            routing_options=self.routing_options,
            app_params=self.app_params,
            battery=self.battery,
            seed=self.seed,
            replicate=self.replicate,
            body=self.body,
            pathloss_params=self.pathloss_params,
            fading_params=self.fading_params,
            posture_params=self.posture_params,
            fault_scenario=self.fault_scenario,
        )

    def run(self) -> SimulationOutcome:
        return self.network().run(self.tsim_s)

    def run_worlds(self, worlds: Sequence) -> "WorldRuns":
        """This (healthy) replicate under each of ``worlds``, simulating
        the healthy network once.

        ``worlds`` are distinct: ``None`` is the healthy network, any
        other entry a :class:`repro.faults.model.FaultScenario`.  The
        healthy network pauses strictly before each world's first fault
        event (:func:`repro.faults.injector.first_event_s`; the end of
        the run for a world of battery drains only) and is snapshotted;
        each world whose first event is there runs on from its own
        restored copy, a *branch*, with the world attached, and the
        healthy run continues on one more copy (see
        :meth:`Network.snapshot`).  Without a healthy entry, the world
        whose first event is last attaches to the healthy network itself,
        so a lone world is a plain run from t = 0.  Each outcome equals
        that world's run from t = 0 (DESIGN.md §7).

        A branch's wall is its copy plus its own run; the healthy
        network's segments and snapshots count for the healthy entry, or
        for the world run on the healthy network.  Each branch is freed
        as soon as it has run.
        """
        if self.fault_scenario is not None:
            raise ValueError("worlds branch off the healthy network")
        worlds = list(worlds)
        start = time.perf_counter()
        outcomes: List[Optional[SimulationOutcome]] = [None] * len(worlds)
        walls = [0.0] * len(worlds)
        network = self.network()
        healthy = worlds.index(None) if None in worlds else None
        starts = sorted(
            (first_event_s(world.applicable(network.placement)), index)
            for index, world in enumerate(worlds)
            if world is not None
        )
        if starts:
            network.stats.enable_windows(Network.FAULT_WINDOW_S)
        # The world that runs on the healthy network itself, if any.
        last = starts.pop()[1] if starts and healthy is None else None
        for at, group in itertools.groupby(starts, key=lambda item: item[0]):
            network.pause_before(at, self.tsim_s)
            snapshot = network.snapshot()
            # Networks are cyclic garbage: each one is dropped while it is
            # still young and freed by the young-generation collection
            # after the next branch, so no finished run waits in memory
            # for a full collection.
            del network
            for _at, index in group:
                begin = time.perf_counter()
                branch = Network.restore(snapshot)
                branch.attach_faults(worlds[index])
                outcomes[index] = branch.run(self.tsim_s)
                del branch
                gc.collect(0)
                walls[index] = time.perf_counter() - begin
            network = Network.restore(snapshot)
        if last is not None:
            network.attach_faults(worlds[last])
        timeline = healthy if last is None else last
        if timeline is not None:
            outcomes[timeline] = network.run(self.tsim_s)
            walls[timeline] = time.perf_counter() - start - sum(walls)
        # `last` started from a snapshot too once the healthy run paused.
        branched = len(starts) + (last is not None and bool(starts))
        return WorldRuns(outcomes, walls, branched)


@dataclass
class WorldRuns:
    """One configuration's outcomes under several worlds: one replicate
    (:meth:`ReplicateJob.run_worlds`) or a whole replicate protocol
    (:func:`repro.core.parallel.run_configuration_group`)."""

    #: One outcome per world, in the order the worlds were given.
    outcomes: List[SimulationOutcome]
    #: Seconds spent on each world's runs.
    walls: List[float]
    #: Runs that started from a snapshot of a paused healthy network.
    branched: int = 0


def run_worlds_job(task: Tuple[ReplicateJob, Tuple]) -> WorldRuns:
    """Executor entry point for :meth:`ReplicateJob.run_worlds` (bound
    methods don't pickle)."""
    job, worlds = task
    return job.run_worlds(worlds)


def average_outcomes(
    outcomes: Sequence[SimulationOutcome], battery: BatterySpec = CR2032
) -> SimulationOutcome:
    """Average replicate outcomes into one report (the paper's protocol)."""
    if not outcomes:
        raise ValueError("need at least one outcome to average")
    locations = tuple(sorted(outcomes[0].node_pdrs))
    n = len(outcomes)
    mean_pdr = sum(o.pdr for o in outcomes) / n
    node_pdrs = {
        loc: sum(o.node_pdrs[loc] for o in outcomes) / n for loc in locations
    }
    node_powers = {
        loc: sum(o.node_powers_mw[loc] for o in outcomes) / n for loc in locations
    }
    worst = sum(o.worst_power_mw for o in outcomes) / n
    totals: Dict[str, int] = {}
    for o in outcomes:
        for key, value in o.totals.items():
            totals[key] = totals.get(key, 0) + value
    windowed: Tuple[Tuple[float, Optional[float]], ...] = ()
    if outcomes[0].windowed_pdr:
        # Average each generation-time bin over the replicates that
        # observed traffic in it; a bin empty in every replicate stays
        # None rather than polluting the mean with zeros.
        bins = []
        for i, (t_end, _ratio) in enumerate(outcomes[0].windowed_pdr):
            values = [
                o.windowed_pdr[i][1]
                for o in outcomes
                if i < len(o.windowed_pdr) and o.windowed_pdr[i][1] is not None
            ]
            bins.append((t_end, sum(values) / len(values) if values else None))
        windowed = tuple(bins)
    return SimulationOutcome(
        pdr=mean_pdr,
        node_pdrs=node_pdrs,
        node_powers_mw=node_powers,
        worst_power_mw=worst,
        nlt_days=battery.lifetime_days(worst),
        horizon_s=outcomes[0].horizon_s,
        totals=totals,
        events_executed=sum(o.events_executed for o in outcomes),
        replicates=n,
        mean_latency_s=sum(o.mean_latency_s for o in outcomes) / n,
        windowed_pdr=windowed,
    )
