"""Compiling declarative fault scenarios into deterministic DES events.

The injector owns no randomness: a :class:`~repro.faults.model.FaultScenario`
fully determines what happens and when, and every intervention is scheduled
at :data:`repro.des.engine.FAULT_PRIORITY` so that a fault taking effect at
time t preempts every protocol event at the same timestamp.  Combined with
the kernel's stable event ordering this makes fault campaigns bit-
reproducible at any worker count.

Two pieces:

* :class:`FaultState` — the small mutable blackboard the live network
  consults.  The :class:`repro.net.radio.Medium` reads ``link_blocked`` on
  its hot path; teardown reads ``power_scale`` to fold battery-drain
  faults into the reported node powers.
* :class:`FaultInjector` — walks the scenario's faults that apply to the
  network's placement and schedules the state flips (node death, radio
  outage begin/end, blackout begin/end) as simulator events at their
  absolute times, so it can install onto a network built at t = 0 or
  onto one paused mid-run.

Until a world's first injected event (:func:`first_event_s`) fires, a
network carrying it behaves exactly like the healthy one, which is what
lets a fault world branch off a paused healthy run (DESIGN.md §7).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.des.engine import FAULT_PRIORITY
from repro.faults.model import FaultKind, FaultScenario, FaultSpec
from repro.obs.runtime import get_active


def first_event_s(specs: Sequence[FaultSpec]) -> float:
    """When the first simulator event :class:`FaultInjector` schedules for
    ``specs`` fires: the earliest start of a node death, hub outage or
    link blackout (correlated groups included).  ``math.inf`` when only
    battery drains remain, which schedule no event."""
    return min(
        (spec.start_s for spec in specs
         if spec.kind is not FaultKind.BATTERY_DRAIN),
        default=math.inf,
    )


class FaultState:
    """Live fault state shared between the injector and the network.

    Link blackouts are reference-counted so overlapping episodes on the
    same pair compose correctly; battery drains are recorded as
    ``(start, end, factor)`` windows and folded into a per-node power
    multiplier at teardown.
    """

    def __init__(self) -> None:
        #: (a, b) sorted pair -> number of active blackout episodes.
        self._blocked: Dict[Tuple[int, int], int] = {}
        #: location -> [(start_s, end_s, factor), ...] drain windows.
        self._drains: Dict[int, List[Tuple[float, float, float]]] = {}

    # -- link blackouts ----------------------------------------------------------

    def block(self, link: Tuple[int, int]) -> None:
        self._blocked[link] = self._blocked.get(link, 0) + 1

    def unblock(self, link: Tuple[int, int]) -> None:
        count = self._blocked.get(link, 0) - 1
        if count <= 0:
            # Drop the key entirely so `link_blocked` stays a cheap
            # empty-dict check once all episodes have cleared.
            self._blocked.pop(link, None)
        else:
            self._blocked[link] = count

    @property
    def any_link_blocked(self) -> bool:
        """Whether some link is in a blackout episode: while none is,
        :meth:`link_blocked` is False for every pair."""
        return bool(self._blocked)

    def link_blocked(self, a: int, b: int) -> bool:
        """Hot-path hook: is the (a, b) channel in a blackout episode?"""
        if not self._blocked:
            return False
        key = (a, b) if a < b else (b, a)
        return self._blocked.get(key, 0) > 0

    # -- battery drain -----------------------------------------------------------

    def note_drain(self, location: int, start_s: float, end_s: float, factor: float) -> None:
        self._drains.setdefault(location, []).append((start_s, end_s, factor))

    def power_scale(self, location: int, horizon_s: float) -> float:
        """Effective average-power multiplier for ``location``.

        A battery depleting ``factor`` times faster over a window of
        length w is, for lifetime purposes, a node drawing ``factor``
        times its power for w out of ``horizon_s`` seconds:
        ``scale = 1 + Σ (factor−1) · overlap/horizon``.  This is an
        energy-equivalent approximation — the drain does not perturb the
        simulated traffic, it only degrades the lifetime report.
        """
        windows = self._drains.get(location)
        if not windows:
            return 1.0
        scale = 1.0
        for start, end, factor in windows:
            overlap = max(0.0, min(end, horizon_s) - min(start, horizon_s))
            scale += (factor - 1.0) * (overlap / horizon_s)
        return scale

    @property
    def any_faults_recorded(self) -> bool:
        return bool(self._blocked) or bool(self._drains)


class FaultInjector:
    """Schedules one scenario's applicable faults onto a network's simulator.

    Construct before the :class:`~repro.net.radio.Medium` needs the state
    object, call :meth:`install` once the nodes exist (handlers resolve
    nodes at fire time, but installing late keeps the invariant obvious).
    """

    def __init__(self, network, scenario: FaultScenario) -> None:
        self.network = network
        self.scenario = scenario
        self.state = FaultState()
        self.installed = 0

    def install(self) -> FaultState:
        """Compile the scenario into simulator events; returns the state.

        Every event is scheduled at its absolute time (``schedule_at``),
        never as a delay from the clock, so installing onto a network
        paused before :func:`first_event_s` puts each event at the same
        float as installing at t = 0 does.

        Blackouts sharing a correlation group are compiled as *one lane*:
        a single begin event blocks every member link and a single end
        event clears them, so the correlated set flips atomically at one
        timestamp instead of as N independent event pairs.  (Member specs
        must agree on their window — one physical shadowing episode has
        one timeline.)
        """
        sim = self.network.sim
        groups: Dict[str, List[FaultSpec]] = {}
        for spec in self.scenario.applicable(self.network.placement):
            if spec.kind is FaultKind.LINK_BLACKOUT and spec.group is not None:
                groups.setdefault(spec.group, []).append(spec)
                continue
            if spec.kind is FaultKind.NODE_DEATH:
                sim.schedule_at(
                    spec.start_s, self._node_death, spec, priority=FAULT_PRIORITY
                )
            elif spec.kind is FaultKind.HUB_OUTAGE:
                sim.schedule_at(
                    spec.start_s, self._outage_begin, spec, priority=FAULT_PRIORITY
                )
                sim.schedule_at(
                    spec.end_s, self._outage_end, spec, priority=FAULT_PRIORITY
                )
            elif spec.kind is FaultKind.LINK_BLACKOUT:
                sim.schedule_at(
                    spec.start_s, self._blackout_begin, spec, priority=FAULT_PRIORITY
                )
                sim.schedule_at(
                    spec.end_s, self._blackout_end, spec, priority=FAULT_PRIORITY
                )
            elif spec.kind is FaultKind.BATTERY_DRAIN:
                # No mid-run behaviour: the drain is an energy bookkeeping
                # effect folded into node power at teardown.
                end = spec.end_s if math.isfinite(spec.end_s) else math.inf
                self.state.note_drain(
                    spec.location, spec.start_s, end, spec.factor
                )
                self._note("battery_drain", spec, at=spec.start_s)
            self.installed += 1
        for name, members in sorted(groups.items()):
            windows = {(m.start_s, m.duration_s) for m in members}
            if len(windows) != 1:
                raise ValueError(
                    f"correlated blackout group {name!r} mixes windows "
                    f"{sorted(windows)}; one group is one shadowing "
                    "episode and must share start/duration"
                )
            lead = members[0]
            sim.schedule_at(
                lead.start_s,
                self._group_blackout_begin,
                name,
                members,
                priority=FAULT_PRIORITY,
            )
            sim.schedule_at(
                lead.end_s,
                self._group_blackout_end,
                name,
                members,
                priority=FAULT_PRIORITY,
            )
            self.installed += len(members)
        return self.state

    # -- event handlers (run inside the simulation) ------------------------------

    def _node_death(self, spec: FaultSpec) -> None:
        self.network.nodes[spec.location].fail(permanent=True)
        self._note("node_death", spec)

    def _outage_begin(self, spec: FaultSpec) -> None:
        self.network.nodes[spec.location].fail(permanent=False)
        self._note("outage_begin", spec)

    def _outage_end(self, spec: FaultSpec) -> None:
        self.network.nodes[spec.location].recover()
        self._note("outage_end", spec)

    def _blackout_begin(self, spec: FaultSpec) -> None:
        self.state.block(spec.link)
        self._note("blackout_begin", spec)

    def _blackout_end(self, spec: FaultSpec) -> None:
        self.state.unblock(spec.link)
        self._note("blackout_end", spec)

    def _group_blackout_begin(
        self, name: str, members: List[FaultSpec]
    ) -> None:
        for spec in members:
            self.state.block(spec.link)
        self._note_group("group_blackout_begin", name, members)

    def _group_blackout_end(
        self, name: str, members: List[FaultSpec]
    ) -> None:
        for spec in members:
            self.state.unblock(spec.link)
        self._note_group("group_blackout_end", name, members)

    def _note_group(
        self, action: str, name: str, members: List[FaultSpec]
    ) -> None:
        obs = get_active()
        obs.counter("faults.injected").inc(len(members))
        if obs.tracing:
            obs.event(
                "faults.inject",
                scenario=self.scenario.name,
                action=action,
                group=name,
                links=[list(m.link) for m in members],
                sim_t=round(self.network.sim.now, 9),
            )

    def _note(self, action: str, spec: FaultSpec, at: float = None) -> None:
        obs = get_active()
        obs.counter("faults.injected").inc()
        if obs.tracing:
            # `sim_t`, not `t`: the tracer stamps every event with a wall
            # clock `t`, and the simulation timestamp must not clobber it.
            obs.event(
                "faults.inject",
                scenario=self.scenario.name,
                action=action,
                fault=spec.describe(),
                sim_t=round(self.network.sim.now if at is None else at, 9),
            )
