"""Frozen pre-optimization implementations, the reference for A/B tests.

The hot-path overhaul (fast PHY fan-out, cached RNG stream handles,
lazily-compacted event heap) rewrote the seed implementations in place,
so "did the fast paths change an answer?" needs the *old* code to
compare against.  This module carries verbatim copies of the seed
versions of the three rewritten hot spots:

* :class:`LegacySimulator` / :class:`LegacyEvent` — the seed DES kernel
  (O(n) ``pending_count``, no heap compaction, double-dispatch
  ``schedule`` → ``schedule_at``);
* :class:`LegacyOrnsteinUhlenbeckFading` — per-sample f-string stream
  lookup, frozen-dataclass attribute chains, tuple state records;
* :class:`LegacyNodeShadowing` — same, for the per-node occlusion chain.

:func:`legacy_network` builds a :class:`~repro.net.network.Network` whose
channel processes and event kernel are swapped for these copies and whose
medium runs the reference per-receiver delivery loop — i.e. the seed
stack end to end.  Both stacks consume identical RNG streams in identical
order, so a legacy run and a fast run of the same replicate produce
bit-identical outcomes; ``tests/test_legacy_reference.py`` asserts this.

These classes are test fixtures, not supported simulation API.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channel.fading import FadingParameters, _clip
from repro.des.rng import RngStreams
from repro.obs.runtime import get_active


class LegacyEvent:
    """Seed scheduled-callback record (no back-reference to the sim, so
    cancellations are never counted and the heap never compacts)."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "done")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.done


class LegacySimulator:
    """The seed event-scheduling kernel, verbatim.

    Interface-compatible with :class:`repro.des.engine.Simulator` (the
    subset the network stack uses), so :func:`legacy_network` can drop it
    in via the module symbol.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, LegacyEvent]] = []
        self._counter = itertools.count()
        self._running = False
        self._events_executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_count(self) -> int:
        # The seed's O(n) scan — one of the costs the overhaul removed.
        return sum(1 for *_rest, ev in self._heap if ev.pending)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> LegacyEvent:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> LegacyEvent:
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        if not math.isfinite(time):
            raise ValueError("event time must be finite")
        event = LegacyEvent(time, priority, next(self._counter), callback, args)
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        return event

    def step(self) -> bool:
        while self._heap:
            time, _priority, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            event.done = True
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                next_time = self._next_live_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            obs = get_active()
            obs.counter("des.runs").inc()
            obs.counter("des.events").inc(executed)

    def _next_live_time(self) -> Optional[float]:
        while self._heap:
            time, _priority, _seq, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            return time
        return None


class LegacyOrnsteinUhlenbeckFading:
    """Seed OU fading: registry lookup by f-string key on every sample."""

    def __init__(self, params: FadingParameters, rng: RngStreams) -> None:
        self.params = params
        self.rng = rng
        self._state: Dict[Tuple[int, int], Tuple[float, float]] = {}

    def sample(self, i: int, j: int, t: float) -> float:
        key = (i, j) if i <= j else (j, i)
        stream = self.rng.stream(f"fading/{key[0]}-{key[1]}")
        p = self.params
        state = self._state.get(key)
        if state is None:
            value = float(stream.normal(0.0, p.sigma_db)) if p.sigma_db > 0 else 0.0
            value = _clip(value, p.clip_db)
            self._state[key] = (t, value)
            return value
        last_t, last_v = state
        if t < last_t - 1e-12:
            raise ValueError(
                f"fading sampled backwards in time on link {key}: {t} < {last_t}"
            )
        dt = max(0.0, t - last_t)
        if dt == 0.0:
            return last_v
        if p.sigma_db == 0:
            value = 0.0
        else:
            rho = math.exp(-dt / p.coherence_time_s)
            mean = last_v * rho
            std = p.sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
            value = float(stream.normal(mean, std))
            value = _clip(value, p.clip_db)
        self._state[key] = (t, value)
        return value

    def peek(self, i: int, j: int) -> float:
        key = (i, j) if i <= j else (j, i)
        state = self._state.get(key)
        return 0.0 if state is None else state[1]

    def reset(self) -> None:
        self._state.clear()


class LegacyNodeShadowing:
    """Seed per-node occlusion chain: same per-sample lookup costs."""

    def __init__(self, params: FadingParameters, rng: RngStreams) -> None:
        self.params = params
        self.rng = rng
        self._state: Dict[int, Tuple[float, bool]] = {}
        p = params
        if p.shadow_fraction > 0:
            self._exit_rate = 1.0 / p.shadow_dwell_s
            self._entry_rate = self._exit_rate * p.shadow_fraction / (
                1.0 - p.shadow_fraction
            )
            self._relax = self._exit_rate + self._entry_rate
        else:
            self._exit_rate = self._entry_rate = self._relax = 0.0

    def is_occluded(self, node: int, t: float) -> bool:
        p = self.params
        if p.shadow_fraction <= 0 or p.shadow_depth_db <= 0:
            return False
        stream = self.rng.stream(f"shadow/{node}")
        state = self._state.get(node)
        pi = p.shadow_fraction
        if state is None:
            occluded = bool(stream.uniform() < pi)
            self._state[node] = (t, occluded)
            return occluded
        last_t, was_occluded = state
        if t < last_t - 1e-12:
            raise ValueError(
                f"shadowing sampled backwards in time for node {node}"
            )
        dt = max(0.0, t - last_t)
        if dt == 0.0:
            return was_occluded
        decay = math.exp(-self._relax * dt)
        if was_occluded:
            p_on = pi + (1.0 - pi) * decay
        else:
            p_on = pi * (1.0 - decay)
        occluded = bool(stream.uniform() < p_on)
        self._state[node] = (t, occluded)
        return occluded

    def extra_loss_db(self, i: int, j: int, t: float) -> float:
        depth = self.params.shadow_depth_db
        if depth <= 0:
            return 0.0
        loss = 0.0
        if self.is_occluded(i, t):
            loss += depth
        if self.is_occluded(j, t):
            loss += depth
        return loss

    def reset(self) -> None:
        self._state.clear()


def build_network(scenario, config, seed: int = 0, replicate: int = 0):
    """A current-stack Network for one (scenario, configuration) pair."""
    from repro.net.network import Network

    return Network(
        placement=config.placement,
        radio_spec=scenario.radio,
        tx_mode=scenario.tx_mode(config.tx_dbm),
        mac_options=scenario.mac_options(config.mac),
        routing_options=scenario.routing_options(config.routing),
        app_params=scenario.app,
        battery=scenario.battery,
        seed=seed,
        replicate=replicate,
        body=scenario.body,
        pathloss_params=scenario.pathloss,
        fading_params=scenario.fading,
        fault_scenario=getattr(scenario, "fault_scenario", None),
    )


def legacy_network(scenario, config, seed: int = 0, replicate: int = 0):
    """A Network running the seed hot paths end to end.

    Three swaps reconstruct the pre-overhaul stack:

    * the module symbol ``repro.net.network.Simulator`` is redirected to
      :class:`LegacySimulator` for the duration of construction, so every
      component schedules against the seed kernel;
    * the channel's fading/shadowing processes are replaced (before any
      sample is drawn) with the seed copies, restoring the per-sample
      stream-registry lookups;
    * ``medium.use_fast_path = False`` selects the reference per-receiver
      link-budget loop and delivery resolution.

    All three preserve the RNG draw order, so outcomes stay bit-identical
    to the fast stack.
    """
    import repro.net.network as network_mod

    original = network_mod.Simulator
    network_mod.Simulator = LegacySimulator  # type: ignore[misc]
    try:
        net = build_network(scenario, config, seed=seed, replicate=replicate)
    finally:
        network_mod.Simulator = original  # type: ignore[misc]
    net.medium.use_fast_path = False
    fading = net.channel.fading
    shadowing = net.channel.shadowing
    net.channel.fading = LegacyOrnsteinUhlenbeckFading(fading.params, fading.rng)
    net.channel.shadowing = LegacyNodeShadowing(shadowing.params, shadowing.rng)
    return net
