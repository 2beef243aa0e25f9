"""Batched replicate kernel: many lanes of one topology in one pass.

The scalar simulator evaluates one (configuration, fault world,
replicate) per discrete-event run.  The design loop and the
chance-constrained robust explorer evaluate the *same* topology under
many fault worlds and TX-power variants, and those runs share almost
everything: the TDMA schedule and the traffic generation are
deterministic, and the channel draws are identical across lanes because
every lane's streams derive from the same ``(seed, replicate)`` pair
(see :mod:`repro.des.rng`).  This kernel exploits that sharing:

* the **event skeleton** (traffic generation instants, slot grid,
  transmission end times) is derived once and driven through a single
  merged heap for all lanes — lanes waiting on the same slot or
  transmission-end instant share one heap entry;
* the **raw channel draws** are materialized once per stream as
  structure-of-arrays blocks (:mod:`repro.channel.batch_draws`),
  generated in vectorized numpy chunks; each lane walks the shared
  blocks with a private integer cursor;
* **fault worlds** are compiled into per-lane masks — transition lists
  over the shared timeline, queried with amortized-O(1) advancing
  pointers (event times are monotone) — instead of simulator events.

A *lane* is one ``(configuration variant, fault world)`` pair.  All
configurations in a batch must share placement/MAC/routing (they may
differ in TX power, which only changes the precomputed fan-out plans);
worlds are arbitrary :class:`repro.faults.model.FaultScenario` members
(``None`` = healthy).

Bit-identity contract
---------------------
Each lane's :class:`repro.net.network.SimulationOutcome` equals the
scalar DES outcome for that (config, world, replicate) bit-for-bit.  The
hot arithmetic is a transcription of the scalar code paths — the same
``math.exp``/``math.sqrt`` calls in the same order on the same Python
floats — *not* a numerically-equivalent reformulation; numpy appears
only in bulk draw-block generation, whose bitstream equivalence with the
scalar draw calls is asserted by tests.  The ``exp`` memo tables are
keyed by the exact ``dt`` argument, so a memo hit returns the float the
scalar call would have produced.  The scalar DES remains the reference
implementation: ``tests/test_batch_kernel.py`` asserts full-outcome
equality with it, sweeping seeds, replicate counts, fault ensembles,
and TX variants.

Supported surface
-----------------
:func:`batch_unsupported_reason` gates entry; everything else falls back
to the scalar path.  The kernel handles TDMA + star routing with the
fixed replicate protocol and a packet airtime strictly inside the TDMA
slot.  Under exactly these conditions the schedule provably never
overlaps transmissions (slot starts are at least one slot apart and the
airtime is shorter), so the interference/capture machinery is statically
dead, carrier sensing is never consulted, and the per-transmission PHY
reduces to the fan-out power computation.  Two timing coincidences are
assumed away as measure-zero (documented in DESIGN.md §10): a traffic
generation instant (irrational offset from the slot grid almost surely)
never collides with a slot start or a transmission end at the exact same
float, so the kernel's GEN < SLOT < FIN tie order at equal timestamps is
never exercised against the engine's schedule-order tie-breaking.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.channel.batch_draws import NORMAL, UNIFORM, DrawBlocks
from repro.core.design_space import Configuration
from repro.core.problem import ScenarioParameters
from repro.des.rng import RngStreams
from repro.faults.model import FaultKind, FaultScenario
from repro.library.mac_options import MacKind, RoutingKind
from repro.net.network import Network, SimulationOutcome, average_outcomes
from repro.net.stats import NetworkStats
from repro.obs.runtime import get_active

__all__ = ["batch_unsupported_reason", "evaluate_batch"]

#: Heap event kinds; the numeric order is the tie order at equal
#: timestamps (a measure-zero event under the supported surface — see
#: the module docstring).
_GEN, _SLOT, _FIN = 0, 1, 2

#: Post-horizon drain, matching the default ``drain_s`` of
#: :meth:`repro.net.network.Network.run`.
_DRAIN_S = 0.5


def batch_unsupported_reason(
    scenario: ScenarioParameters, config: Configuration
) -> Optional[str]:
    """Why this (scenario, configuration) cannot take the batched path.

    Returns ``None`` when the batched kernel supports it, otherwise a
    short human-readable reason (surfaced in oracle stats and traces).
    """
    if config.mac is not MacKind.TDMA:
        return f"mac={config.mac.value} (only the static TDMA schedule batches)"
    if config.routing is not RoutingKind.STAR:
        return f"routing={config.routing.value} (only star relay is transcribed)"
    if scenario.adaptive_replicates:
        return "adaptive replicate protocol (replicate count is data-dependent)"
    airtime = scenario.radio.packet_airtime_s(scenario.app.packet_bytes)
    if not airtime < scenario.tdma_slot_s:
        return (
            "packet airtime does not fit strictly inside a TDMA slot "
            "(transmissions could overlap)"
        )
    return None


# -- fault-world compilation -----------------------------------------------------


class _WorldMask:
    """One fault world compiled to timeline predicates plus analytic
    counter contributions (events the scalar injector would execute).

    ``dark_*`` replays the per-node ``radio.failed`` flag as a sorted
    transition list (assignment semantics, so a death followed by an
    unrelated outage-recovery composes exactly like the scalar flag
    writes).  ``block_*`` replays the blackout refcount as prefix sums.
    Fault handlers run at :data:`repro.des.engine.FAULT_PRIORITY` —
    before any protocol event at the same timestamp — so a query at t
    sees every transition with time ≤ t.
    """

    __slots__ = (
        "dark_times",
        "dark_states",
        "block_times",
        "block_counts",
        "death_s",
        "drains",
        "fault_events",
        "fault_injected",
        "first_t",
    )

    def __init__(self) -> None:
        self.dark_times: Dict[int, List[float]] = {}
        self.dark_states: Dict[int, List[bool]] = {}
        self.block_times: Dict[Tuple[int, int], List[float]] = {}
        self.block_counts: Dict[Tuple[int, int], List[int]] = {}
        #: earliest NODE_DEATH per location (halts traffic generation).
        self.death_s: Dict[int, float] = {}
        #: location -> [(start, end, factor)] in injector install order.
        self.drains: Dict[int, List[Tuple[float, float, float]]] = {}
        #: simulator events the scalar injector's handlers would execute
        #: within the run horizon, and the faults.injected increments
        #: those executions (plus drain installs) would make.
        self.fault_events = 0
        self.fault_injected = 0
        #: earliest dark/block transition — the world behaves exactly
        #: like the healthy trunk before this instant (drains never
        #: affect behaviour, only the teardown power scale).  ``inf``
        #: for drain-only worlds.
        self.first_t = math.inf

    # Reference (bisect-based) queries; the kernel hot path uses
    # advancing pointers instead, but tests exercise these directly.

    def dark(self, loc: int, t: float) -> bool:
        times = self.dark_times.get(loc)
        if times is None:
            return False
        i = bisect_right(times, t) - 1
        return self.dark_states[loc][i] if i >= 0 else False

    def blocked(self, key: Tuple[int, int], t: float) -> bool:
        times = self.block_times.get(key)
        if times is None:
            return False
        i = bisect_right(times, t) - 1
        return i >= 0 and self.block_counts[key][i] > 0


def _compile_world(
    world: Optional[FaultScenario], placement: Sequence[int], until: float
) -> Optional[_WorldMask]:
    """Compile one fault world against a placement; ``None`` when the
    world is healthy or entirely inapplicable (the scalar path attaches
    no fault machinery in that case either — same cold path)."""
    if world is None:
        return None
    applicable = world.applicable(placement)
    if not applicable:
        return None
    mask = _WorldMask()
    # Raw transitions carry the injector's install order so same-time
    # flips replay in the engine's stable (time, priority, seq) order.
    dark_raw: Dict[int, List[Tuple[float, int, bool]]] = {}
    block_raw: Dict[Tuple[int, int], List[Tuple[float, int, int]]] = {}
    groups: Dict[str, List] = {}
    order = 0
    events = 0
    injected = 0
    for spec in applicable:
        if spec.kind is FaultKind.LINK_BLACKOUT and spec.group is not None:
            groups.setdefault(spec.group, []).append(spec)
            continue
        if spec.kind is FaultKind.NODE_DEATH:
            dark_raw.setdefault(spec.location, []).append(
                (spec.start_s, order, True)
            )
            order += 1
            prev = mask.death_s.get(spec.location)
            if prev is None or spec.start_s < prev:
                mask.death_s[spec.location] = spec.start_s
            if spec.start_s <= until:
                events += 1
                injected += 1
        elif spec.kind is FaultKind.HUB_OUTAGE:
            lst = dark_raw.setdefault(spec.location, [])
            lst.append((spec.start_s, order, True))
            lst.append((spec.end_s, order + 1, False))
            order += 2
            if spec.start_s <= until:
                events += 1
                injected += 1
            if spec.end_s <= until:
                events += 1
                injected += 1
        elif spec.kind is FaultKind.LINK_BLACKOUT:
            lst = block_raw.setdefault(spec.link, [])
            lst.append((spec.start_s, order, 1))
            lst.append((spec.end_s, order + 1, -1))
            order += 2
            if spec.start_s <= until:
                events += 1
                injected += 1
            if spec.end_s <= until:
                events += 1
                injected += 1
        elif spec.kind is FaultKind.BATTERY_DRAIN:
            end = spec.end_s if math.isfinite(spec.end_s) else math.inf
            mask.drains.setdefault(spec.location, []).append(
                (spec.start_s, end, spec.factor)
            )
            # The scalar injector notes the drain (and its counter
            # increment) at install time, unconditionally.
            injected += 1
    for name, members in sorted(groups.items()):
        windows = {(m.start_s, m.duration_s) for m in members}
        if len(windows) != 1:
            # Same contract (and message) as FaultInjector.install.
            raise ValueError(
                f"correlated blackout group {name!r} mixes windows "
                f"{sorted(windows)}; one group is one shadowing "
                "episode and must share start/duration"
            )
        lead = members[0]
        for spec in members:
            lst = block_raw.setdefault(spec.link, [])
            lst.append((lead.start_s, order, 1))
            lst.append((lead.end_s, order + 1, -1))
        order += 2
        if lead.start_s <= until:
            events += 1
            injected += len(members)
        if lead.end_s <= until:
            events += 1
            injected += len(members)
    for loc, raw in dark_raw.items():
        raw.sort()
        mask.dark_times[loc] = [t for t, _o, _v in raw]
        mask.dark_states[loc] = [v for _t, _o, v in raw]
    for key, raw in block_raw.items():
        raw.sort()
        times: List[float] = []
        counts: List[int] = []
        count = 0
        for t, _o, delta in raw:
            count += delta
            times.append(t)
            counts.append(count)
        mask.block_times[key] = times
        mask.block_counts[key] = counts
    mask.fault_events = events
    mask.fault_injected = injected
    first = math.inf
    for times in mask.dark_times.values():
        if times and times[0] < first:
            first = times[0]
    for times in mask.block_times.values():
        if times and times[0] < first:
            first = times[0]
    mask.first_t = first
    return mask


def _power_scale(
    windows: Optional[List[Tuple[float, float, float]]], horizon_s: float
) -> float:
    """Transcription of :meth:`repro.faults.injector.FaultState.
    power_scale` (same accumulation order, same float ops)."""
    if not windows:
        return 1.0
    scale = 1.0
    for start, end, factor in windows:
        overlap = max(0.0, min(end, horizon_s) - min(start, horizon_s))
        scale += (factor - 1.0) * (overlap / horizon_s)
    return scale


# -- per-variant geometry --------------------------------------------------------


class _Variant:
    """Everything tx-power-dependent, harvested from a template network.

    The template :class:`~repro.net.network.Network` is built exactly
    like a replicate job's (healthy, replicate 0) and mined for its
    fan-out plans — which encode receiver order, mean path losses, and
    the dead-pair skips (skips depend on the TX level) — then discarded.
    """

    __slots__ = ("tx_dbm", "tx_power_mw", "raw_entries", "airtime", "network")

    def __init__(self, scenario: ScenarioParameters, config: Configuration):
        tx_mode = scenario.tx_mode(config.tx_dbm)
        net = Network(
            placement=config.placement,
            radio_spec=scenario.radio,
            tx_mode=tx_mode,
            mac_options=scenario.mac_options(config.mac),
            routing_options=scenario.routing_options(config.routing),
            app_params=scenario.app,
            battery=scenario.battery,
            seed=scenario.seed,
            replicate=0,
            body=scenario.body,
            pathloss_params=scenario.pathloss,
            fading_params=scenario.fading,
        )
        self.tx_dbm = tx_mode.output_dbm
        self.tx_power_mw = tx_mode.power_mw
        self.airtime = scenario.radio.packet_airtime_s(
            scenario.app.packet_bytes
        )
        placement = net.placement
        index_of = {loc: i for i, loc in enumerate(placement)}
        #: per sender index: [(rx, rx_idx, mean_pl, skip, pair_key,
        #: sensitivity), ...] in plan (= delivery) order.
        self.raw_entries: List[List[tuple]] = []
        for loc in placement:
            plan = net.medium._plan_for(net.nodes[loc].radio)
            rows = []
            for (rx, mean_pl, skip, key), (_rx, _radio, sens) in zip(
                plan.entries, plan.receivers
            ):
                rows.append((rx, index_of[rx], mean_pl, skip, key, sens))
            self.raw_entries.append(rows)
        self.network = net  # kept briefly for channel-constant harvesting


# -- the kernel ------------------------------------------------------------------


class _BatchKernel:
    """One batch: shared skeleton + per-lane state, replicates run
    sequentially (each replicate has its own streams and phases)."""

    def __init__(
        self,
        scenario: ScenarioParameters,
        configs: Sequence[Configuration],
        worlds: Sequence[Optional[FaultScenario]],
    ) -> None:
        configs = list(configs)
        worlds = list(worlds)
        if not configs:
            raise ValueError("need at least one configuration to batch")
        if not worlds:
            raise ValueError("need at least one fault world to batch")
        if scenario.replicates < 1:
            raise ValueError("need at least one replicate")
        reason = batch_unsupported_reason(scenario, configs[0])
        if reason is not None:
            raise ValueError(f"configuration is not batchable: {reason}")
        shared = (configs[0].placement, configs[0].mac, configs[0].routing)
        for config in configs[1:]:
            if (config.placement, config.mac, config.routing) != shared:
                raise ValueError(
                    "all configurations of one batch must share "
                    "placement/mac/routing (only the TX level may vary)"
                )
        self.scenario = scenario
        self.configs = configs
        self.worlds = worlds
        self.variants = [_Variant(scenario, c) for c in configs]
        self.placement: Tuple[int, ...] = tuple(sorted(set(shared[0])))
        self.coordinator = scenario.coordinator_location
        self.coord_idx = self.placement.index(self.coordinator)
        self.until = scenario.tsim_s + _DRAIN_S
        self.masks = [
            _compile_world(w, self.placement, self.until) for w in worlds
        ]
        self.lanes = [
            (ci, wi)
            for ci in range(len(configs))
            for wi in range(len(worlds))
        ]
        # Channel constants, harvested from the first template channel so
        # derived floats (the shadowing relaxation rate in particular)
        # are the exact objects the scalar path computes.
        probe = self.variants[0].network
        fading = probe.channel.fading
        shadowing = probe.channel.shadowing
        self.sigma = fading._sigma
        self.tau = fading._tau
        self.clip = fading._clip_limit
        self.pi = shadowing._pi
        self.relax = shadowing._relax
        self.depth = shadowing.params.shadow_depth_db
        self.shadow_on = self.depth > 0 and shadowing.params.shadow_fraction > 0
        for variant in self.variants:
            variant.network = None  # templates served their purpose
        # Pair indexing: every unordered link among the placement gets a
        # dense integer id shared by fading state, draw blocks, and
        # blackout masks.
        n = len(self.placement)
        self.pair_index: Dict[Tuple[int, int], int] = {}
        self.pair_names: List[str] = []
        for rows in self.variants[0].raw_entries:
            for _rx, _ri, _pl, _sk, key, _se in rows:
                if key not in self.pair_index:
                    self.pair_index[key] = len(self.pair_names)
                    self.pair_names.append(f"fading/{key[0]}-{key[1]}")
        #: per variant, per sender index: rows of
        #: (rx, rx_idx, mean_pl, skip, pair_idx, sensitivity).
        self.entries: List[List[List[tuple]]] = []
        for variant in self.variants:
            per_sender = []
            for rows in variant.raw_entries:
                per_sender.append(
                    [
                        (rx, ri, pl, sk, self.pair_index[key], se)
                        for rx, ri, pl, sk, key, se in rows
                    ]
                )
            self.entries.append(per_sender)
        # Per-world mask templates in index space (times/states shared;
        # each lane gets fresh advancing pointers every replicate).
        self._wi_dark: List[Optional[tuple]] = []
        self._wi_blk: List[Optional[tuple]] = []
        self._wi_any: List[Optional[tuple]] = []
        for mask in self.masks:
            if mask is None or not mask.dark_times:
                self._wi_dark.append(None)
            else:
                self._wi_dark.append(
                    tuple(
                        (mask.dark_times[loc], mask.dark_states[loc])
                        if loc in mask.dark_times
                        else None
                        for loc in self.placement
                    )
                )
            if mask is None or not mask.block_times:
                self._wi_blk.append(None)
                self._wi_any.append(None)
            else:
                per: List[Optional[tuple]] = [None] * len(self.pair_names)
                for key, times in mask.block_times.items():
                    pidx = self.pair_index.get(key)
                    if pidx is not None:
                        per[pidx] = (times, mask.block_counts[key])
                applicable = [e for e in per if e is not None]
                if not applicable:
                    self._wi_blk.append(None)
                    self._wi_any.append(None)
                else:
                    self._wi_blk.append(tuple(per))
                    # Union timeline: total blocked-pair count over all
                    # applicable pairs.  While it reads zero, no row of
                    # any transmission is blocked, so the kernel can take
                    # the (much cheaper) no-blackout fast path even on
                    # lanes that carry blackout windows.
                    deltas: List[Tuple[float, int]] = []
                    for b_times, b_counts in applicable:
                        prev = 0
                        for tt, c in zip(b_times, b_counts):
                            deltas.append((tt, c - prev))
                            prev = c
                    deltas.sort()
                    u_times: List[float] = []
                    u_counts: List[int] = []
                    total = 0
                    for tt, d in deltas:
                        total += d
                        u_times.append(tt)
                        u_counts.append(total)
                    self._wi_any.append((u_times, u_counts))
        # TDMA geometry.
        slot_s = scenario.tdma_slot_s
        self.slot_offsets = [i * slot_s for i in range(n)]
        self.frame = n * slot_s
        self.airtime = self.variants[0].airtime
        self.buffer_size = scenario.mac_buffer_size
        self.peers = [
            [p for p in self.placement if p != loc] for loc in self.placement
        ]

    # -- public entry ------------------------------------------------------------

    def run(self) -> Dict[Tuple[int, int], SimulationOutcome]:
        per_lane: List[List[SimulationOutcome]] = [[] for _ in self.lanes]
        for rep in range(self.scenario.replicates):
            for idx, outcome in enumerate(self.run_replicate(rep)):
                per_lane[idx].append(outcome)
        battery = self.scenario.battery
        return {
            self.lanes[idx]: average_outcomes(outs, battery)
            for idx, outs in enumerate(per_lane)
        }

    # -- one replicate across all lanes ------------------------------------------

    def run_replicate(self, rep: int) -> List[SimulationOutcome]:
        scenario = self.scenario
        tsim = scenario.tsim_s
        until = self.until
        placement = self.placement
        n_nodes = len(placement)
        n_pairs = len(self.pair_names)
        period = scenario.app.period_s
        lanes = self.lanes
        n_lanes = len(lanes)
        masks = self.masks
        # Fork-on-divergence: a faulted lane behaves exactly like a
        # healthy run of the same TX variant until its world's first
        # dark/block transition (fault handlers run at FAULT_PRIORITY,
        # before any protocol event at the same instant, so the fork
        # point is "before the first event at t >= first transition").
        # One virtual trunk lane per variant carries that shared healthy
        # prefix; real lanes start dormant and fork off a state copy on
        # demand.  Healthy and drain-only lanes never diverge at all and
        # simply read the trunk's state at teardown.
        n_cis = len(self.variants)
        L = n_lanes + n_cis
        trunk_T = [n_lanes + ci for ci, _wi in lanes]
        # Fan-out rows specialized per consumer: the TX loop reads
        # (rx_idx, mean_pl, skip, pidx), the FIN loop (rx, rx_idx, sens).
        ent_tx = [
            [[(r[1], r[2], r[3], r[4]) for r in rows] for rows in self.entries[ci]]
            for ci in range(n_cis)
        ]
        ent_fin = [
            [[(r[0], r[1], r[5]) for r in rows] for rows in self.entries[ci]]
            for ci in range(n_cis)
        ]
        lane_tx_rows = [ent_tx[ci] for ci, _wi in lanes] + ent_tx
        lane_fin_rows = [ent_fin[ci] for ci, _wi in lanes] + ent_fin
        lane_tx = [self.variants[ci].tx_dbm for ci, _wi in lanes]
        for ci in range(n_cis):
            lane_tx.append(self.variants[ci].tx_dbm)
        peers_di = [
            [placement.index(p) for p in self.peers[ni]]
            for ni in range(n_nodes)
        ]
        # A trunk records windowed stats iff any of its followers is a
        # masked lane: forked lanes inherit the trunk's bins (the scalar
        # path enables windows from t=0), while extra bins on the trunk
        # itself are invisible to healthy followers (windowed_pdr is
        # only read for masked lanes).
        trunk_win = [False] * n_cis
        for ci, wi in lanes:
            if masks[wi] is not None:
                trunk_win[ci] = True
        airtime = self.airtime
        buffer_size = self.buffer_size
        coord = self.coordinator
        coord_idx = self.coord_idx
        offsets = self.slot_offsets
        frame = self.frame
        sigma = self.sigma
        tau = self.tau
        clip = self.clip
        pi = self.pi
        relax = self.relax
        depth = self.depth
        shadow_on = self.shadow_on
        neg_inf = -math.inf
        exp = math.exp
        sqrt = math.sqrt
        ceil = math.ceil
        push = heappush
        pop = heappop

        # Traffic skeleton: the generation instants of the application
        # chain (phase, phase+T, ...) up to and including the stopper —
        # the first instant ≥ tsim, whose event executes but generates
        # nothing.  Phases are drawn through the same RngStreams call
        # the Application constructor makes.
        phase_rng = RngStreams(seed=scenario.seed, replicate=rep)
        cands: List[List[float]] = []
        for loc in placement:
            phase = phase_rng.uniform(f"app_phase/{loc}", 0.0, period)
            chain = [phase]
            while chain[-1] < tsim:
                chain.append(chain[-1] + period)
            cands.append(chain)
        # Stop index per node per lane: the first candidate ≥
        # min(earliest death, tsim).  (A death handler at exactly a
        # generation instant preempts it: FAULT_PRIORITY.)
        stop_T: List[List[int]] = []
        for ni, loc in enumerate(placement):
            chain = cands[ni]
            by_wi = []
            for mask in masks:
                threshold = tsim
                if mask is not None:
                    death = mask.death_s.get(loc)
                    if death is not None and death < threshold:
                        threshold = death
                by_wi.append(bisect_left(chain, threshold))
            sk_h = bisect_left(chain, tsim)
            stop_T.append(
                [by_wi[wi] for _ci, wi in lanes] + [sk_h] * n_cis
            )

        # Shared raw-draw blocks; lanes advance private cursors.
        blocks = DrawBlocks(seed=scenario.seed, replicate=rep)
        pair_blocks = [blocks.block(nm, NORMAL) for nm in self.pair_names]
        pair_vals = [b.values for b in pair_blocks]
        node_blocks = [
            blocks.block(f"shadow/{loc}", UNIFORM) for loc in placement
        ]
        node_vals = [b.values for b in node_blocks]
        # exp() memos shared across lanes: rho/decay are pure functions
        # of dt, and the same dt values recur across the slot grid.
        # Keyed by the exact dt, so memo hits return the float the scalar
        # call chain would have produced: the OU pull/diffusion pair
        # (rho, sigma*sqrt(1-rho^2)) and the shadowing re-occlusion
        # probabilities (from-off, from-on) are pure functions of dt,
        # and the same dt values recur across the slot grid.
        ou_memo: Dict[float, tuple] = {}
        shm_memo: Dict[float, tuple] = {}

        # Per-lane channel state (flat, integer-indexed); trunk lanes
        # live at indices n_lanes..L-1.
        f_t = [[0.0] * n_pairs for _ in range(L)]
        f_v = [[0.0] * n_pairs for _ in range(L)]
        f_cur = [[0] * n_pairs for _ in range(L)]
        f_init = [[False] * n_pairs for _ in range(L)]
        s_t = [[0.0] * n_nodes for _ in range(L)]
        s_occ = [[False] * n_nodes for _ in range(L)]
        s_cur = [[0] * n_nodes for _ in range(L)]
        s_init = [[False] * n_nodes for _ in range(L)]

        # Per-lane mask runtime (shared times/states, private pointers).
        none_nodes = (None,) * n_nodes
        lane_dark: List[Sequence] = []
        lane_blk: List[Optional[list]] = []
        lane_any: List[Optional[list]] = []
        for _ci, wi in lanes:
            dark_tmpl = self._wi_dark[wi]
            if dark_tmpl is None:
                lane_dark.append(none_nodes)
            else:
                lane_dark.append(
                    [
                        None if e is None else [e[0], e[1], 0, len(e[0])]
                        for e in dark_tmpl
                    ]
                )
            blk_tmpl = self._wi_blk[wi]
            if blk_tmpl is None:
                lane_blk.append(None)
                lane_any.append(None)
            else:
                lane_blk.append(
                    [
                        None if e is None else [e[0], e[1], 0, len(e[0])]
                        for e in blk_tmpl
                    ]
                )
                any_tmpl = self._wi_any[wi]
                lane_any.append(
                    [any_tmpl[0], any_tmpl[1], 0, len(any_tmpl[0])]
                )
        for _ in range(n_cis):
            lane_dark.append(none_nodes)
            lane_blk.append(None)
            lane_any.append(None)

        # Per-lane protocol state.  ``pend_g`` remembers the slot
        # instant a pending SLOT entry was scheduled for, so a forking
        # lane can re-join its trunk's still-pending groups.
        queues = [[deque() for _ in range(n_nodes)] for _ in range(L)]
        in_flight: List[List[Optional[tuple]]] = [
            [None] * n_nodes for _ in range(L)
        ]
        slot_pending = [[False] * n_nodes for _ in range(L)]
        pend_g = [[0.0] * n_nodes for _ in range(L)]
        stats_list: List[NetworkStats] = []
        for _ci, wi in lanes:
            st = NetworkStats(list(placement))
            if masks[wi] is not None:
                st.enable_windows(Network.FAULT_WINDOW_S)
            stats_list.append(st)
        for ci in range(n_cis):
            st = NetworkStats(list(placement))
            if trunk_win[ci]:
                st.enable_windows(Network.FAULT_WINDOW_S)
            stats_list.append(st)
        stats_nodes = [
            [st.nodes[loc] for loc in placement] for st in stats_list
        ]
        # Hot counters flattened out of the NodeStats objects: the loop
        # accumulates into plain lists (same order, same float ops as the
        # scalar attribute updates) and the teardown writes them back
        # before any metric is read.  The sent/received/windowed dicts
        # become integer arrays (indexed by placement position / time
        # bin) and are rebuilt as dicts at teardown — every metric the
        # outcome reads is a sum or keyed lookup, so key order is
        # immaterial.  The dedup set stays live (it is behavioural).
        uids_s = [[ns.delivered_uids for ns in row] for row in stats_nodes]
        n_bins = int(until / Network.FAULT_WINDOW_S) + 2
        sent_c = [[[0] * n_nodes for _ in range(n_nodes)] for _ in range(L)]
        recv_c = [[[0] * n_nodes for _ in range(n_nodes)] for _ in range(L)]
        wsent_c = [[[0] * n_bins for _ in range(n_nodes)] for _ in range(L)]
        wrecv_c = [[[0] * n_bins for _ in range(n_nodes)] for _ in range(L)]
        lane_win = [masks[wi] is not None for _ci, wi in lanes] + trunk_win
        window_s = Network.FAULT_WINDOW_S
        a_txs = [[0.0] * n_nodes for _ in range(L)]
        a_rxs = [[0.0] * n_nodes for _ in range(L)]
        a_lat = [[0.0] * n_nodes for _ in range(L)]
        c_tx = [[0] * n_nodes for _ in range(L)]
        c_rx = [[0] * n_nodes for _ in range(L)]
        c_bsen = [[0] * n_nodes for _ in range(L)]
        c_bdrop = [[0] * n_nodes for _ in range(L)]
        c_ftx = [[0] * n_nodes for _ in range(L)]
        c_frx = [[0] * n_nodes for _ in range(L)]
        c_rel = [[0] * n_nodes for _ in range(L)]
        relayed: List[set] = [set() for _ in range(L)]
        executed = [0] * L
        # Whether every node of a lane shares the same shadow tick time
        # (true until the lane's first general-path transmission): the
        # fast path then resolves dt -> re-occlusion probabilities once
        # per transmission instead of per node.
        s_uni = [True] * L

        def tick_shadow(l: int, m: int, t: float) -> bool:
            """Lazy-path NodeShadowing tick (the fast path inlines it)."""
            sil = s_init[l]
            stl = s_t[l]
            sol = s_occ[l]
            scl = s_cur[l]
            if not sil[m]:
                i = scl[m]
                scl[m] = i + 1
                vals = node_vals[m]
                try:
                    z = vals[i]
                except IndexError:
                    z = node_blocks[m].get(i)
                occ = z < pi
                sil[m] = True
                stl[m] = t
                sol[m] = occ
                return occ
            if t > stl[m]:
                dt = t - stl[m]
                pp = shm_memo.get(dt)
                if pp is None:
                    decay = exp(-relax * dt)
                    pp = (pi * (1.0 - decay), pi + (1.0 - pi) * decay)
                    shm_memo[dt] = pp
                p_on = pp[1] if sol[m] else pp[0]
                i = scl[m]
                scl[m] = i + 1
                vals = node_vals[m]
                try:
                    z = vals[i]
                except IndexError:
                    z = node_blocks[m].get(i)
                occ = z < p_on
                stl[m] = t
                sol[m] = occ
                return occ
            return sol[m]

        # Event heap: shared GEN skeleton plus grouped SLOT/FIN entries —
        # lanes waiting on the same (instant, node) share one entry.
        heap: List[tuple] = []
        for ni in range(n_nodes):
            chain = cands[ni]
            for k in range(len(chain)):
                heap.append((chain[k], _GEN, ni, k))
        heapify(heap)
        slot_groups: Dict[Tuple[float, int], List[int]] = {}
        fin_groups: Dict[Tuple[float, int], List[int]] = {}

        # Only live lanes (trunks, plus lanes already forked) execute
        # events; the fork schedule is consumed front-to-back as event
        # time crosses each lane's first transition.
        live = list(range(n_lanes, L))
        forked = [False] * n_lanes
        forks: List[Tuple[float, int]] = sorted(
            (masks[wi].first_t, l)
            for l, (_ci, wi) in enumerate(lanes)
            if masks[wi] is not None and masks[wi].first_t <= until
        )
        fi = 0
        nf = len(forks)

        def fork_lane(l: int) -> None:
            """Split lane ``l`` off its trunk: copy the trunk's state,
            re-join its pending SLOT/FIN groups, and mark it live."""
            T = trunk_T[l]
            forked[l] = True
            f_t[l] = f_t[T][:]
            f_v[l] = f_v[T][:]
            f_cur[l] = f_cur[T][:]
            f_init[l] = f_init[T][:]
            s_t[l] = s_t[T][:]
            s_occ[l] = s_occ[T][:]
            s_cur[l] = s_cur[T][:]
            s_init[l] = s_init[T][:]
            s_uni[l] = s_uni[T]
            queues[l] = [deque(q) for q in queues[T]]
            in_flight[l] = in_flight[T][:]
            slot_pending[l] = slot_pending[T][:]
            pend_g[l] = pend_g[T][:]
            executed[l] = executed[T]
            relayed[l] = set(relayed[T])
            a_txs[l] = a_txs[T][:]
            a_rxs[l] = a_rxs[T][:]
            a_lat[l] = a_lat[T][:]
            c_tx[l] = c_tx[T][:]
            c_rx[l] = c_rx[T][:]
            c_bsen[l] = c_bsen[T][:]
            c_bdrop[l] = c_bdrop[T][:]
            c_ftx[l] = c_ftx[T][:]
            c_frx[l] = c_frx[T][:]
            c_rel[l] = c_rel[T][:]
            sent_c[l] = [r[:] for r in sent_c[T]]
            recv_c[l] = [r[:] for r in recv_c[T]]
            wsent_c[l] = [r[:] for r in wsent_c[T]]
            wrecv_c[l] = [r[:] for r in wrecv_c[T]]
            rowT = stats_nodes[T]
            rowL = stats_nodes[l]
            for m in range(n_nodes):
                # In-place update: the prefetched uids_s row aliases this
                # set, and it starts empty, so update == copy.
                rowL[m].delivered_uids.update(rowT[m].delivered_uids)
            spl = slot_pending[l]
            ifl = in_flight[l]
            pgl = pend_g[l]
            for m in range(n_nodes):
                if spl[m]:
                    slot_groups[(pgl[m], m)].append(l)
                pending = ifl[m]
                if pending is not None:
                    fin_groups[(pending[3], m)].append(l)
            live.append(l)

        while heap:
            t0 = heap[0][0]
            if t0 > until:
                break
            while fi < nf and forks[fi][0] <= t0:
                fork_lane(forks[fi][1])
                fi += 1
            entry = pop(heap)
            t = entry[0]
            kind = entry[1]
            ni = entry[2]

            if kind == _GEN:
                k = entry[3]
                peers = self.peers[ni]
                j = k % len(peers)
                dest = peers[j]
                di = peers_di[ni][j]
                loc = placement[ni]
                stop_row = stop_T[ni]
                pkt = (loc, k, dest, t, ni)
                win_idx = -1
                g = -1.0
                for l in live:
                    sk = stop_row[l]
                    if k > sk:
                        continue
                    executed[l] += 1
                    if k == sk:
                        continue
                    sent_c[l][ni][di] += 1
                    if lane_win[l]:
                        if win_idx < 0:
                            win_idx = int(t / window_s)
                        wsent_c[l][ni][win_idx] += 1
                    q = queues[l][ni]
                    if len(q) >= buffer_size:
                        c_bdrop[l][ni] += 1
                        continue
                    q.append(pkt)
                    if in_flight[l][ni] is None and not slot_pending[l][ni]:
                        if g < 0.0:
                            offset = offsets[ni]
                            kk = ceil((t - offset - 1e-12) / frame)
                            g = offset + (kk if kk > 0 else 0) * frame
                            if g < t - 1e-12:
                                g += frame
                        key = (g, ni)
                        grp = slot_groups.get(key)
                        if grp is None:
                            slot_groups[key] = [l]
                            push(heap, (g, _SLOT, ni))
                        else:
                            grp.append(l)
                        slot_pending[l][ni] = True
                        pend_g[l][ni] = g

            elif kind == _SLOT:
                group = slot_groups.pop((t, ni))
                te = t + airtime
                fkey = (te, ni)
                fgrp = None
                for l in group:
                    slot_pending[l][ni] = False
                    executed[l] += 1
                    q = queues[l][ni]
                    if not q or in_flight[l][ni] is not None:
                        continue
                    packet = q.popleft()
                    dk = lane_dark[l][ni]
                    dark = False
                    if dk is not None:
                        times = dk[0]
                        p = dk[2]
                        ntr = dk[3]
                        while p < ntr and times[p] <= t:
                            p += 1
                        dk[2] = p
                        if p:
                            dark = dk[1][p - 1]
                    if dark:
                        # Void transmission: the radio is down but the
                        # MAC's cycle completes after the nominal airtime.
                        c_ftx[l][ni] += 1
                        in_flight[l][ni] = (packet, None, t, te)
                    else:
                        rows = lane_tx_rows[l][ni]
                        lb = lane_blk[l]
                        if lb is not None:
                            ab = lane_any[l]
                            times = ab[0]
                            p = ab[2]
                            ntr = ab[3]
                            while p < ntr and times[p] <= t:
                                p += 1
                            ab[2] = p
                            if not (p and ab[1][p - 1] > 0):
                                # No blackout in force at t, so nothing
                                # would be blocked row by row: take the
                                # fast path.
                                lb = None
                        ftl = f_t[l]
                        fvl = f_v[l]
                        fcl = f_cur[l]
                        fil = f_init[l]
                        powers: List[float] = []
                        ap = powers.append
                        tx_dbm = lane_tx[l]
                        if shadow_on and lb is None:
                            # Fast path: no blackout rows, so every row
                            # ticks sender + receiver — tick every node
                            # exactly once up front.
                            stl = s_t[l]
                            sol = s_occ[l]
                            scl = s_cur[l]
                            if s_uni[l]:
                                # Every node last ticked at the same
                                # instant (or all cold): one dt lookup
                                # covers the whole loop.
                                if s_init[l][0]:
                                    tl = stl[0]
                                    if t > tl:
                                        dt = t - tl
                                        pp = shm_memo.get(dt)
                                        if pp is None:
                                            decay = exp(-relax * dt)
                                            pp = (
                                                pi * (1.0 - decay),
                                                pi + (1.0 - pi) * decay,
                                            )
                                            shm_memo[dt] = pp
                                        p_off = pp[0]
                                        p_onn = pp[1]
                                        for m in range(n_nodes):
                                            i = scl[m]
                                            scl[m] = i + 1
                                            vals = node_vals[m]
                                            try:
                                                z = vals[i]
                                            except IndexError:
                                                z = node_blocks[m].get(i)
                                            sol[m] = z < (
                                                p_onn if sol[m] else p_off
                                            )
                                            stl[m] = t
                                else:
                                    sil = s_init[l]
                                    for m in range(n_nodes):
                                        i = scl[m]
                                        scl[m] = i + 1
                                        vals = node_vals[m]
                                        try:
                                            z = vals[i]
                                        except IndexError:
                                            z = node_blocks[m].get(i)
                                        sol[m] = z < pi
                                        sil[m] = True
                                        stl[m] = t
                            else:
                                sil = s_init[l]
                                for m in range(n_nodes):
                                    if not sil[m]:
                                        i = scl[m]
                                        scl[m] = i + 1
                                        vals = node_vals[m]
                                        try:
                                            z = vals[i]
                                        except IndexError:
                                            z = node_blocks[m].get(i)
                                        sol[m] = z < pi
                                        sil[m] = True
                                        stl[m] = t
                                    elif t > stl[m]:
                                        dt = t - stl[m]
                                        pp = shm_memo.get(dt)
                                        if pp is None:
                                            decay = exp(-relax * dt)
                                            pp = (
                                                pi * (1.0 - decay),
                                                pi + (1.0 - pi) * decay,
                                            )
                                            shm_memo[dt] = pp
                                        p_on = pp[1] if sol[m] else pp[0]
                                        i = scl[m]
                                        scl[m] = i + 1
                                        vals = node_vals[m]
                                        try:
                                            z = vals[i]
                                        except IndexError:
                                            z = node_blocks[m].get(i)
                                        sol[m] = z < p_on
                                        stl[m] = t
                                # Every node is now warm with tick time
                                # t: uniformity is restored.
                                s_uni[l] = True
                            sender_extra = depth if sol[ni] else 0.0
                            for rx_idx, mean_pl, skip, pidx in rows:
                                if skip:
                                    ap(neg_inf)
                                    continue
                                if fil[pidx]:
                                    ftp = ftl[pidx]
                                    if t > ftp:
                                        if sigma == 0:
                                            value = 0.0
                                        else:
                                            dt = t - ftp
                                            rs = ou_memo.get(dt)
                                            if rs is None:
                                                rho = exp(-dt / tau)
                                                var = 1.0 - rho * rho
                                                rs = (
                                                    rho,
                                                    sigma
                                                    * sqrt(
                                                        var
                                                        if var > 0.0
                                                        else 0.0
                                                    ),
                                                )
                                                ou_memo[dt] = rs
                                            rho, std = rs
                                            mean = fvl[pidx] * rho
                                            i = fcl[pidx]
                                            fcl[pidx] = i + 1
                                            vals = pair_vals[pidx]
                                            try:
                                                z = vals[i]
                                            except IndexError:
                                                z = pair_blocks[pidx].get(i)
                                            value = mean + std * z
                                            if value > clip:
                                                value = clip
                                            elif value < -clip:
                                                value = -clip
                                        ftl[pidx] = t
                                        fvl[pidx] = value
                                    else:
                                        value = fvl[pidx]
                                else:
                                    if sigma > 0:
                                        i = fcl[pidx]
                                        fcl[pidx] = i + 1
                                        vals = pair_vals[pidx]
                                        try:
                                            z = vals[i]
                                        except IndexError:
                                            z = pair_blocks[pidx].get(i)
                                        value = 0.0 + sigma * z
                                        value = max(-clip, min(clip, value))
                                    else:
                                        value = 0.0
                                    fil[pidx] = True
                                    ftl[pidx] = t
                                    fvl[pidx] = value
                                loss = mean_pl + value
                                extra = sender_extra
                                if sol[rx_idx]:
                                    extra += depth
                                loss = loss + extra
                                ap(tx_dbm - loss)
                        else:
                            # General path: per-row blocked checks and
                            # lazy shadow ticks (also covers shadow-off).
                            # Partial ticks may desynchronize the nodes'
                            # tick times, so drop the uniform-dt fast
                            # shortcut for this lane.
                            s_uni[l] = False
                            sender_occ = -1
                            for rx_idx, mean_pl, skip, pidx in rows:
                                if lb is not None:
                                    bk = lb[pidx]
                                    if bk is not None:
                                        times = bk[0]
                                        p = bk[2]
                                        ntr = bk[3]
                                        while p < ntr and times[p] <= t:
                                            p += 1
                                        bk[2] = p
                                        if p and bk[1][p - 1] > 0:
                                            ap(neg_inf)
                                            continue
                                if skip:
                                    if shadow_on:
                                        if sender_occ < 0:
                                            sender_occ = (
                                                1
                                                if tick_shadow(l, ni, t)
                                                else 0
                                            )
                                        tick_shadow(l, rx_idx, t)
                                    ap(neg_inf)
                                    continue
                                if fil[pidx]:
                                    ftp = ftl[pidx]
                                    if t > ftp:
                                        if sigma == 0:
                                            value = 0.0
                                        else:
                                            dt = t - ftp
                                            rs = ou_memo.get(dt)
                                            if rs is None:
                                                rho = exp(-dt / tau)
                                                var = 1.0 - rho * rho
                                                rs = (
                                                    rho,
                                                    sigma
                                                    * sqrt(
                                                        var
                                                        if var > 0.0
                                                        else 0.0
                                                    ),
                                                )
                                                ou_memo[dt] = rs
                                            rho, std = rs
                                            mean = fvl[pidx] * rho
                                            i = fcl[pidx]
                                            fcl[pidx] = i + 1
                                            vals = pair_vals[pidx]
                                            try:
                                                z = vals[i]
                                            except IndexError:
                                                z = pair_blocks[pidx].get(i)
                                            value = mean + std * z
                                            if value > clip:
                                                value = clip
                                            elif value < -clip:
                                                value = -clip
                                        ftl[pidx] = t
                                        fvl[pidx] = value
                                    else:
                                        value = fvl[pidx]
                                else:
                                    if sigma > 0:
                                        i = fcl[pidx]
                                        fcl[pidx] = i + 1
                                        vals = pair_vals[pidx]
                                        try:
                                            z = vals[i]
                                        except IndexError:
                                            z = pair_blocks[pidx].get(i)
                                        value = 0.0 + sigma * z
                                        value = max(-clip, min(clip, value))
                                    else:
                                        value = 0.0
                                    fil[pidx] = True
                                    ftl[pidx] = t
                                    fvl[pidx] = value
                                loss = mean_pl + value
                                if shadow_on:
                                    if sender_occ < 0:
                                        sender_occ = (
                                            1
                                            if tick_shadow(l, ni, t)
                                            else 0
                                        )
                                    extra = depth if sender_occ else 0.0
                                    if tick_shadow(l, rx_idx, t):
                                        extra += depth
                                    loss = loss + extra
                                else:
                                    loss = loss + 0.0
                                ap(tx_dbm - loss)
                        c_tx[l][ni] += 1
                        a_txs[l][ni] += airtime
                        in_flight[l][ni] = (packet, powers, t, te)
                    if fgrp is None:
                        fgrp = fin_groups.get(fkey)
                        if fgrp is None:
                            fgrp = []
                            fin_groups[fkey] = fgrp
                            push(heap, (te, _FIN, ni))
                    fgrp.append(l)

            else:  # _FIN
                group = fin_groups.pop((t, ni))
                g_fin = -1.0
                g_coord = -1.0
                for l in group:
                    executed[l] += 1
                    ifl = in_flight[l]
                    packet, powers, start, _te = ifl[ni]
                    ifl[ni] = None
                    # Sender MAC first (on_tx_done -> _kick), then
                    # delivery — the scalar _finish_transmission order.
                    q = queues[l][ni]
                    if q and not slot_pending[l][ni]:
                        if g_fin < 0.0:
                            offset = offsets[ni]
                            kk = ceil((t - offset - 1e-12) / frame)
                            g_fin = offset + (kk if kk > 0 else 0) * frame
                            if g_fin < t - 1e-12:
                                g_fin += frame
                        key = (g_fin, ni)
                        grp = slot_groups.get(key)
                        if grp is None:
                            slot_groups[key] = [l]
                            push(heap, (g_fin, _SLOT, ni))
                        else:
                            grp.append(l)
                        slot_pending[l][ni] = True
                        pend_g[l][ni] = g_fin
                    if powers is None:
                        continue
                    duration = t - start
                    origin, seq, dest, created, oi = packet
                    ld = lane_dark[l]
                    rows = lane_fin_rows[l][ni]
                    lrxs = a_rxs[l]
                    lcrx = c_rx[l]
                    lbsen = c_bsen[l]
                    lfrx = c_frx[l]
                    wl = lane_win[l]
                    uid = (origin, seq)
                    cre_idx = -1
                    ri = 0
                    for rx, rx_idx, sens in rows:
                        power = powers[ri]
                        ri += 1
                        dk = ld[rx_idx]
                        if dk is not None:
                            times = dk[0]
                            p = dk[2]
                            ntr = dk[3]
                            while p < ntr and times[p] <= t:
                                p += 1
                            dk[2] = p
                            if p and dk[1][p - 1]:
                                lfrx[rx_idx] += 1
                                continue
                        if power < sens:
                            lbsen[rx_idx] += 1
                            continue
                        lrxs[rx_idx] += duration
                        lcrx[rx_idx] += 1
                        # StarRouting.on_receive: app delivery first,
                        # then the coordinator relay decision.
                        if dest == rx:
                            uids = uids_s[l][rx_idx]
                            if uid not in uids:
                                uids.add(uid)
                                recv_c[l][rx_idx][oi] += 1
                                a_lat[l][rx_idx] += t - created
                                if wl:
                                    if cre_idx < 0:
                                        cre_idx = int(created / window_s)
                                    wrecv_c[l][rx_idx][cre_idx] += 1
                        if (
                            rx_idx == coord_idx
                            and origin != coord
                            and dest != coord
                        ):
                            seen = relayed[l]
                            if uid not in seen:
                                seen.add(uid)
                                c_rel[l][coord_idx] += 1
                                cq = queues[l][coord_idx]
                                if len(cq) >= buffer_size:
                                    c_bdrop[l][coord_idx] += 1
                                else:
                                    cq.append(packet)
                                    if (
                                        ifl[coord_idx] is None
                                        and not slot_pending[l][coord_idx]
                                    ):
                                        if g_coord < 0.0:
                                            offset = offsets[coord_idx]
                                            kk = ceil(
                                                (t - offset - 1e-12) / frame
                                            )
                                            g_coord = (
                                                offset
                                                + (kk if kk > 0 else 0)
                                                * frame
                                            )
                                            if g_coord < t - 1e-12:
                                                g_coord += frame
                                        key = (g_coord, coord_idx)
                                        grp = slot_groups.get(key)
                                        if grp is None:
                                            slot_groups[key] = [l]
                                            push(
                                                heap,
                                                (g_coord, _SLOT, coord_idx),
                                            )
                                        else:
                                            grp.append(l)
                                        slot_pending[l][coord_idx] = True
                                        pend_g[l][coord_idx] = g_coord

        # Teardown: flush the flattened counters back into the NodeStats
        # objects (live lanes only — a never-forked lane reads its
        # trunk), then run Network.run's metric extraction per lane plus
        # the obs milestones the scalar engine/injector would have made.
        for l in live:
            row = stats_nodes[l]
            for m in range(n_nodes):
                ns = row[m]
                ns.tx_seconds = a_txs[l][m]
                ns.rx_seconds = a_rxs[l][m]
                ns.latency_sum = a_lat[l][m]
                ns.transmissions = c_tx[l][m]
                ns.receptions = c_rx[l][m]
                ns.below_sensitivity = c_bsen[l][m]
                ns.buffer_drops = c_bdrop[l][m]
                ns.fault_tx_suppressed = c_ftx[l][m]
                ns.fault_rx_suppressed = c_frx[l][m]
                ns.relays = c_rel[l][m]
                ns.sent = {
                    placement[j]: c
                    for j, c in enumerate(sent_c[l][m])
                    if c
                }
                ns.received = {
                    placement[j]: c
                    for j, c in enumerate(recv_c[l][m])
                    if c
                }
                ns.win_sent = {
                    j: c for j, c in enumerate(wsent_c[l][m]) if c
                }
                ns.win_delivered = {
                    j: c for j, c in enumerate(wrecv_c[l][m]) if c
                }
        outcomes: List[SimulationOutcome] = []
        obs = get_active()
        runs_counter = obs.counter("des.runs")
        events_counter = obs.counter("des.events")
        battery = scenario.battery
        rx_mw = scenario.radio.rx_power_mw
        baseline = scenario.app.baseline_mw
        for l, (ci, wi) in enumerate(lanes):
            eff = l if forked[l] else trunk_T[l]
            stats = stats_list[eff]
            mask = masks[wi]
            tx_mw = self.variants[ci].tx_power_mw
            node_pdrs = {loc: stats.node_pdr(loc) for loc in placement}
            node_powers = {
                loc: stats.node_power_mw(loc, tsim, tx_mw, rx_mw, baseline)
                for loc in placement
            }
            windowed: tuple = ()
            if mask is not None:
                node_powers = {
                    loc: power * _power_scale(mask.drains.get(loc), tsim)
                    for loc, power in node_powers.items()
                }
                windowed = stats.windowed_pdr(tsim)
            candidates = [loc for loc in placement if loc != coord]
            worst = max(node_powers[loc] for loc in candidates)
            nlt_days = battery.lifetime_days(worst)
            deliveries = sum(s.deliveries for s in stats.nodes.values())
            latency_total = sum(s.latency_sum for s in stats.nodes.values())
            events = executed[eff] + (
                mask.fault_events if mask is not None else 0
            )
            runs_counter.inc()
            events_counter.inc(events)
            if mask is not None and mask.fault_injected:
                obs.counter("faults.injected").inc(mask.fault_injected)
            outcomes.append(
                SimulationOutcome(
                    pdr=stats.network_pdr(),
                    node_pdrs=node_pdrs,
                    node_powers_mw=node_powers,
                    worst_power_mw=worst,
                    nlt_days=nlt_days,
                    horizon_s=tsim,
                    totals=stats.totals(),
                    events_executed=events,
                    mean_latency_s=(
                        latency_total / deliveries if deliveries else 0.0
                    ),
                    windowed_pdr=windowed,
                )
            )
        return outcomes


def evaluate_batch(
    scenario: ScenarioParameters,
    configs: Sequence[Configuration],
    worlds: Sequence[Optional[FaultScenario]],
) -> Dict[Tuple[int, int], SimulationOutcome]:
    """Evaluate every (configuration, world) lane of one topology batch.

    ``scenario.fault_scenario`` is ignored — fault worlds are passed
    explicitly per lane (``None`` = healthy), so one call covers a whole
    ensemble.  Returns ``{(config_index, world_index): outcome}`` where
    each outcome is the replicate average, bit-identical to the scalar
    path's :func:`repro.core.parallel.run_configuration_outcome` for the
    matching ``replace(scenario, fault_scenario=world)``.

    Raises ``ValueError`` when the batch is unsupported — callers gate
    with :func:`batch_unsupported_reason` first.
    """
    return _BatchKernel(scenario, configs, worlds).run()
