"""RunSim: the simulation oracle of Algorithm 1 (line 7).

Wraps the simulation entry points of :mod:`repro.net.network` with:

* translation from a :class:`repro.core.design_space.Configuration` to the
  concrete component stack of the scenario;
* replicate averaging per the paper's protocol (3 × 600 s), both
  fixed-count and adaptive ε-bounded;
* one evaluation path, :func:`evaluate_cells`, behind both the nominal
  oracle and the fault-ensemble oracle (:mod:`repro.faults.resilience`):
  it looks each (configuration, world) cell up once, runs the misses —
  the batched kernel (:mod:`repro.core.batch`) for TX variants of one
  topology, otherwise one scalar group per configuration, whose healthy
  run each fault world branches off just before its first fault, on
  the worker pool (:mod:`repro.core.parallel`) at configuration grain,
  or at replicate grain for a lone group — and commits every request in
  request order, bit-identical to serial execution by construction
  (disjoint RNG streams per replicate, index-order aggregation, branches
  equal to runs from t = 0);
* two-tier memoization — an in-memory journal plus an optional persistent
  :class:`repro.core.result_cache.ResultCache` that survives process
  restarts and is shared across experiments.  Algorithm 1 and the baseline
  optimizers may revisit configurations (simulated annealing in particular
  re-proposes points); the paper's efficiency metric is *distinct*
  simulations, which the cache both enforces and counts;
* aggregate telemetry (:meth:`SimulationOracle.stats`) for experiment
  summaries, computed from ``oracle.*`` instruments in a
  :class:`repro.obs.MetricsRegistry`, plus per-evaluation trace
  milestones when a tracer is attached (``--trace-out``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import batch_unsupported_reason, evaluate_batch
from repro.core.design_space import Configuration
from repro.core.parallel import (
    WorkerPool,
    evaluate_configuration_task,
    resolve_jobs,
    run_configuration_group,
)
from repro.core.problem import ScenarioParameters
from repro.core.result_cache import ResultCache, scenario_fingerprint
from repro.faults.model import FaultScenario
from repro.net.network import SimulationOutcome
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Instrumentation, get_active


@dataclass(frozen=True)
class EvaluationRecord:
    """One simulated configuration and its measured metrics."""

    config: Configuration
    pdr: float
    power_mw: float
    nlt_days: float
    wall_seconds: float
    outcome: SimulationOutcome

    @property
    def pdr_percent(self) -> float:
        return 100.0 * self.pdr


class SimulationOracle:
    """Caching simulation evaluator bound to one scenario.

    Parameters
    ----------
    scenario:
        The fixed scenario (χ constants, measurement protocol, seed).
    n_jobs:
        Worker processes for parallel fan-out.  ``None`` defers to
        ``scenario.n_jobs``; ``1`` is the serial in-process path (no pool
        is ever created); ``0``/negative follow the joblib convention
        (all cores / all-but-k).  Results are bit-identical for every
        value — see DESIGN.md §5.
    cache_dir:
        Directory for the persistent result cache.  ``None`` defers to
        ``scenario.cache_dir``; when both are ``None`` the oracle is
        memory-only, preserving the historical behaviour.
    obs:
        Observability bundle (:class:`repro.obs.Instrumentation`).  All
        oracle statistics live in its metrics registry (``oracle.*``
        instruments) and evaluation milestones go to its tracer.  The
        default is a private registry plus whatever tracer is ambiently
        active (:func:`repro.obs.get_active`), so ``--trace-out`` reaches
        oracles created deep inside experiment harnesses while counters
        stay isolated per oracle.

    Insertion-order contract: :attr:`all_records` lists distinct
    evaluations in *first-request order* — the order in which this oracle
    instance was first asked to evaluate each configuration.  Cache hits
    (memory or disk) never reorder the journal, and a warm disk cache
    never injects configurations that were not requested, so the Fig. 3
    scatter is stable across cache temperatures, ``n_jobs`` settings and
    batch modes (:func:`evaluate_cells` commits in request order).
    """

    def __init__(
        self,
        scenario: ScenarioParameters,
        n_jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        obs: Optional[Instrumentation] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.scenario = scenario
        requested = n_jobs if n_jobs is not None else getattr(scenario, "n_jobs", 1)
        self.n_jobs = resolve_jobs(requested)
        # `pool` lets an ensemble of oracles (one per fault scenario —
        # repro.faults.resilience) share one set of worker processes
        # instead of forking a pool each; a shared pool is never shut
        # down by close().
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else WorkerPool(self.n_jobs)
        if pool is not None:
            self.n_jobs = pool.n_jobs
        #: first-request-ordered journal of distinct evaluations.
        self._cache: Dict[Tuple, EvaluationRecord] = {}
        directory = cache_dir if cache_dir is not None else getattr(
            scenario, "cache_dir", None
        )
        self._disk: Optional[ResultCache] = None
        if directory is not None:
            self._disk = ResultCache(directory, scenario_fingerprint(scenario))
        self.obs = obs if obs is not None else Instrumentation(
            MetricsRegistry(), get_active().tracer
        )
        # The oracle's run statistics live in the metrics registry — the
        # single source of truth behind simulations_run / stats() — with
        # direct instrument references so the hot path never touches the
        # registry dict.
        self._c_sims = self.obs.counter("oracle.simulations")
        self._c_hits = self.obs.counter("oracle.cache_hits")
        self._c_disk = self.obs.counter("oracle.disk_hits")
        #: Oracle-side elapsed time spent producing new results; with
        #: parallel fan-out this is smaller than the summed per-evaluation
        #: worker walls, and their ratio is the measured speedup vs.
        #: serial execution.
        self._c_elapsed = self.obs.counter("oracle.elapsed_seconds")
        self._h_wall = self.obs.histogram("oracle.wall_seconds")
        self._c_replayed = self.obs.counter("oracle.journal_replayed")
        #: Batched-lane dispatch (DESIGN.md §10): ``scenario.batch_mode``
        #: picks the policy; the counters record how much of the work
        #: took the batched kernel vs the scalar DES.
        self.batch_mode = getattr(scenario, "batch_mode", "auto")
        self._c_batch_calls = self.obs.counter("oracle.batch_calls")
        self._c_batched = self.obs.counter("oracle.batched_evaluations")
        self._c_batch_lanes = self.obs.counter("oracle.batched_lanes")
        self._c_scalar = self.obs.counter("oracle.scalar_evaluations")
        #: Records restored from a run journal, waiting to be adopted on
        #: first request (see :meth:`preload_journal`).
        self._journal_pending: Dict[Tuple, EvaluationRecord] = {}

    # -- journal replay (checkpoint/resume, DESIGN.md §9) ------------------------

    def preload_journal(self, records: Sequence[EvaluationRecord]) -> None:
        """Stage records restored from a run journal for adoption.

        A staged record is *adopted* the first time its configuration is
        requested: it enters the journal at that request's position and
        is accounted exactly as if the simulation had just run —
        ``simulations_run`` increments, the persisted wall time lands in
        the histogram, the trace milestone says ``cached=False`` — so a
        resumed run's counters, summary, and trace are bit-identical to
        the uninterrupted run it replays.  ``journal_replayed`` counts
        adoptions separately, which is how tests assert that a resume
        re-simulated nothing.
        """
        for record in records:
            key = record.config.key()
            if key not in self._cache:
                self._journal_pending[key] = record

    # -- telemetry counters (registry-backed, read-only) -------------------------

    @property
    def simulations_run(self) -> int:
        return int(self._c_sims.value)

    @property
    def cache_hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def disk_hits(self) -> int:
        return int(self._c_disk.value)

    @property
    def total_wall_seconds(self) -> float:
        return self._h_wall.total

    @property
    def journal_replayed(self) -> int:
        """Simulations answered by journal replay instead of execution."""
        return int(self._c_replayed.value)

    @property
    def elapsed_seconds(self) -> float:
        return float(self._c_elapsed.value)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, config: Configuration) -> EvaluationRecord:
        """Simulate a configuration (or return the cached record).

        With ``n_jobs > 1`` the replicates of this single evaluation are
        fanned out across the pool (waves for the adaptive protocol) and
        aggregated in replicate-index order.
        """
        return evaluate_cells([self], [config])[0][0]

    def evaluate_many(
        self, configs: Sequence[Configuration]
    ) -> List[EvaluationRecord]:
        """RunSim over a candidate set, preserving order.

        Uncached configurations run concurrently at configuration grain
        with ``n_jobs > 1``, and misses sharing a topology take the
        batched kernel (:mod:`repro.core.batch`) when ``batch_mode``
        allows; see :func:`evaluate_cells`.  Records, hit accounting,
        journal order and trace milestones equal the one-at-a-time loop
        in every mode.
        """
        configs = list(configs)
        with self.obs.span("oracle.evaluate_many", n=len(configs)):
            return [row[0] for row in evaluate_cells([self], configs)]

    def _peek(self, key: Tuple) -> Optional[Tuple[EvaluationRecord, bool]]:
        """``(record, from_disk)`` answering ``key`` without simulating —
        a staged journal record, then memory, then disk — or ``None``.
        Changes no state; :meth:`_commit` does the accounting."""
        record = self._journal_pending.get(key)
        if record is None:
            record = self._cache.get(key)
        if record is not None:
            return record, False
        if self._disk is not None:
            record = self._disk.get(key)
            if record is not None:
                return record, True
        return None

    def _commit(
        self, key: Tuple, record: EvaluationRecord, from_disk: bool
    ) -> EvaluationRecord:
        """Account one request for ``key`` answered by ``record``; returns
        the record the oracle holds for it.

        The first request of a configuration enters the journal: a disk
        record counts a (disk) hit, anything else — a fresh run or an
        adopted journal record — counts a simulation and is persisted.
        Every later request, including a repeat within one call, counts
        a memory hit.  Each request leaves one ``oracle.evaluate``
        milestone.
        """
        held = self._cache.get(key)
        if held is not None or from_disk:
            if held is None:
                self._cache[key] = held = record
                self._c_disk.inc()
            self._c_hits.inc()
            self._trace_record(held, cached=True)
            return held
        self._cache[key] = record
        if self._journal_pending.pop(key, None) is not None:
            self._c_replayed.inc()
        self._c_sims.inc()
        self._h_wall.observe(record.wall_seconds)
        if self._disk is not None:
            self._disk.put(record)
        self._trace_record(record, cached=False)
        return record

    def _trace_record(self, record: EvaluationRecord, cached: bool) -> None:
        """Emit the per-evaluation trace milestone (no-op by default)."""
        if not self.obs.tracing:
            return
        self.obs.event(
            "oracle.evaluate",
            config=record.config.label(),
            cached=cached,
            pdr=record.pdr,
            power_mw=record.power_mw,
            replicates=record.outcome.replicates,
            wall_s=round(record.wall_seconds, 6),
        )

    # -- journal & telemetry -----------------------------------------------------

    @property
    def all_records(self) -> List[EvaluationRecord]:
        """Every distinct configuration evaluated so far, in first-request
        order (see the class docstring) — the scatter data behind the
        paper's Fig. 3."""
        return list(self._cache.values())

    def record_for(self, config: Configuration) -> Optional[EvaluationRecord]:
        return self._cache.get(config.key())

    def stats(self) -> Dict[str, float]:
        """Aggregate oracle telemetry for experiment summaries.

        Every value is derived from the ``oracle.*`` instruments in
        :attr:`obs` — there is no separate bookkeeping to drift out of
        sync with the metrics registry.
        """
        sims = self.simulations_run
        hits = self.cache_hits
        lookups = sims + hits
        total_wall = self._h_wall.total
        elapsed = self.elapsed_seconds
        return {
            "simulations_run": sims,
            "cache_hits": hits,
            "disk_hits": self.disk_hits,
            "journal_replayed": self.journal_replayed,
            "hit_rate": hits / lookups if lookups else 0.0,
            "total_wall_seconds": total_wall,
            "elapsed_seconds": elapsed,
            "p50_wall_seconds": self._h_wall.quantile(0.50),
            "p95_wall_seconds": self._h_wall.quantile(0.95),
            "speedup_vs_serial_estimate": (
                total_wall / elapsed if elapsed > 0 else 1.0
            ),
            "n_jobs": self.n_jobs,
            "batch_mode": self.batch_mode,
            "batch_calls": int(self._c_batch_calls.value),
            "batched_evaluations": int(self._c_batched.value),
            "batched_lanes": int(self._c_batch_lanes.value),
            "scalar_evaluations": int(self._c_scalar.value),
        }

    def format_stats(self) -> str:
        """One-line telemetry summary for experiment reports."""
        s = self.stats()
        return (
            f"oracle: {s['simulations_run']} simulations, "
            f"{s['cache_hits']} cache hits "
            f"({100.0 * s['hit_rate']:.1f}% hit rate, "
            f"{s['disk_hits']} from disk), "
            f"wall p50={s['p50_wall_seconds']:.3f}s "
            f"p95={s['p95_wall_seconds']:.3f}s, "
            f"n_jobs={s['n_jobs']}, "
            f"est. speedup {s['speedup_vs_serial_estimate']:.2f}x"
        )

    # -- persistent-cache hooks --------------------------------------------------

    @property
    def disk_cache(self) -> Optional[ResultCache]:
        return self._disk

    def attach_cache(self, cache_dir: str) -> None:
        """Attach (or switch) the persistent cache and persist any
        in-memory records the new store does not have yet."""
        self._disk = ResultCache(
            cache_dir, scenario_fingerprint(self.scenario)
        )
        self.save_cache()

    def save_cache(self) -> None:
        """Persist every in-memory record to the disk cache (no-op when
        memory-only; ``put`` deduplicates)."""
        if self._disk is None:
            return
        for record in self._cache.values():
            self._disk.put(record)

    def invalidate_cache(self) -> None:
        """Drop all cached results — memory journal and disk store."""
        self._cache.clear()
        if self._disk is not None:
            self._disk.invalidate()

    # -- lifecycle ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the run counters without discarding cached results."""
        self._c_sims.reset()
        self._c_hits.reset()
        self._c_disk.reset()
        self._c_elapsed.reset()
        self._c_replayed.reset()
        self._c_batch_calls.reset()
        self._c_batched.reset()
        self._c_batch_lanes.reset()
        self._c_scalar.reset()
        self._h_wall.reset()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).  A pool injected at
        construction belongs to its creator and is left running."""
        if self._owns_pool:
            self._pool.shutdown()

    def __enter__(self) -> "SimulationOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the one RunSim dispatcher ----------------------------------------------------

#: Fewest lanes a topology group needs to take the batched kernel, per
#: ``batch_mode`` (``None``: never).
_MIN_LANES = {"off": None, "on": 1, "auto": 2}


def _copy_outcome(outcome: SimulationOutcome) -> SimulationOutcome:
    """An equal outcome owning its own dicts, so records sharing one run
    never alias each other's mutable fields."""
    return replace(
        outcome,
        node_pdrs=dict(outcome.node_pdrs),
        node_powers_mw=dict(outcome.node_powers_mw),
        totals=dict(outcome.totals),
    )


def evaluate_cells(
    oracles: Sequence[SimulationOracle], configs: Sequence[Configuration]
) -> List[List[EvaluationRecord]]:
    """RunSim over ``configs`` × ``oracles``: ``records[i][w]`` is
    ``configs[i]`` under ``oracles[w]``.

    The oracles share one worker pool and one metrics registry and
    differ only in their scenario's fault world: ``[oracle]`` for a
    nominal run, the healthy oracle plus one per fault world for an
    ensemble (:class:`repro.faults.resilience.EnsembleOracle`).

    1. Each distinct ``(configuration, world)`` cell is looked up once,
       without side effects (:meth:`SimulationOracle._peek`).
    2. The misses run (:func:`_run_misses`): the batched kernel for TX
       variants of one topology when ``batch_mode`` allows, otherwise
       one scalar run per ``(configuration, effective world)``.
    3. Every request is committed in request order, configuration-major
       (:meth:`SimulationOracle._commit`).

    Each outcome is a pure function of its cell, so records, journal
    order, disk appends, counters and ``oracle.evaluate`` milestones are
    those of the one-at-a-time loop in every batch mode, at any worker
    count and at any cache temperature.
    """
    keys = [config.key() for config in configs]
    distinct: Dict[Tuple, Configuration] = {}
    for key, config in zip(keys, configs):
        distinct.setdefault(key, config)
    found: Dict[Tuple[Tuple, int], Tuple[EvaluationRecord, bool]] = {}
    missing: Dict[Tuple, List[int]] = {}
    for key in distinct:
        for w, oracle in enumerate(oracles):
            hit = oracle._peek(key)
            if hit is None:
                missing.setdefault(key, []).append(w)
            else:
                found[(key, w)] = hit
    if missing:
        ran = _run_misses(oracles, distinct, missing)
        for (key, w), (outcome, wall) in ran.items():
            record = EvaluationRecord(
                config=distinct[key],
                pdr=outcome.pdr,
                power_mw=outcome.worst_power_mw,
                nlt_days=outcome.nlt_days,
                wall_seconds=wall,
                outcome=outcome,
            )
            found[(key, w)] = (record, False)
    return [
        [oracle._commit(key, *found[(key, w)])
         for w, oracle in enumerate(oracles)]
        for key in keys
    ]


def _run_misses(
    oracles: Sequence[SimulationOracle],
    distinct: Dict[Tuple, Configuration],
    missing: Dict[Tuple, List[int]],
) -> Dict[Tuple[Tuple, int], Tuple[SimulationOutcome, float]]:
    """Simulate the missing cells; ``{(key, world): (outcome, wall)}``.

    Configurations sharing placement, MAC and routing *and* missing the
    same worlds form one topology group; a supported group with at least
    the ``batch_mode`` lane threshold (``auto``: 2, ``on``: 1, ``off``:
    never) takes one batched-kernel call (DESIGN.md §10), whose wall is
    split evenly over its lanes.  Every other cell resolves to its
    effective world — the faults of its world that touch the placement,
    ``()`` when healthy — and each distinct ``(configuration, effective
    world)`` runs once on the scalar path, because a world that misses
    every node builds the healthy network (DESIGN.md §7); the cells that
    share a run get a copy of its outcome and a wall of 0.0.  A
    configuration's scalar runs form one group
    (:func:`repro.core.parallel.run_configuration_group`): its healthy
    network is simulated once per replicate and each fault world
    branches off it just before its first fault.  Groups go to the pool
    at configuration grain; a lone group fans its replicates out over
    the pool instead, and its worlds too when it has fewer replicates
    than workers.
    """
    lead = oracles[0]
    scenario = lead.scenario
    ran: Dict[Tuple[Tuple, int], Tuple[SimulationOutcome, float]] = {}
    min_lanes = _MIN_LANES[lead.batch_mode]
    groups: Dict[Tuple, List[Tuple]] = {}
    if min_lanes is not None:
        for key, worlds in missing.items():
            config = distinct[key]
            if batch_unsupported_reason(scenario, config) is None:
                groups.setdefault(
                    (config.placement, config.mac, config.routing,
                     tuple(worlds)),
                    [],
                ).append(key)
    for (*_topology, worlds), keys in groups.items():
        lanes = len(keys) * len(worlds)
        if lanes < min_lanes:
            continue
        start = time.perf_counter()
        outcomes = evaluate_batch(
            scenario,
            [distinct[key] for key in keys],
            [oracles[w].scenario.fault_scenario for w in worlds],
        )
        wall = time.perf_counter() - start
        lead._c_elapsed.inc(wall)
        lead._c_batch_calls.inc()
        lead._c_batched.inc(lanes)
        # Lanes = scalar DES runs the batch replaced (one per replicate).
        lead._c_batch_lanes.inc(lanes * scenario.replicates)
        for ci, key in enumerate(keys):
            for wi, w in enumerate(worlds):
                ran[(key, w)] = (outcomes[(ci, wi)], wall / lanes)
        if lead.obs.tracing:
            lead.obs.event(
                "oracle.batch",
                configs=len(keys),
                worlds=len(worlds),
                lanes=lanes,
                wall_s=round(wall, 6),
            )

    # One group per configuration: the distinct effective worlds it still
    # needs (None: healthy), each the first cell's world; a cell whose
    # effective world is already in its group shares that run.
    config_groups: Dict[Tuple, List[Optional[FaultScenario]]] = {}
    cells = []
    for key, worlds in missing.items():
        config = distinct[key]
        effectives: List[Tuple] = []
        for w in worlds:
            if (key, w) in ran:
                continue
            fault = oracles[w].scenario.fault_scenario
            effective = () if fault is None else fault.applicable(
                config.placement
            )
            shared = effective in effectives
            if not shared:
                effectives.append(effective)
                config_groups.setdefault(key, []).append(
                    fault if effective else None
                )
            cells.append((key, w, effectives.index(effective), shared))
    if not config_groups:
        return ran
    healthy = replace(scenario, fault_scenario=None)
    tasks = [
        (healthy, distinct[key], tuple(worlds))
        for key, worlds in config_groups.items()
    ]
    pool = lead._pool
    start = time.perf_counter()
    if len(tasks) == 1:
        results = [run_configuration_group(
            *tasks[0], map_fn=pool.map_ordered, wave=pool.n_jobs
        )]
    else:
        results = pool.map_ordered(evaluate_configuration_task, tasks)
    lead._c_elapsed.inc(time.perf_counter() - start)
    runs = sum(len(worlds) for worlds in config_groups.values())
    lead._c_scalar.inc(runs)
    if len(cells) > runs:
        lead.obs.counter("oracle.shared_evaluations").inc(len(cells) - runs)
    branched = sum(result.branched for result in results)
    if branched:
        lead.obs.counter("oracle.branched_evaluations").inc(branched)
    by_key = dict(zip(config_groups, results))
    for key, w, run, shared in cells:
        result = by_key[key]
        outcome = result.outcomes[run]
        ran[(key, w)] = (_copy_outcome(outcome), 0.0) if shared else (
            outcome, result.walls[run]
        )
    return ran
