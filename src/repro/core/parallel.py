"""Worker-pool execution layer for the simulation oracle.

The oracle's one evaluation path (``repro.core.evaluator.evaluate_cells``)
hands its pending scalar runs over as *configuration groups*: one
configuration under every effective fault world it still needs (the
healthy network included), run by :func:`run_configuration_group` under
the scenario's replicate protocol.  Each replicate of a group is one
:meth:`repro.net.network.ReplicateJob.run_worlds` call, which simulates
the healthy network once and branches each fault world off it just
before its first fault (DESIGN.md §7).  Groups fan out at one of two
grain levels:

* **whole configurations** — with two or more groups pending, it ships
  one :func:`evaluate_configuration_task` per group to the pool
  (Algorithm 1 evaluates candidate *sets* per iteration, and the
  exhaustive baseline batches naturally);
* **replicates within one configuration** — a lone pending group instead
  hands the pool to its replicate protocol, fixed-count or adaptive
  ε-bounded, which dispatches one replicate index per task and
  aggregates in replicate-index order; a wave of fewer replicates than
  workers also splits the group's worlds into chunks, one task per
  replicate and chunk.

Determinism argument (see DESIGN.md §5): every replicate draws from
RNG streams keyed by ``(seed, replicate, stream-name)`` — disjoint by
construction — so a replicate's outcome is a pure function of its job
description, independent of which process runs it or when.  Aggregation
always happens in replicate-index order over an index prefix, therefore
any fan-out schedule produces results bit-for-bit identical to the serial
path.  For the adaptive protocol the serial stopping rule ("stop at the
first n ≥ min_replicates whose CI half-width ≤ ε") is re-evaluated on
sample *prefixes*, separately for each world of a group, so wave dispatch
may run a few speculative replicates beyond the stopping index but
averages exactly the same prefix the serial loop would.

``n_jobs=1`` never creates a pool: every code path below degrades to the
plain in-process loop with zero behavioural change.

Fault tolerance (DESIGN.md §9): the parallel path survives crashed
workers (``BrokenProcessPool``), hung workers (per-task deadline), and
poison tasks.  Failed tasks are retried with exponential backoff + jitter
drawn from a *dedicated* ``random.Random`` instance — never from the
simulation RNG streams, which are keyed purely by ``(seed, replicate,
stream-name)``, so recovery cannot perturb simulated results.  A task
that keeps failing is quarantined to in-process execution; a pool that
keeps breaking degrades (stickily, loudly) to serial.  Because every
task is a pure function of its description, a retried/quarantined/serial
execution returns bit-identical results — resilience is invisible in the
output and visible only in the ``pool.*`` metrics and trace events.
"""

from __future__ import annotations

import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.convergence import interval_half_width
from repro.core.design_space import Configuration
from repro.core.problem import ScenarioParameters
from repro.net.network import (
    ReplicateJob,
    SimulationOutcome,
    WorldRuns,
    average_outcomes,
    run_worlds_job,
)
from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry

#: Confidence level of the adaptive protocol's stopping interval; matches
#: the default of ``estimate_pdr_with_tolerance``.
ADAPTIVE_CONFIDENCE = 0.95


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None`` or ``1`` → serial; ``0`` → all cores; negative values follow
    the joblib convention (``-1`` = all cores, ``-2`` = all but one, …).
    """
    cores = os.cpu_count() or 1
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        return max(1, cores)
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return n_jobs


#: Environment variable enabling the chaos hook inside pool workers, in
#: the form ``<flag_file_path>:<nth>``: the first worker whose per-process
#: task counter reaches ``nth`` while the flag file still exists consumes
#: the file (atomic ``unlink`` — exactly one worker wins) and dies with
#: ``os._exit``, i.e. a real, unannounced worker crash.  Used by the test
#: suite and the chaos-smoke CI job to exercise the recovery path; inert
#: unless the variable is set AND the flag file exists.
CHAOS_CRASH_ENV = "REPRO_POOL_CHAOS_CRASH"

#: Exit status of a chaos-crashed worker (distinctive in core dumps/CI logs).
CHAOS_EXIT_STATUS = 17

_chaos_tasks_seen = 0


def _maybe_chaos_crash() -> None:
    """Kill this worker process if the chaos hook says it is our turn."""
    global _chaos_tasks_seen
    spec = os.environ.get(CHAOS_CRASH_ENV)
    if not spec:
        return
    _chaos_tasks_seen += 1
    flag, _, nth_text = spec.rpartition(":")
    try:
        nth = int(nth_text)
    except ValueError:
        flag, nth = spec, 1
    if not flag or _chaos_tasks_seen < nth:
        return
    try:
        os.unlink(flag)  # claim the crash token; losers keep working
    except OSError:
        return
    os._exit(CHAOS_EXIT_STATUS)


def pool_task(fn: Callable, task) -> Tuple[object, dict]:
    """The wrapper actually submitted to worker processes.

    Exists so the chaos-crash hook runs *only* inside pool workers —
    serial, quarantine, and degraded paths call ``fn`` directly in the
    parent and are never chaos targets.  Returns ``(result, counters)``:
    the counter increments the task made (``des.runs``, ``des.events``,
    ...), which the parent adds to its own registry so ``--jobs N``
    totals equal serial ones.
    """
    _maybe_chaos_crash()
    metrics = MetricsRegistry()
    tracer = runtime.get_active().tracer
    with runtime.activate(runtime.Instrumentation(metrics, tracer)):
        result = fn(task)
    return result, {
        name: entry["value"]
        for name, entry in metrics.to_dict().items()
        if entry["type"] == "counter"
    }


def _adopt(outcome: Tuple[object, dict]):
    """Merge a pool task's counters into the ambient registry; return
    its result."""
    result, counters = outcome
    obs = runtime.get_active()
    for name, value in counters.items():
        obs.counter(name).inc(value)
    return result


def _observe(kind: str, counter: Optional[str] = None, **fields) -> None:
    """Emit a pool resilience event + counter on the ambient obs."""
    obs = runtime.get_active()
    if counter:
        obs.counter(counter).inc()
    obs.event(kind, **fields)


class WorkerPool:
    """A lazily created, reusable, fault-tolerant process-pool wrapper.

    With ``n_jobs=1`` (the default everywhere) no processes are ever
    forked and :meth:`map_ordered` is a plain list comprehension.  The
    executor is created on first parallel use and reused across calls so
    repeated ``evaluate_many`` batches amortize worker startup.

    The parallel path tolerates worker faults (see the module docstring):

    * a crashed worker (``BrokenProcessPool``) or hung worker (no result
      within ``task_timeout_s``) triggers a pool respawn and a retry of
      the unfinished tasks, after an exponential-backoff sleep whose
      jitter comes from a dedicated RNG (``_backoff_rng``) that shares no
      state with simulation streams;
    * a task blamed for ``quarantine_after`` failures is quarantined:
      executed in-process in the parent, where a pure function returns
      the identical result without risking the pool again.  (Blame is
      necessarily approximate — a broken pool cannot say which task
      killed it — so every task unfinished at the break is charged one
      strike; innocents get re-charged only if the pool keeps dying.)
    * more than ``max_respawns`` respawns within one :meth:`map_ordered`
      call flips the pool into sticky serial degradation with a loud
      stderr diagnostic — forward progress beats parallelism.

    Counters ``pool.retries`` / ``pool.respawns`` / ``pool.quarantined``
    and events ``pool.retry`` / ``pool.respawn`` / ``pool.quarantine`` /
    ``pool.degraded`` are emitted on the ambient instrumentation.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        task_timeout_s: Optional[float] = None,
        quarantine_after: int = 3,
        max_respawns: int = 3,
        backoff_base_s: float = 0.05,
    ) -> None:
        self.n_jobs = resolve_jobs(n_jobs)
        self.task_timeout_s = task_timeout_s
        self.quarantine_after = max(1, int(quarantine_after))
        self.max_respawns = max(0, int(max_respawns))
        self.backoff_base_s = max(0.0, float(backoff_base_s))
        self._executor: Optional[ProcessPoolExecutor] = None
        self._degraded = False
        # Dedicated jitter source: fixed seed, one stream per pool, no
        # relation to the simulation RNG keying (seed, replicate, name).
        self._backoff_rng = random.Random(0x5EEDBAC0)
        #: Lifetime resilience tallies (mirrored into ambient metrics).
        self.retries = 0
        self.respawns = 0
        self.quarantined = 0

    @property
    def parallel(self) -> bool:
        return self.n_jobs > 1 and not self._degraded

    @property
    def degraded(self) -> bool:
        return self._degraded

    def map_ordered(
        self,
        fn: Callable,
        tasks: Sequence,
        on_result: Optional[Callable] = None,
    ) -> List:
        """Apply ``fn`` to each task, returning results in task order.

        Results are bit-identical to ``[fn(t) for t in tasks]`` no matter
        how many workers crash, hang, or get quarantined along the way.

        ``on_result(index, result)``, when given, is invoked in the
        *parent* as each task completes (completion order, not task
        order) — a progress hook for long campaigns.  It only observes:
        results are collected and returned identically with or without
        it, and a callback that raises propagates rather than being
        swallowed (a broken progress consumer should be loud).
        """
        tasks = list(tasks)
        if not self.parallel or len(tasks) <= 1:
            results = []
            for index, task in enumerate(tasks):
                result = fn(task)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
            return results
        return self._map_resilient(fn, tasks, on_result)

    # -- resilient parallel execution --------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_jobs)
        return self._executor

    def _kill_executor(self) -> None:
        """Tear the executor down even if its workers are unresponsive."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _backoff(self, round_index: int) -> None:
        if self.backoff_base_s <= 0:
            return
        delay = self.backoff_base_s * (2**round_index)
        delay *= 0.5 + self._backoff_rng.random()  # jitter in [0.5, 1.5)
        time.sleep(min(delay, 5.0))

    def _degrade(self, reason: str) -> None:
        self._degraded = True
        print(
            f"repro.core.parallel: WORKER POOL DEGRADED TO SERIAL — "
            f"{reason}; continuing in-process (correctness unaffected, "
            f"parallel speedup lost)",
            file=sys.stderr,
            flush=True,
        )
        _observe("pool.degraded", reason=reason, n_jobs=self.n_jobs)

    def _map_resilient(
        self,
        fn: Callable,
        tasks: List,
        on_result: Optional[Callable] = None,
    ) -> List:
        results: List = [None] * len(tasks)
        pending = set(range(len(tasks)))
        strikes = [0] * len(tasks)
        respawns_this_call = 0
        round_index = 0

        def _done(i: int) -> None:
            pending.discard(i)
            if on_result is not None:
                on_result(i, results[i])

        while pending:
            # Quarantine poison suspects: run them here in the parent,
            # where they cannot take the pool down (pure function ⇒ same
            # result as a healthy worker would have produced).
            for i in sorted(pending):
                if strikes[i] >= self.quarantine_after:
                    self.quarantined += 1
                    _observe(
                        "pool.quarantine",
                        counter="pool.quarantined",
                        task_index=i,
                        strikes=strikes[i],
                    )
                    results[i] = fn(tasks[i])
                    _done(i)
            if not pending:
                break
            if self._degraded:
                for i in sorted(pending):
                    results[i] = fn(tasks[i])
                    _done(i)
                return results

            executor = self._ensure_executor()
            order = sorted(pending)
            try:
                futures = {
                    i: executor.submit(pool_task, fn, tasks[i])
                    for i in order
                }
            except BrokenProcessPool:
                futures = {}
            failed: List[int] = []
            hung: Optional[int] = None
            if not futures:
                failed = list(order)
            for i in order:
                if i not in futures or hung is not None:
                    continue
                try:
                    results[i] = _adopt(
                        futures[i].result(timeout=self.task_timeout_s)
                    )
                    _done(i)
                except FutureTimeout:
                    hung = i
                    failed.append(i)
                except BrokenProcessPool:
                    failed.append(i)
            if hung is not None:
                # A deadline expired: the worker is presumed wedged, and
                # the futures behind it are useless once we kill the pool.
                # Harvest whatever already finished, blame only the hung
                # task, and requeue the rest without a strike.
                for j in order:
                    if j in pending and j != hung and j in futures:
                        fut = futures[j]
                        if fut.done():
                            try:
                                results[j] = _adopt(fut.result(timeout=0))
                                _done(j)
                            except Exception:
                                failed.append(j)

            if not failed and pending:
                # Shouldn't happen (every pending index either succeeded
                # or failed above), but never spin silently.
                failed = sorted(pending)
            if not pending:
                break

            # Recovery: count strikes, respawn the pool, back off, retry.
            for i in failed:
                if i in pending:
                    strikes[i] += 1
            retrying = [i for i in failed if i in pending]
            self.retries += len(retrying)
            _observe(
                "pool.retry",
                tasks=len(retrying),
                hung_task=hung,
                round=round_index,
            )
            runtime.get_active().counter("pool.retries").inc(len(retrying))

            self._kill_executor()
            respawns_this_call += 1
            self.respawns += 1
            _observe(
                "pool.respawn",
                counter="pool.respawns",
                round=round_index,
                reason="hung worker" if hung is not None else "broken pool",
            )
            if respawns_this_call > self.max_respawns:
                self._degrade(
                    f"{respawns_this_call} pool respawns in one batch "
                    f"(limit {self.max_respawns})"
                )
                continue
            self._backoff(round_index)
            round_index += 1

        return results

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def replicate_job(
    scenario: ScenarioParameters, config: Configuration, index: int
) -> ReplicateJob:
    """Translate (scenario, configuration, replicate index) into the
    picklable work unit the pool executes."""
    return ReplicateJob(
        placement=config.placement,
        radio_spec=scenario.radio,
        tx_mode=scenario.tx_mode(config.tx_dbm),
        mac_options=scenario.mac_options(config.mac),
        routing_options=scenario.routing_options(config.routing),
        app_params=scenario.app,
        tsim_s=scenario.tsim_s,
        replicate=index,
        seed=scenario.seed,
        battery=scenario.battery,
        body=scenario.body,
        pathloss_params=scenario.pathloss,
        fading_params=scenario.fading,
        fault_scenario=scenario.fault_scenario,
    )


def _serial_map(fn: Callable, tasks: Sequence) -> List:
    return [fn(task) for task in tasks]


def adaptive_stop_count(
    pdrs: Sequence[float],
    epsilon: float,
    min_replicates: int,
    confidence: float = ADAPTIVE_CONFIDENCE,
) -> Optional[int]:
    """The replicate count the *serial* sequential procedure would stop at.

    Returns the smallest prefix length ``n`` in
    ``[min_replicates, len(pdrs)]`` whose confidence-interval half-width is
    within ``epsilon``, or ``None`` if no prefix converges yet.  Evaluating
    the rule on prefixes (rather than on whatever set of samples happens to
    be available) is what keeps parallel wave dispatch bit-identical to
    serial replication.
    """
    samples = [float(p) for p in pdrs]
    for n in range(min_replicates, len(samples) + 1):
        if interval_half_width(samples[:n], confidence) <= epsilon:
            return n
    return None


def run_configuration_group(
    scenario: ScenarioParameters,
    config: Configuration,
    worlds: Sequence,
    map_fn: Optional[Callable] = None,
    wave: int = 1,
) -> WorldRuns:
    """One configuration under each of ``worlds`` with the scenario's
    replicate protocol; ``outcomes[i]`` is the replicate average for
    ``worlds[i]``.

    ``scenario`` is healthy; ``worlds`` are as for
    :meth:`repro.net.network.ReplicateJob.run_worlds` (``None`` is the
    healthy network).  Replicate ``r`` is one ``run_worlds`` call, run
    through the order-preserving ``map_fn``, over the worlds still
    running.  The fixed-count protocol (Tsim × ``scenario.replicates``)
    runs every replicate in one wave.  The ε-bounded protocol (Sec. 2.2)
    dispatches waves of ``wave`` replicates (1 reproduces the serial
    one-at-a-time schedule exactly) and stops each world at its own
    serial stopping count (:func:`adaptive_stop_count` on its sample
    prefixes), so each world's average is the prefix the one-world loop
    would take — never "whatever finished" — independent of the fan-out
    schedule and of the other worlds.

    A wave of fewer replicates than ``wave`` would leave workers idle, so
    it splits the running worlds into chunks, one ``run_worlds`` call
    per replicate and chunk: each chunk simulates its own healthy prefix,
    and the healthy entry is in exactly one chunk.  Every outcome is a
    pure function of its (replicate, world), so chunking moves walls and
    the ``branched`` count, never an outcome.
    """
    map_fn = map_fn or _serial_map
    if scenario.adaptive_replicates:
        min_replicates = max(2, scenario.replicates)
        max_replicates = max(scenario.max_replicates, scenario.replicates)
    elif scenario.replicates < 1:
        raise ValueError("need at least one replicate")
    else:
        min_replicates = max_replicates = scenario.replicates
    wave = max(1, wave)

    samples: List[List[SimulationOutcome]] = [[] for _ in worlds]
    walls = [0.0] * len(worlds)
    stops: List[Optional[int]] = [None] * len(worlds)
    branched = 0
    next_index = 0
    while next_index < max_replicates:
        running = [i for i, stop in enumerate(stops) if stop is None]
        if not running:
            break
        # The first wave always reaches min_replicates (the rule cannot
        # stop earlier); afterwards dispatch `wave` replicates at a time.
        end = min(max_replicates, max(min_replicates, next_index + wave))
        parts = max(1, min(len(running), wave // (end - next_index)))
        chunks = [running[part::parts] for part in range(parts)]
        tasks = [
            (replicate_job(scenario, config, index),
             tuple(worlds[i] for i in chunk))
            for index in range(next_index, end)
            for chunk in chunks
        ]
        # Replicate-major task order: each world's samples stay in
        # replicate order.
        for task, runs in enumerate(map_fn(run_worlds_job, tasks)):
            branched += runs.branched
            chunk = chunks[task % parts]
            for i, outcome, wall in zip(chunk, runs.outcomes, runs.walls):
                samples[i].append(outcome)
                walls[i] += wall
        next_index = end
        if scenario.adaptive_replicates:
            for i in running:
                stops[i] = adaptive_stop_count(
                    [o.pdr for o in samples[i]],
                    scenario.pdr_epsilon,
                    min_replicates,
                )
    outcomes = [
        average_outcomes(runs[:stop], scenario.battery)
        for runs, stop in zip(samples, stops)
    ]
    return WorldRuns(outcomes, walls, branched)


def run_configuration_outcome(
    scenario: ScenarioParameters,
    config: Configuration,
    map_fn: Optional[Callable] = None,
    wave: int = 1,
) -> SimulationOutcome:
    """Complete one-configuration evaluation of the scenario's own world
    under its replicate protocol (fixed or adaptive), optionally
    replicate-parallel via ``map_fn``.  A fault world is attached at
    t = 0: with one world there is nothing to branch from."""
    return run_configuration_group(
        replace(scenario, fault_scenario=None), config,
        (scenario.fault_scenario,), map_fn, wave,
    ).outcomes[0]


def evaluate_configuration_task(
    task: Tuple[ScenarioParameters, Configuration, Tuple],
) -> WorldRuns:
    """Configuration-grain pool task: run the full replicate protocol of
    one configuration group serially *inside* the worker."""
    return run_configuration_group(*task)
