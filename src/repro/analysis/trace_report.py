"""Human-readable breakdown of a ``--trace-out`` JSONL run trace.

Usage::

    python -m repro.analysis.trace_report run.jsonl
    python -m repro.analysis.trace_report --metrics run.metrics.json run.jsonl

The report reconstructs, from the trace alone, what a run did and where
its wall clock went: the manifest, the explorer's full candidate
accept/reject trajectory (every ``explorer.*`` milestone, nominal and
robust), the fault campaign (``faults.inject`` timeline plus per-config
``faults.resilience`` summaries), oracle activity (simulations vs. cache
hits, wall-time percentiles), MILP solve statistics (B&B nodes, LP
pivots, incumbent updates), DES milestones, and a per-span time rollup.
With ``--metrics`` the final ``--metrics-out`` counter snapshot is
appended.

Broken inputs degrade gracefully rather than raising: a missing, empty,
or fully corrupt trace (or metrics) file produces a one-line diagnostic
on stderr and exit code 1; a trace truncated mid-line (e.g. the run was
killed while writing) still renders a report for the readable prefix,
with a skipped-line warning, and also exits 1 so CI scripts notice.

:func:`explorer_sequence` is the *deterministic projection* of a trace:
the ordered ``explorer.*`` events with all timing/bookkeeping fields
(``t``, ``seq``, ``span``) stripped.  Two seeded runs of the same
scenario produce identical projections regardless of ``n_jobs`` or cache
temperature — the invariant pinned by the golden-trace regression test.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Optional

from repro.obs.tracing import check_span_balance

#: Trace bookkeeping fields that vary run-to-run even for identical
#: behaviour; stripped by the deterministic projection.
NONDETERMINISTIC_FIELDS = frozenset({"t", "seq", "span"})

#: Event kinds that constitute the explorer's decision trajectory.
EXPLORER_KINDS_PREFIX = "explorer."


def load_trace(path) -> "tuple[List[dict], int]":
    """Read a JSONL trace, tolerating partial writes.

    Returns ``(events, skipped)`` where ``skipped`` counts non-blank
    lines that were not valid JSON objects — a truncated final line from
    a killed run being the common case.  Raises :class:`OSError` only
    when the file itself cannot be opened.
    """
    events: List[dict] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(payload, dict):
                events.append(payload)
            else:
                skipped += 1
    return events, skipped


def load_metrics(path) -> Dict[str, dict]:
    """Read a ``--metrics-out`` JSON snapshot.

    Raises :class:`OSError` when unreadable and :class:`ValueError` when
    the content is empty, truncated, or not a JSON object — callers turn
    both into a diagnostic rather than a traceback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError("file is empty")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not valid JSON (truncated write?): {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object of instruments")
    return payload


def explorer_sequence(events: List[dict]) -> List[dict]:
    """The deterministic explorer trajectory embedded in a trace."""
    sequence = []
    for ev in events:
        if str(ev.get("kind", "")).startswith(EXPLORER_KINDS_PREFIX):
            sequence.append(
                {
                    k: v
                    for k, v in ev.items()
                    if k not in NONDETERMINISTIC_FIELDS
                }
            )
    return sequence


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.2f}s"
    return f"{1000.0 * s:.1f}ms"


def _quantile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _manifest_section(events: List[dict], lines: List[str]) -> None:
    manifests = [e for e in events if e.get("kind") == "manifest"]
    if not manifests:
        return
    m = manifests[0]
    lines.append("manifest")
    for key in sorted(m):
        if key in NONDETERMINISTIC_FIELDS or key == "kind":
            continue
        lines.append(f"  {key}: {m[key]}")


def _explorer_section(events: List[dict], lines: List[str]) -> None:
    sequence = explorer_sequence(events)
    if not sequence:
        return
    lines.append("explorer trajectory")
    for ev in sequence:
        kind = ev["kind"][len(EXPLORER_KINDS_PREFIX):]
        # A robust run emits the nominal milestones under a ``robust_``
        # prefix; iteration, cut, bound and done render alike.
        step = kind.removeprefix("robust_")
        tag = "robust " if step != kind else ""
        if kind == "start":
            lines.append(
                f"  run: PDRmin={100.0 * ev.get('pdr_min', 0):.2f}%"
                f"{'  (exhaustive sweep)' if ev.get('exhaustive') else ''}"
            )
        elif kind == "robust_start":
            lines.append(
                f"  robust run: PDRmin={100.0 * ev.get('pdr_min', 0):.2f}% "
                f"at quantile q={ev.get('quantile', 0):.2f}"
            )
        elif step == "iteration":
            lines.append(
                f"  {tag}iteration {ev.get('iteration')}: analytic "
                f"P*={ev.get('p_star_mw', 0):.4f} mW, "
                f"{ev.get('num_candidates')} candidates"
            )
        elif kind == "candidate":
            verdict = "accept" if ev.get("accepted") else "reject"
            lines.append(
                f"    {verdict:6s} {ev.get('config')}  "
                f"PDR={100.0 * ev.get('pdr', 0):.2f}%  "
                f"P={ev.get('power_mw', 0):.4f} mW  ({ev.get('reason')})"
            )
        elif kind == "robust_candidate":
            verdict = "accept" if ev.get("accepted") else "reject"
            lines.append(
                f"    {verdict:6s} {ev.get('config')}  "
                f"q-PDR={100.0 * ev.get('q_pdr', 0):.2f}%  "
                f"healthy={100.0 * ev.get('healthy_pdr', 0):.2f}%  "
                f"P={ev.get('power_mw', 0):.4f} mW  ({ev.get('reason')})"
            )
        elif kind == "incumbent":
            lines.append(
                f"    incumbent -> {ev.get('config')}  "
                f"P={ev.get('power_mw', 0):.4f} mW"
            )
        elif kind == "robust_incumbent":
            lines.append(
                f"    incumbent -> {ev.get('config')}  "
                f"P={ev.get('power_mw', 0):.4f} mW  "
                f"q-PDR={100.0 * ev.get('q_pdr', 0):.2f}%"
            )
        elif step == "cut":
            lines.append(
                f"    cut: P > {ev.get('p_star_mw', 0):.4f} mW added"
            )
        elif step == "bound":
            lines.append(
                f"    alpha bound {ev.get('bound_mw', 0):.4f} mW exceeds "
                f"incumbent {ev.get('incumbent_power_mw', 0):.4f} mW -> stop"
            )
        elif step == "done":
            lines.append(
                f"  {tag}done: {ev.get('status')} ({ev.get('termination')}), "
                f"best={ev.get('best')}, "
                f"{ev.get('simulations')} simulations over "
                f"{ev.get('iterations')} iterations / "
                f"{ev.get('milp_solves')} MILP solves"
            )
        elif kind == "dual_start":
            lines.append(
                f"  dual run: NLT >= {ev.get('min_lifetime_days')} days "
                f"(P budget {ev.get('max_power_mw', 0):.4f} mW)"
            )
        elif kind == "dual_level":
            lines.append(
                f"  dual level P*={ev.get('p_star_mw', 0):.4f} mW, "
                f"{ev.get('num_candidates')} candidates"
            )
        elif kind == "dual_done":
            lines.append(
                f"  dual done: best={ev.get('best')}, "
                f"{ev.get('within_budget')}/{ev.get('evaluated')} "
                f"within budget"
            )


def _faults_section(events: List[dict], lines: List[str]) -> None:
    injects = [e for e in events if e.get("kind") == "faults.inject"]
    resilience = [e for e in events if e.get("kind") == "faults.resilience"]
    if not injects and not resilience:
        return
    lines.append("fault campaign")
    if injects:
        by_scenario: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for e in injects:
            by_scenario[str(e.get("scenario"))][str(e.get("action"))] += 1
        lines.append(f"  injections: {len(injects)}")
        for scenario in sorted(by_scenario):
            actions = by_scenario[scenario]
            detail = ", ".join(
                f"{actions[a]}x {a}" for a in sorted(actions)
            )
            lines.append(f"    {scenario}: {detail}")
    if resilience:
        lines.append(f"  resilience evaluations: {len(resilience)}")
        worst = min(resilience, key=lambda e: float(e.get("pdr_min_fault", 1.0)))
        lines.append(
            f"    worst PDR under fault: "
            f"{100.0 * float(worst.get('pdr_min_fault', 0.0)):.2f}% "
            f"({worst.get('config')})"
        )
        recoveries = [
            float(e["worst_recovery_s"])
            for e in resilience
            if e.get("worst_recovery_s") is not None
        ]
        if recoveries:
            lines.append(
                f"    recovery times: "
                f"p50={_quantile(recoveries, 0.5):.2f}s "
                f"max={max(recoveries):.2f}s "
                f"over {len(recoveries)} measurable"
            )
        degradations = [
            float(e.get("lifetime_degradation", 0.0)) for e in resilience
        ]
        lines.append(
            f"    max lifetime degradation: {100.0 * max(degradations):.2f}%"
        )


def _oracle_section(events: List[dict], lines: List[str]) -> None:
    evals = [e for e in events if e.get("kind") == "oracle.evaluate"]
    batches = [e for e in events if e.get("kind") == "oracle.batch"]
    if not evals and not batches:
        return
    lines.append("oracle")
    if evals:
        cached = sum(1 for e in evals if e.get("cached"))
        simulated = [e for e in evals if not e.get("cached")]
        walls = [float(e.get("wall_s", 0.0)) for e in simulated]
        replicates = sum(int(e.get("replicates", 1)) for e in simulated)
        lines.append(
            f"  evaluations: {len(evals)} ({len(simulated)} simulated, "
            f"{cached} cache hits)"
        )
        if simulated:
            lines.append(
                f"  replicates: {replicates}  wall "
                f"p50={_fmt_seconds(_quantile(walls, 0.5))} "
                f"p95={_fmt_seconds(_quantile(walls, 0.95))} "
                f"total={_fmt_seconds(sum(walls))}"
            )
    if batches:
        # Batched-kernel dispatch (PR 6).  Older traces simply have no
        # ``oracle.batch`` events and skip this subsection; every access
        # uses ``.get`` with a default so they can never KeyError.
        lanes = sum(int(e.get("lanes", 0) or 0) for e in batches)
        configs = sum(int(e.get("configs", 0) or 0) for e in batches)
        walls = [float(e.get("wall_s", 0.0) or 0.0) for e in batches]
        lines.append(
            f"  batched kernel: {len(batches)} call(s), {lanes} lane(s) "
            f"over {configs} configuration(s), "
            f"wall total={_fmt_seconds(sum(walls))}"
        )


def _pool_section(events: List[dict], lines: List[str]) -> None:
    """Worker-pool resilience activity (``pool.*`` events, PR 5).

    Traces recorded before the fault-tolerant pool existed simply have no
    ``pool.*`` events and skip this section — every field access below
    uses ``.get`` with a default, so old traces can never KeyError.
    """
    retries = [e for e in events if e.get("kind") == "pool.retry"]
    respawns = [e for e in events if e.get("kind") == "pool.respawn"]
    quarantines = [e for e in events if e.get("kind") == "pool.quarantine"]
    degraded = [e for e in events if e.get("kind") == "pool.degraded"]
    if not (retries or respawns or quarantines or degraded):
        return
    lines.append("worker pool resilience")
    retried_tasks = sum(int(e.get("tasks", 0) or 0) for e in retries)
    lines.append(
        f"  retries: {retried_tasks} task(s) over {len(retries)} round(s)"
    )
    if respawns:
        reasons: Dict[str, int] = defaultdict(int)
        for e in respawns:
            reasons[str(e.get("reason", "unknown"))] += 1
        detail = ", ".join(
            f"{reasons[r]}x {r}" for r in sorted(reasons)
        )
        lines.append(f"  pool respawns: {len(respawns)} ({detail})")
    if quarantines:
        tasks = sorted(
            str(e.get("task_index", "?")) for e in quarantines
        )
        lines.append(
            f"  quarantined tasks: {len(quarantines)} "
            f"(indices {', '.join(tasks)}) — executed in-process"
        )
    for e in degraded:
        lines.append(
            f"  DEGRADED TO SERIAL: {e.get('reason', 'unknown reason')}"
        )


def _campaign_section(events: List[dict], lines: List[str]) -> None:
    """Fleet campaign activity (``campaign.*`` events, PR 7).

    Traces from single-run commands have no ``campaign.*`` events and
    skip this section; every field access uses ``.get`` with a default
    so pre-campaign traces can never KeyError.
    """
    starts = [e for e in events if e.get("kind") == "campaign.start"]
    wearer_done = [e for e in events if e.get("kind") == "campaign.wearer_done"]
    done = [e for e in events if e.get("kind") == "campaign.done"]
    if not (starts or wearer_done or done):
        return
    lines.append("campaign")
    for e in starts:
        lines.append(
            f"  start: {e.get('name', '?')} [{e.get('campaign', '?')}] "
            f"preset={e.get('preset', '?')}  "
            f"wearers={e.get('wearers', 0)}  "
            f"shards={e.get('shards', 0)}  jobs={e.get('jobs', 0)}"
        )
    if wearer_done:
        by_state: Dict[str, int] = defaultdict(int)
        for e in wearer_done:
            by_state[str(e.get("state", "?"))] += 1
        detail = ", ".join(
            f"{by_state[s]} {s}" for s in sorted(by_state)
        )
        found = sum(1 for e in wearer_done if e.get("found"))
        lines.append(
            f"  wearers completed: {len(wearer_done)} ({detail}), "
            f"{found} feasible"
        )
    for e in done:
        lines.append(
            f"  done: aggregate {e.get('aggregate_fingerprint', '?')}  "
            f"feasible {e.get('feasible', 0)}/{e.get('wearers', 0)}"
        )


def _fabric_section(events: List[dict], lines: List[str]) -> None:
    """Cross-host fabric activity (``queue.*``/``worker.*`` events, PR 8,
    plus the PR 9 cache/steal events).

    Traces recorded before the lease-based shard queue existed simply
    have none of these events and skip this section; every field access
    uses ``.get`` with a default so pre-fabric traces can never KeyError.
    """
    leases = [e for e in events if e.get("kind") == "queue.lease"]
    expires = [e for e in events if e.get("kind") == "queue.expire"]
    releases = [e for e in events if e.get("kind") == "queue.release"]
    commits = [e for e in events if e.get("kind") == "queue.commit"]
    done = [e for e in events if e.get("kind") == "queue.done"]
    worker_leases = [e for e in events if e.get("kind") == "worker.lease"]
    worker_commits = [e for e in events if e.get("kind") == "worker.commit"]
    splits = [e for e in events if e.get("kind") == "queue.split"]
    steals = [e for e in events if e.get("kind") == "queue.steal"]
    sub_commits = [e for e in events if e.get("kind") == "queue.sub_commit"]
    cache_events = [e for e in events if e.get("kind") == "cache.wearer"]
    backpressure = [
        e for e in events if e.get("kind") == "fabric.backpressure"
    ]
    auth_denials = [e for e in events if e.get("kind") == "fabric.auth"]
    promotions = [e for e in events if e.get("kind") == "fabric.promote"]
    if not (
        leases or expires or releases or commits or done
        or worker_leases or worker_commits
        or splits or steals or sub_commits or cache_events
        or backpressure or auth_denials or promotions
    ):
        return
    lines.append("fabric (lease queue / workers)")
    if leases:
        workers = sorted({str(e.get("worker", "?")) for e in leases})
        lines.append(
            f"  leases granted: {len(leases)} to {len(workers)} worker(s) "
            f"({', '.join(workers)})"
        )
    if expires:
        # Each expiry is a reassignment opportunity: the shard went back
        # to the pending pool after its worker stopped heartbeating.
        by_worker: Dict[str, int] = defaultdict(int)
        for e in expires:
            by_worker[str(e.get("worker", "?"))] += 1
        detail = ", ".join(
            f"{by_worker[w]}x {w}" for w in sorted(by_worker)
        )
        lines.append(
            f"  lease expirations (reassignments): {len(expires)} ({detail})"
        )
    if releases:
        lines.append(f"  voluntary releases: {len(releases)}")
    if commits:
        duplicates = sum(1 for e in commits if e.get("duplicate"))
        fresh = len(commits) - duplicates
        line = f"  shard commits: {fresh}"
        if duplicates:
            line += f" (+{duplicates} duplicate no-op(s))"
        lines.append(line)
        throughput: Dict[str, int] = defaultdict(int)
        for e in commits:
            if not e.get("duplicate"):
                throughput[str(e.get("worker", "?"))] += 1
        for w in sorted(throughput):
            lines.append(f"    {w}: {throughput[w]} shard(s)")
    if worker_commits and not commits:
        # Worker-side trace: the coordinator's queue.* events live in the
        # coordinator's own trace, so render this agent's view instead.
        by_worker: Dict[str, int] = defaultdict(int)
        for e in worker_commits:
            by_worker[str(e.get("worker", "?"))] += 1
        lines.append(f"  shards run and committed: {len(worker_commits)}")
        for w in sorted(by_worker):
            resumed = sum(
                int(e.get("wearers_resumed", 0))
                for e in worker_commits
                if str(e.get("worker", "?")) == w
            )
            line = f"    {w}: {by_worker[w]} shard(s)"
            if resumed:
                line += f" ({resumed} wearer(s) resumed from journals)"
            lines.append(line)
    if splits or steals or sub_commits:
        # Work stealing (PR 9): stragglers split into per-wearer
        # sub-leases, merged back through idempotent sub-commits.
        thieves: Dict[str, int] = defaultdict(int)
        for e in steals:
            thieves[str(e.get("worker", "?"))] += 1
        detail = ", ".join(
            f"{thieves[w]}x {w}" for w in sorted(thieves)
        )
        lines.append(
            f"  work stealing: {len(splits)} shard(s) split, "
            f"{len(steals)} wearer(s) stolen"
            + (f" ({detail})" if detail else "")
            + f", {len(sub_commits)} sub-commit(s)"
        )
    if cache_events:
        # Cross-campaign wearer cache (PR 9): hits are downloads, not
        # simulations; stores feed campaigns that follow.
        hits = sum(1 for e in cache_events if e.get("action") == "hit")
        stores = sum(
            1 for e in cache_events if e.get("action") == "store"
        )
        evictions = sum(
            1 for e in cache_events if e.get("action") == "evict"
        )
        by_source: Dict[str, int] = defaultdict(int)
        for e in cache_events:
            if e.get("action") == "hit":
                by_source[str(e.get("source", "?"))] += 1
        detail = ", ".join(
            f"{by_source[s]} via {s}" for s in sorted(by_source)
        )
        lines.append(
            f"  wearer cache: {hits} hit(s)"
            + (f" ({detail})" if detail else "")
            + f", {stores} store(s)"
            + (f", {evictions} eviction(s)" if evictions else "")
        )
    if backpressure:
        # Hardened fabric (PR 10): every 429 the admission layer handed
        # out, split by what tripped it (global in-flight cap vs the
        # per-connection sync spacing).
        by_scope: Dict[str, int] = defaultdict(int)
        for e in backpressure:
            by_scope[str(e.get("scope", "?"))] += 1
        detail = ", ".join(
            f"{by_scope[s]} {s}" for s in sorted(by_scope)
        )
        lines.append(
            f"  backpressure rejections (429): {len(backpressure)} "
            f"({detail})"
        )
    if auth_denials:
        unauthorized = sum(
            1 for e in auth_denials if e.get("status") == 401
        )
        forbidden = sum(1 for e in auth_denials if e.get("status") == 403)
        lines.append(
            f"  auth denials: {len(auth_denials)} "
            f"({unauthorized}x 401 bad/missing signature, "
            f"{forbidden}x 403 stale/replayed)"
        )
    for e in promotions:
        lines.append(
            f"  promotion: node {e.get('node', '?')} took over at "
            f"fencing epoch {e.get('epoch', '?')} "
            f"({e.get('resumed', 0)} campaign(s) resumed)"
        )
    for e in done:
        lines.append(
            f"  done: aggregate {e.get('aggregate_fingerprint', '?')}  "
            f"feasible {e.get('feasible', 0)}/{e.get('wearers', 0)}"
        )


def _milp_section(events: List[dict], lines: List[str]) -> None:
    solves = [e for e in events if e.get("kind") == "milp.solve"]
    if not solves:
        return
    nodes = sum(int(e.get("nodes", 0)) for e in solves)
    pivots = sum(int(e.get("lp_iterations", 0)) for e in solves)
    updates = sum(int(e.get("incumbent_updates", 0)) for e in solves)
    lines.append("milp")
    lines.append(
        f"  solves: {len(solves)}  B&B nodes: {nodes}  "
        f"LP pivots: {pivots}  incumbent updates: {updates}"
    )


def _des_section(events: List[dict], lines: List[str]) -> None:
    runs = [e for e in events if e.get("kind") == "des.run"]
    teardowns = [e for e in events if e.get("kind") == "des.teardown"]
    if not runs and not teardowns:
        return
    lines.append("des")
    if runs:
        total = sum(int(e.get("events", 0)) for e in runs)
        lines.append(f"  kernel runs: {len(runs)}  events executed: {total}")
    if teardowns:
        worst = max(float(e.get("worst_power_mw", 0.0)) for e in teardowns)
        lines.append(
            f"  teardowns: {len(teardowns)}  "
            f"max per-node power observed: {worst:.4f} mW"
        )


def _span_section(events: List[dict], lines: List[str]) -> None:
    ends = [e for e in events if e.get("kind") == "span_end"]
    if not ends:
        return
    by_name: Dict[str, List[float]] = defaultdict(list)
    for e in ends:
        by_name[str(e.get("name"))].append(float(e.get("dur_s", 0.0)))
    lines.append("spans (where the wall clock went)")
    width = max(len(n) for n in by_name)
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durs = by_name[name]
        lines.append(
            f"  {name:<{width}}  n={len(durs):<4d} "
            f"total={_fmt_seconds(sum(durs)):>9s}  "
            f"mean={_fmt_seconds(sum(durs) / len(durs)):>9s}  "
            f"max={_fmt_seconds(max(durs)):>9s}"
        )


def format_metrics(metrics: Dict[str, dict]) -> str:
    """Render a ``--metrics-out`` snapshot as a report section."""
    lines = ["metrics"]
    if not metrics:
        lines.append("  (no instruments recorded)")
        return "\n".join(lines)
    width = max(len(n) for n in metrics)
    for name in sorted(metrics):
        inst = metrics[name] if isinstance(metrics[name], dict) else {}
        itype = inst.get("type", "?")
        if itype == "histogram":
            lines.append(
                f"  {name:<{width}}  count={inst.get('count', 0)} "
                f"mean={inst.get('mean', 0.0):.4g} "
                f"p95={inst.get('p95', 0.0):.4g} "
                f"max={inst.get('max', 0.0):.4g}"
            )
        else:
            lines.append(
                f"  {name:<{width}}  {inst.get('value', 0.0):g}"
            )
    return "\n".join(lines)


def summarize(events: List[dict]) -> str:
    """Render the full report for an event list (see module docstring)."""
    lines: List[str] = []
    problem = check_span_balance(events)
    if problem is not None:
        lines.append(f"WARNING: trace is truncated or corrupt: {problem}")
    for section in (
        _manifest_section,
        _explorer_section,
        _faults_section,
        _oracle_section,
        _pool_section,
        _campaign_section,
        _fabric_section,
        _milp_section,
        _des_section,
        _span_section,
    ):
        before = len(lines)
        section(events, lines)
        if len(lines) > before:
            lines.append("")
    if not lines:
        return "(empty trace)"
    return "\n".join(lines).rstrip()


def summarize_file(path) -> str:
    events, _skipped = load_trace(path)
    return summarize(events)


USAGE = (
    "usage: python -m repro.analysis.trace_report [--json] "
    "[--metrics <metrics.json>] <trace.jsonl>"
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_out = "--json" in argv
    if json_out:
        argv.remove("--json")
    metrics_path: Optional[str] = None
    if "--metrics" in argv:
        at = argv.index("--metrics")
        rest = argv[at + 1 : at + 2]
        if not rest:
            print(USAGE, file=sys.stderr)
            return 2
        metrics_path = rest[0]
        del argv[at : at + 2]
    if len(argv) != 1:
        print(USAGE, file=sys.stderr)
        return 2
    trace_path = argv[0]

    try:
        events, skipped = load_trace(trace_path)
    except OSError as exc:
        print(
            f"trace_report: cannot read trace {trace_path}: {exc}",
            file=sys.stderr,
        )
        return 1
    code = 0
    if not events:
        print(
            f"trace_report: {trace_path} contains no trace events "
            "(empty or fully corrupt file)",
            file=sys.stderr,
        )
        return 1
    if skipped:
        print(
            f"trace_report: {trace_path}: skipped {skipped} malformed "
            "line(s) — trace was truncated mid-line?",
            file=sys.stderr,
        )
        code = 1

    metrics: Optional[Dict[str, dict]] = None
    if metrics_path is not None:
        try:
            metrics = load_metrics(metrics_path)
        except OSError as exc:
            print(
                f"trace_report: cannot read metrics {metrics_path}: {exc}",
                file=sys.stderr,
            )
            code = 1
        except ValueError as exc:
            print(
                f"trace_report: bad metrics file {metrics_path}: {exc}",
                file=sys.stderr,
            )
            code = 1

    try:
        if json_out:
            print(json.dumps(explorer_sequence(events), indent=1))
        else:
            print(summarize(events))
            if metrics is not None:
                print()
                print(format_metrics(metrics))
    except BrokenPipeError:  # e.g. `... | head`
        sys.stderr.close()  # suppress the interpreter's EPIPE warning
        return code
    return code


if __name__ == "__main__":
    sys.exit(main())
