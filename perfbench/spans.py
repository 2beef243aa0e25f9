"""Traced runs: spans around each layer's public entry points.

Tracing lives entirely in the benchmark.  :class:`Tracer.install`
replaces each entry point listed in :data:`ENTRY_POINTS` with a wrapper
that records a span -- name, layer, start, end, parent, the id of the
answer or campaign being worked on, CPU time and a few counts read from
the call's arguments or result -- and :meth:`Tracer.uninstall` puts the
originals back, so one process can time untraced and traced passes of
the same work.  Module-level functions are replaced wherever a module
imported them by name (``evaluate_batch`` lives in ``core.evaluator`` and
``faults.resilience`` as well as ``core.batch``).

Spans stay in memory; :func:`layer_metrics` reduces them to the
``<layer>.<metric>`` numbers in ``BENCHMARK.json``.  A layer's self time
is its spans' duration minus their direct children's.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span fields, in list order (lists keep the hot path cheap).
NAME, LAYER, START, END, PARENT, CONTEXT, CPU0, CPU1, ATTRS, PID = range(10)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


# -- what each wrapped call contributes ------------------------------------------
#
# ``after(attrs, args, kwargs, result)`` fills the span's attrs; ``before``
# returns state handed to ``after`` as ``attrs["_before"]``.


def _explorer_after(attrs, args, kwargs, result):
    iterations = result.iterations
    attrs["iterations"] = len(iterations)
    attrs["evaluated"] = sum(
        len(getattr(it, "evaluations", None) or getattr(it, "records", ()))
        for it in iterations
    )
    attrs["accepted"] = sum(len(it.feasible) for it in iterations)


def _milp_after(attrs, args, kwargs, result):
    attrs["candidates"] = len(result[1])


def _net_after(attrs, args, kwargs, result):
    attrs["events"] = result.events_executed


def _batch_after(attrs, args, kwargs, result):
    scenario, configs, worlds = args[:3]
    attrs["lanes"] = len(configs) * len(worlds) * scenario.replicates


def _faults_after(attrs, args, kwargs, result):
    attrs["worlds"] = len(args[1]) * len(args[0].ensemble)


def _grown_before(args, kwargs):
    return _size(args[0].path)


def _grown_after(attrs, args, kwargs, result):
    attrs["bytes"] = _size(args[0].path) - attrs.pop("_before")


def _written_after(attrs, args, kwargs, result):
    attrs["bytes"] = _size(result)


def _journal_create_after(attrs, args, kwargs, result):
    attrs["bytes"] = _size(result.path)


def _cache_get_after(attrs, args, kwargs, result):
    attrs["hit"] = result is not None


def _wearer_after(attrs, args, kwargs, result):
    attrs["state"] = result["state"]


def _submit_after(attrs, args, kwargs, result):
    attrs["campaign"] = result["id"]


def _acquire_after(attrs, args, kwargs, result):
    attrs["campaign"] = args[0].fingerprint
    attrs["granted"] = result is not None


#: (module, attribute path, layer, after, before).  The span name is the
#: attribute path; a class method is given as "Class.method".
ENTRY_POINTS = (
    ("repro.core.explorer", "HumanIntranetExplorer.explore", "explorer",
     _explorer_after, None),
    ("repro.core.explorer", "HumanIntranetExplorer.explore_robust",
     "explorer", _explorer_after, None),
    ("repro.core.milp_builder", "MilpFormulation.enumerate_candidates",
     "milp", _milp_after, None),
    ("repro.milp.simplex", "SimplexSolver.solve", "milp", None, None),
    ("repro.core.evaluator", "SimulationOracle.evaluate_many", "oracle",
     None, None),
    ("repro.core.evaluator", "SimulationOracle.evaluate", "oracle",
     None, None),
    ("repro.net.network", "Network.run", "net", _net_after, None),
    ("repro.core.batch", "evaluate_batch", "batch", _batch_after, None),
    ("repro.faults.resilience", "EnsembleOracle.evaluate_many", "faults",
     _faults_after, None),
    ("repro.core.journal", "RunJournal.create", "journal",
     _journal_create_after, None),
    ("repro.core.journal", "RunJournal.candidate", "journal",
     _grown_after, _grown_before),
    ("repro.core.journal", "RunJournal.robust_candidate", "journal",
     _grown_after, _grown_before),
    ("repro.core.journal", "RunJournal.cut", "journal",
     _grown_after, _grown_before),
    ("repro.core.journal", "EventLog.append", "journal",
     _grown_after, _grown_before),
    ("repro.core.journal", "write_summary", "journal", _written_after, None),
    ("repro.core.journal", "write_campaign_manifest", "journal",
     _written_after, None),
    ("repro.core.journal", "write_shard_manifest", "journal",
     _written_after, None),
    ("repro.campaign.wearer_cache", "WearerResultCache.get", "wearer_cache",
     _cache_get_after, None),
    ("repro.campaign.wearer_cache", "WearerResultCache.put", "wearer_cache",
     None, None),
    ("repro.campaign.wearer_cache", "WearerResultCache.prefetch",
     "wearer_cache", None, None),
    ("repro.campaign.runner", "run_campaign", "campaign", None, None),
    ("repro.campaign.runner", "run_wearer_task", "campaign",
     _wearer_after, None),
    ("repro.campaign.aggregate", "build_aggregate", "campaign", None, None),
    ("repro.campaign.service", "CampaignService.submit", "fabric",
     _submit_after, None),
    ("repro.campaign.queue", "CampaignQueue.acquire", "fabric",
     _acquire_after, None),
    ("repro.campaign.queue", "CampaignQueue.commit", "fabric", None, None),
    ("repro.campaign.queue", "CampaignQueue.heartbeat", "fabric", None, None),
    ("repro.campaign.queue", "CampaignQueue.release", "fabric", None, None),
    ("repro.campaign.queue", "CampaignQueue.finalize", "fabric", None, None),
    ("repro.campaign.worker", "CoordinatorClient.request", "fabric",
     None, None),
)

#: Oracles report their simulation and cache-hit totals when closed.
HARVESTED = (
    ("repro.core.evaluator", "SimulationOracle.close"),
    ("repro.faults.resilience", "EnsembleOracle.close"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Id of the answer or campaign the next spans belong to.
        self.context: Optional[str] = None
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._harvested = weakref.WeakSet()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn: Callable, after, before):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        cpu = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            attrs = {}
            if before is not None:
                attrs["_before"] = before(args, kwargs)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                    self.context, cpu(), 0.0, attrs, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[CPU1] = cpu()
                stack.pop()
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

        return traced

    def _harvest(self, fn: Callable):
        @functools.wraps(fn)
        def close(oracle, *args, **kwargs):
            result = fn(oracle, *args, **kwargs)
            if oracle not in self._harvested:
                self._harvested.add(oracle)
                stats = oracle.stats()
                self.counters["oracle.simulations"] += stats["simulations_run"]
                self.counters["oracle.cache_hits"] += stats["cache_hits"]
            return result

        return close

    # -- patching -------------------------------------------------------------------

    def _replace(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
                self._patches.append((loaded, attr, original))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        for module_name, _, _, _, _ in ENTRY_POINTS:
            importlib.import_module(module_name)
        for module_name, path, layer, after, before in ENTRY_POINTS:
            self._replace(
                module_name, path,
                lambda fn, path=path, layer=layer, after=after, before=before:
                    self._wrap(path, layer, fn, after, before),
            )
        for module_name, path in HARVESTED:
            self._replace(module_name, path, self._harvest)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- transport (worker process -> benchmark process) ---------------------------

    def export(self) -> dict:
        """Spans and counters recorded so far, then forget them."""
        payload = {"spans": self.spans[:], "counters": dict(self.counters)}
        del self.spans[:]
        self.counters.clear()
        return payload

    def merge(self, payload: dict) -> None:
        """Adopt the worker process's spans (parents re-based, marked with
        process 1) and counters."""
        offset = len(self.spans)
        for span in payload["spans"]:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[PID] = 1
            self.spans.append(span)
        for name, value in payload["counters"].items():
            self.counters[name] += value


# -- reduction to per-layer metrics ----------------------------------------------------


def _durations(spans: List[list]):
    """(self seconds per span, whether a span has a same-layer ancestor)."""
    child_time = [0.0] * len(spans)
    nested = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            p = parent
            while p >= 0:
                if spans[p][LAYER] == span[LAYER]:
                    nested[i] = True
                    break
                p = spans[p][PARENT]
    selfs = [s[END] - s[START] - child_time[i] for i, s in enumerate(spans)]
    return selfs, nested


def layer_metrics(
    spans: List[list], counters: Dict[str, float], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run."""
    selfs, nested = _durations(spans)
    by_layer: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_layer[span[LAYER]].append(i)

    def named(suffix: str) -> List[list]:
        return [s for s in spans if s[NAME].endswith(suffix)]

    def wall(layer: str, prefix: str = "") -> float:
        return sum(
            spans[i][END] - spans[i][START]
            for i in by_layer[layer]
            if not nested[i] and spans[i][NAME].startswith(prefix)
        )

    def cpu(layer: str) -> float:
        return sum(
            spans[i][CPU1] - spans[i][CPU0]
            for i in by_layer[layer]
            if not nested[i]
        )

    def self_time(layer: str) -> float:
        return sum(selfs[i] for i in by_layer[layer])

    def total(suffix: str, key: str) -> float:
        return sum(s[ATTRS].get(key, 0) for s in named(suffix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    explorer = [s for s in spans if s[LAYER] == "explorer"]
    net_wall = wall("net")
    net_runs = len(named("Network.run"))
    lanes = total("evaluate_batch", "lanes")
    gets = named("WearerResultCache.get")
    wearers = named("run_wearer_task")
    metrics = {
        "explorer.answers": len(explorer),
        "explorer.iterations": sum(s[ATTRS]["iterations"] for s in explorer),
        "explorer.accept_ratio": ratio(
            sum(s[ATTRS]["accepted"] for s in explorer),
            sum(s[ATTRS]["evaluated"] for s in explorer),
        ),
        "explorer.self_s": self_time("explorer"),
        "milp.calls": len(named("enumerate_candidates")),
        "milp.wall_s": wall("milp"),
        "milp.cpu_s": cpu("milp"),
        "milp.lp_solves": len(named("SimplexSolver.solve")),
        "milp.candidates": total("enumerate_candidates", "candidates"),
        "oracle.simulations": counters.get("oracle.simulations", 0),
        "oracle.cache_hits": counters.get("oracle.cache_hits", 0),
        "oracle.self_s": self_time("oracle"),
        "net.runs": net_runs,
        "net.wall_s": net_wall,
        "net.cpu_s": cpu("net"),
        "net.events": total("Network.run", "events"),
        "net.events_per_s": ratio(total("Network.run", "events"), net_wall),
        "batch.calls": len(named("evaluate_batch")),
        "batch.lanes": lanes,
        "batch.wall_s": wall("batch"),
        "batch.lane_share": ratio(lanes, lanes + net_runs),
        "faults.calls": len(named("EnsembleOracle.evaluate_many")),
        "faults.worlds": total("EnsembleOracle.evaluate_many", "worlds"),
        "faults.self_s": self_time("faults"),
        "journal.appends": sum(
            len(named(n)) for n in (
                "RunJournal.candidate", "RunJournal.robust_candidate",
                "RunJournal.cut", "EventLog.append",
            )
        ),
        "journal.summaries": len(named("write_summary")),
        "journal.wall_s": wall("journal"),
        "journal.bytes": sum(
            spans[i][ATTRS].get("bytes", 0) for i in by_layer["journal"]
        ),
        "wearer_cache.gets": len(gets),
        "wearer_cache.hit_ratio": ratio(
            sum(1 for s in gets if s[ATTRS]["hit"]), len(gets)
        ),
        "wearer_cache.puts": len(named("WearerResultCache.put")),
        "wearer_cache.wall_s": wall("wearer_cache"),
        "campaign.wearers_ran": sum(
            1 for s in wearers if s[ATTRS]["state"] in ("ran", "resumed")
        ),
        "campaign.wearers_cached": sum(
            1 for s in wearers if s[ATTRS]["state"] == "cached"
        ),
        "campaign.aggregate_s": sum(
            s[END] - s[START] for s in named("build_aggregate")
        ),
        "campaign.self_s": self_time("campaign"),
        "fabric.rpcs": len(named("CoordinatorClient.request")),
        "fabric.connections": counters.get("fabric.connections", 0),
        "fabric.rpc_s": wall("fabric", "CoordinatorClient."),
        "fabric.queue_s": wall("fabric", "CampaignQueue."),
        "fabric.lease_wait_s": lease_wait(spans),
    }
    metrics.update(extra)
    return metrics


def lease_wait(spans: List[list]) -> float:
    """Summed time from each fleet submission to its first lease grant."""
    submitted = {}
    waited = 0.0
    for span in sorted(spans, key=lambda s: (s[PID], s[START])):
        attrs = span[ATTRS]
        if span[NAME] == "CampaignService.submit":
            submitted.setdefault(attrs["campaign"], span[START])
        elif span[NAME] == "CampaignQueue.acquire" and attrs["granted"]:
            start = submitted.pop(attrs["campaign"], None)
            if start is not None:
                waited += span[END] - start
    return waited


def coverage(spans: List[list], answer_wall_s: float) -> float:
    """Share of the timed answers' wall time spent inside the layers the
    explorer calls (the direct children of its outermost spans), so time
    the explorer spends outside every traced layer counts against it."""
    roots = {
        i for i, s in enumerate(spans)
        if s[LAYER] == "explorer" and s[PARENT] < 0 and s[PID] == 0
    }
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] in roots)
    return covered / answer_wall_s if answer_wall_s else 0.0


def in_context(spans: List[list], prefix: str) -> List[list]:
    """The spans recorded while the context id started with ``prefix``
    (parent links are not meaningful within the returned subset)."""
    return [s for s in spans if (s[CONTEXT] or "").startswith(prefix)]
