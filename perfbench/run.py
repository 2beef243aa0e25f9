"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve|robust|campaign --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs a fixed amount of the same work with spans around each
layer's entry points and reports the per-layer metrics, the tracing
overhead and the workload-design checks instead.  Either way every answer
is checked; a wrong one, like a violated design check, counts as a failed
operation, the result line says ``"correct": false`` and the exit code
is 1.

The last line of stdout is the result object; the lines before it give
each metric with its unit and sample count, the environment fingerprint
and the notes of the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time

import benchenv
import spans
import workloads

WORKLOADS = ("solve", "robust", "campaign")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json's order.
END_TO_END = (
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("wearers_per_s", "1/s"),
    ("warm_campaign_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json's order.
PER_LAYER = (
    ("startup.import_s", "s"),
    ("startup.modules", "count"),
    ("startup.import.scipy_s", "s"),
    ("startup.import.networkx_s", "s"),
    ("startup.import.numpy_s", "s"),
    ("explorer.answers", "count"),
    ("explorer.iterations", "count"),
    ("explorer.accept_ratio", "ratio"),
    ("explorer.self_s", "s"),
    ("milp.calls", "count"),
    ("milp.wall_s", "s"),
    ("milp.cpu_s", "s"),
    ("milp.lp_solves", "count"),
    ("milp.candidates", "count"),
    ("oracle.simulations", "count"),
    ("oracle.cache_hits", "count"),
    ("oracle.self_s", "s"),
    ("net.runs", "count"),
    ("net.wall_s", "s"),
    ("net.cpu_s", "s"),
    ("net.events", "count"),
    ("net.events_per_s", "1/s"),
    ("batch.calls", "count"),
    ("batch.lanes", "count"),
    ("batch.wall_s", "s"),
    ("batch.lane_share", "ratio"),
    ("faults.calls", "count"),
    ("faults.worlds", "count"),
    ("faults.self_s", "s"),
    ("journal.appends", "count"),
    ("journal.summaries", "count"),
    ("journal.wall_s", "s"),
    ("journal.bytes", "bytes"),
    ("wearer_cache.gets", "count"),
    ("wearer_cache.hit_ratio", "ratio"),
    ("wearer_cache.puts", "count"),
    ("wearer_cache.wall_s", "s"),
    ("campaign.wearers_ran", "count"),
    ("campaign.wearers_cached", "count"),
    ("campaign.aggregate_s", "s"),
    ("campaign.self_s", "s"),
    ("fabric.rpcs", "count"),
    ("fabric.connections", "count"),
    ("fabric.rpc_s", "s"),
    ("fabric.queue_s", "s"),
    ("fabric.lease_wait_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
)

#: Cold starts per run behind the ``setup_s`` median.
SETUP_STARTS = {"solve": 5, "robust": 5, "campaign": 3}

#: What each workload's CLI command imports before it can work.
IMPORTS = {
    "solve": ("repro.cli", "repro.core.explorer", "repro.experiments.scenario",
              "repro.core.result_cache"),
    "robust": ("repro.cli", "repro.core.explorer", "repro.experiments.scenario",
               "repro.core.result_cache", "repro.faults.model",
               "repro.faults.resilience", "repro.experiments.robustness"),
    "campaign": ("repro.cli", "repro.campaign.service", "repro.campaign.runner",
                 "repro.campaign.worker", "repro.campaign.spec"),
}


def cold_starts(workload: str, seed: int) -> tuple:
    """(seconds at reference speed, wall seconds, clock) from launching
    each of ``SETUP_STARTS`` cold interpreters (``probe.py``) to its
    ``ready``."""
    clock = benchenv.Clock(window_s=math.inf)
    operations = []
    for start_index in range(SETUP_STARTS[workload]):
        directory = benchenv.WORK / f"probe-{workload}-{start_index}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        start = clock.start()
        process = subprocess.Popen(
            [sys.executable, str(benchenv.HERE / "probe.py"),
             "--workload", workload, "--seed", str(seed),
             "--dir", str(directory)],
            stdout=subprocess.PIPE, env=benchenv.child_env(),
        )
        try:
            line = process.stdout.readline()
            operations.append((start, time.perf_counter()))
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait(timeout=60)
        shutil.rmtree(directory, ignore_errors=True)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"{workload} set-up probe failed (exit {code})")
        clock.sample()
    return (
        [clock.seconds(op) for op in operations],
        [end - start for start, end in operations],
        clock,
    )


def startup_layer(workload: str) -> dict:
    """``python -X importtime`` of the workload's imports, cold."""
    statement = "; ".join(f"import {name}" for name in IMPORTS[workload])
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        capture_output=True, text=True, env=benchenv.child_env(), check=True,
        timeout=120,
    )
    selfs = {}
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        selfs[name.strip()] = selfs.get(name.strip(), 0) + int(self_us)

    def package_s(package: str) -> float:
        return sum(
            us for name, us in selfs.items()
            if name == package or name.startswith(package + ".")
        ) / 1e6

    return {
        "startup.import_s": sum(selfs.values()) / 1e6,
        "startup.modules": len(selfs),
        "startup.import.scipy_s": package_s("scipy"),
        "startup.import.networkx_s": package_s("networkx"),
        "startup.import.numpy_s": package_s("numpy"),
    }


def design_checks(workload: str, layers: dict, warm_spans) -> list:
    """The facts the workload design promises, as (claim, held) pairs."""
    checks = []
    if workload in ("solve", "robust"):
        checks.append(("layer spans cover >= 90% of answer wall time",
                       layers["trace.coverage"] >= 0.9))
        checks.append(("no fabric RPCs", layers["fabric.rpcs"] == 0))
    if workload == "solve":
        checks.append(("batched kernel unused", layers["batch.calls"] == 0))
    if workload == "robust":
        checks.append(("batched kernel serves lanes",
                       layers["batch.lane_share"] > 0))
    if workload == "campaign":
        names = [s[spans.NAME] for s in warm_spans]
        checks.append(("no simulation in warm passes",
                       "Network.run" not in names
                       and "evaluate_batch" not in names))
        checks.append(("no MILP in warm passes",
                       "MilpFormulation.enumerate_candidates" not in names))
    return checks


def check_design(outcome, workload: str, layers: dict, warm_spans) -> None:
    """Each design check is one checked operation: a violated one fails
    the run like a wrong answer."""
    for claim, held in design_checks(workload, layers, warm_spans):
        outcome.notes.append(
            f"design: {claim}: {'holds' if held else 'VIOLATED'}"
        )
        outcome.check([] if held else [f"design check violated: {claim}"])


def traced_run(workload: str, seed: int, seconds: float) -> tuple:
    """(outcome, per-layer metrics) of one traced run."""
    if workload == "campaign":
        outcome, tracer, extra, _ = workloads.run_campaign(
            seed, seconds, trace=True
        )
        warm_spans = spans.in_context(tracer.spans, "warm-")
    else:
        outcome, tracer, extra = workloads.trace_answers(workload, seed)
        warm_spans = []
    extra.update(startup_layer(workload))
    layers = spans.layer_metrics(tracer.spans, tracer.counters, extra)
    check_design(outcome, workload, layers, warm_spans)
    outcome.notes.append(f"spans recorded: {len(tracer.spans)}")
    return outcome, layers


def _metric_lines(metrics: dict) -> list:
    return [
        f"  {name:28s} {m['value']:.6g} {m['unit']}"
        + (f"  (n={m['samples']})" if "samples" in m else "")
        for name, m in metrics.items()
    ]


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """(outcome, every end-to-end metric) of one untraced run."""
    setup, walls, clock = cold_starts(workload, seed)
    worker_rss = 0.0
    if workload == "campaign":
        outcome, _, _, worker_rss = workloads.run_campaign(seed, seconds)
    else:
        outcome = workloads.run_answers(workload, seed, seconds)
    outcome.metric("setup_s", statistics.median(setup), "s", len(setup))
    outcome.metric(
        "peak_rss_mb", benchenv.peak_rss_mb() + worker_rss, "MB",
        2 if worker_rss else 1,
    )
    outcome.notes.append(
        f"set-up starts, wall seconds: {[round(t, 4) for t in walls]}; "
        f"{clock.summary()}"
    )
    return outcome, {name: outcome.metrics[name] for name, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchenv.use_source_tree()
    except benchenv.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name in IMPORTS[args.workload]:
        importlib.import_module(name)

    benchenv.WORK.mkdir(exist_ok=True)
    print("env: " + json.dumps(benchenv.fingerprint(), sort_keys=True))
    if args.trace:
        outcome, layers = traced_run(args.workload, args.seed, args.seconds)
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        outcome, metrics = measure(args.workload, args.seed, args.seconds)

    for note in outcome.notes:
        print(note)
    for error in outcome.errors:
        print(f"WRONG: {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}:")
    print("\n".join(_metric_lines(metrics)))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
