"""``hi-explore`` — command-line front end to the exploration framework.

Subcommands mirror the experiment harnesses::

    hi-explore solve --pdr-min 90 [--preset ci]     # one Algorithm 1 run
    hi-explore robust --pdr-min 85 [--hub-stress]   # chance-constrained run
    hi-explore dual --min-lifetime-days 15          # the dual problem
    hi-explore figure3 [--preset ci]                # the Fig. 3 sweep
    hi-explore reduction [--preset ci]              # R1: vs exhaustive
    hi-explore annealing [--preset ci]              # R2: vs SA
    hi-explore extensions [--preset ci]             # E1-E3 studies
    hi-explore robustness [--preset ci]             # E4: nominal vs robust
    hi-explore table1                               # Table 1
    hi-explore space                                # design-space summary
    hi-explore campaign --wearers 8 --out DIR       # fleet campaign
    hi-explore serve --root DIR                     # campaign HTTP service
    hi-explore worker --coordinator URL \
        --workdir DIR                               # fabric worker agent

Every subcommand accepts the same runtime flags (``--jobs``,
``--cache-dir``, ``--batch``, ``--trace-out``, ``--metrics-out``), wired
once by :func:`add_runtime_flags`; the campaign subcommands are thin
shells over the shared :mod:`repro.campaign` package.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional


def _positive_count(text: str) -> int:
    """argparse type for ``--jobs`` and ``--shards``: a positive count
    (argparse names the flag in its error line).

    ``resolve_jobs`` still accepts 0/negative (joblib convention) for
    programmatic callers, but on the command line those spellings are far
    more often typos than intent, so the CLI rejects them up front.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Execution/observability flags shared by *every* subcommand.

    These knobs configure how a run executes and what it records — they
    never change a computed result — so they are wired once here instead
    of being duplicated per subparser (each copy used to drift).
    """
    parser.add_argument(
        "--jobs",
        type=_positive_count,
        default=None,
        help="worker processes for the simulation oracle "
        "(positive integer; 1 = the serial escape hatch; omitted = "
        "auto-detect all cores, capped at the configuration count; "
        "results are bit-identical at any count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the persistent simulation-result cache "
        "(shared across experiments; reruns become near-free)",
    )
    parser.add_argument(
        "--batch",
        default="auto",
        choices=("auto", "on", "off"),
        help="batched-lane kernel dispatch for the simulation oracle: "
        "auto = batch whenever the kernel supports the configuration "
        "and at least two lanes share a topology, on = batch every "
        "supported evaluation, off = always scalar DES; results are "
        "bit-identical in every mode",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a structured JSONL trace of the run (manifest, "
        "explorer decisions, oracle/MILP/DES milestones); summarize "
        "with `python -m repro.analysis.trace_report PATH`",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics registry (counters/histograms) "
        "as JSON on exit",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="ci",
        choices=("paper", "ci", "smoke"),
        help="measurement protocol (paper = Tsim 600 s x 3 runs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    add_runtime_flags(parser)


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume flags (mutually exclusive run-directory modes)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="run directory: record a crash-safe journal of every "
        "evaluated candidate and MILP cut, plus a deterministic "
        "summary.json; a killed run can be continued with --resume DIR",
    )
    group.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume the journaled run in DIR: replay its evaluations "
        "(zero re-simulation), verify the trajectory, and continue — "
        "the final result is bit-identical to an uninterrupted run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hi-explore",
        description="Human Intranet design-space exploration (DAC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run Algorithm 1 for one PDR bound")
    solve.add_argument(
        "--pdr-min",
        type=float,
        required=True,
        help="reliability bound in percent (e.g. 90)",
    )
    solve.add_argument(
        "--exhaustive",
        action="store_true",
        help="disable early termination and sweep every power level",
    )
    _add_journal_flags(solve)
    _add_common(solve)

    robust = sub.add_parser(
        "robust",
        help="chance-constrained Algorithm 1 over a fault ensemble",
    )
    robust.add_argument(
        "--pdr-min",
        type=float,
        required=True,
        help="reliability bound in percent (e.g. 85), enforced on the "
        "ensemble PDR quantile instead of the healthy PDR",
    )
    robust.add_argument(
        "--quantile",
        type=float,
        default=0.25,
        help="chance-constraint quantile q in [0, 1]: the bound must "
        "hold in at least a (1-q) fraction of fault worlds (0 = worst "
        "case over the ensemble)",
    )
    robust.add_argument(
        "--ensemble-size",
        type=int,
        default=3,
        help="number of fault scenarios in the ensemble",
    )
    robust.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the sampled fault ensemble (default: --seed)",
    )
    robust.add_argument(
        "--hub-stress",
        action="store_true",
        help="use the deterministic coordinator-outage ensemble instead "
        "of sampled mixed faults",
    )
    robust.add_argument(
        "--outage-fraction",
        type=float,
        default=0.2,
        help="hub-stress only: fraction of the horizon the coordinator "
        "radio is down in every scenario",
    )
    robust.add_argument(
        "--correlated-links",
        action="store_true",
        help="sampled ensemble only: replace the independent link "
        "blackout with a correlated group blacking out every "
        "torso-crossing link simultaneously",
    )
    _add_journal_flags(robust)
    _add_common(robust)

    fig3 = sub.add_parser("figure3", help="reproduce Figure 3")
    _add_common(fig3)

    red = sub.add_parser("reduction", help="R1: simulations vs exhaustive search")
    _add_common(red)

    ann = sub.add_parser("annealing", help="R2: comparison with simulated annealing")
    ann.add_argument("--sa-steps", type=int, default=150, help="SA step budget")
    _add_common(ann)

    table1 = sub.add_parser(
        "table1", help="print Table 1 (CC2650 specifications)"
    )
    add_runtime_flags(table1)

    dual = sub.add_parser(
        "dual", help="maximize reliability under a lifetime bound"
    )
    dual.add_argument(
        "--min-lifetime-days", type=float, required=True,
        help="network lifetime bound in days",
    )
    _add_common(dual)

    ext = sub.add_parser(
        "extensions", help="E1-E3: routing comparison, posture, dual staircase"
    )
    _add_common(ext)

    rob = sub.add_parser(
        "robustness",
        help="E4: nominal vs chance-constrained design under hub-stress faults",
    )
    rob.add_argument(
        "--pdr-min",
        type=float,
        default=85.0,
        help="reliability bound in percent (default 85)",
    )
    rob.add_argument(
        "--quantile",
        type=float,
        default=0.0,
        help="chance-constraint quantile (default 0 = ensemble minimum)",
    )
    rob.add_argument(
        "--outage-fraction",
        type=float,
        default=0.2,
        help="fraction of the horizon the coordinator radio is down",
    )
    rob.add_argument(
        "--ensemble-size",
        type=int,
        default=2,
        help="number of hub-stress scenarios",
    )
    _add_common(rob)

    space = sub.add_parser("space", help="summarize the design space")
    _add_common(space)

    campaign = sub.add_parser(
        "campaign",
        help="run a fleet campaign: one journaled design run per wearer, "
        "sharded over the worker pool, aggregated into per-cohort "
        "Pareto atlases",
    )
    campaign.add_argument(
        "--wearers",
        type=int,
        default=4,
        help="population size when no --spec file is given",
    )
    campaign.add_argument(
        "--pdr-min",
        type=float,
        action="append",
        default=None,
        metavar="BOUND",
        help="reliability bound in percent; repeat to split the "
        "population into one cohort per bound (default: 90)",
    )
    campaign.add_argument(
        "--mode",
        default="solve",
        choices=("solve", "robust"),
        help="per-wearer accept test: nominal Algorithm 1 or the "
        "chance-constrained robust variant",
    )
    campaign.add_argument(
        "--name", default="fleet", help="campaign name (reporting only)"
    )
    campaign.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="JSON CampaignSpec file; overrides the population flags",
    )
    campaign.add_argument(
        "--shards",
        type=_positive_count,
        default=None,
        help="shard count pinning the campaign directory layout "
        "(default: --jobs); a resumed campaign keeps its original "
        "shard count regardless",
    )
    campaign.add_argument(
        "--quantile",
        type=float,
        default=0.0,
        help="robust mode: chance-constraint quantile",
    )
    campaign.add_argument(
        "--ensemble-size",
        type=int,
        default=2,
        help="robust mode: fault scenarios per wearer ensemble",
    )
    campaign.add_argument(
        "--hub-stress",
        action="store_true",
        help="robust mode: deterministic coordinator-outage ensemble "
        "instead of sampled mixed faults",
    )
    campaign.add_argument(
        "--outage-fraction",
        type=float,
        default=0.2,
        help="robust mode: hub-stress outage fraction of the horizon",
    )
    campaign.add_argument(
        "--correlated-links",
        action="store_true",
        help="robust mode: correlated torso-crossing link blackouts in "
        "the sampled ensemble",
    )
    campaign_dir = campaign.add_mutually_exclusive_group()
    campaign_dir.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="fresh campaign directory: per-wearer crash-safe journals "
        "under shards/, deterministic aggregate.json/atlas.json at the "
        "root; continue a killed campaign with --resume DIR",
    )
    campaign_dir.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume the campaign in DIR: completed wearers load their "
        "summaries, in-flight wearers replay their journals, and the "
        "final aggregate is byte-identical to an uninterrupted run",
    )
    _add_common(campaign)

    serve = sub.add_parser(
        "serve",
        help="serve campaigns over an async HTTP API "
        "(submit/status/result/artifacts) with journals as the "
        "durable backend; a killed service resumes every in-flight "
        "campaign on restart",
    )
    serve.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="directory holding one campaign directory per submitted "
        "campaign (scanned for interrupted campaigns at startup)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8732)
    serve.add_argument(
        "--shards",
        type=_positive_count,
        default=None,
        help="shard count per campaign (default: --jobs for local "
        "execution; one shard per wearer capped at 8 for fleet "
        "execution)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="fleet execution: seconds a worker's shard lease lives "
        "without a heartbeat before the shard is reclaimed and "
        "reassigned",
    )
    serve.add_argument(
        "--fabric-secret",
        default=None,
        metavar="SECRET",
        help="shared secret for HMAC-signed fabric RPCs (default: "
        "REPRO_FABRIC_SECRET env var; unset = legacy unauthenticated "
        "mode with a loud warning)",
    )
    serve.add_argument(
        "--standby-of",
        default=None,
        metavar="URL",
        help="run as a warm standby of the primary at URL (shares "
        "--root): serve read-only status, auto-promote with a higher "
        "fencing epoch once the primary misses --ping-misses health "
        "probes, or promote on demand via POST /fabric/promote",
    )
    serve.add_argument(
        "--node-name",
        default=None,
        help="stable coordinator identity in the fencing log (default: "
        "pid<PID>; give primaries a stable name so a plain restart "
        "re-adopts its own epoch)",
    )
    serve.add_argument(
        "--ping-interval",
        type=float,
        default=1.0,
        help="standby: seconds between primary health probes",
    )
    serve.add_argument(
        "--ping-misses",
        type=int,
        default=3,
        help="standby: consecutive missed probes before auto-promotion",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="backpressure: maximum concurrently-processed requests "
        "before new ones get 429 + Retry-After",
    )
    serve.add_argument(
        "--min-sync-interval",
        type=float,
        default=0.0,
        help="backpressure: minimum seconds between /fabric/sync "
        "requests on one connection (0 = unlimited)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="wearer-cache byte cap (LRU eviction past it; default "
        "unbounded)",
    )
    serve.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="wearer-cache entry cap (LRU eviction past it; default "
        "unbounded)",
    )
    add_runtime_flags(serve)

    worker = sub.add_parser(
        "worker",
        help="run a campaign worker agent: pull shard leases from a "
        "coordinator (`serve`), execute the wearers (journaled, so a "
        "reassigned shard resumes from a dead worker's journals), and "
        "commit CRC-checked summaries back",
    )
    worker.add_argument(
        "--coordinator",
        required=True,
        metavar="URL[,URL...]",
        help="ordered coordinator list (primary first, standbys after), "
        "e.g. http://127.0.0.1:8732,http://127.0.0.1:8733 — the worker "
        "fails over down the list when a coordinator dies or answers "
        "fenced/standby",
    )
    worker.add_argument(
        "--workdir",
        required=True,
        metavar="DIR",
        help="scratch root for shard run directories; point multiple "
        "workers at a shared mount and a reassigned shard resumes "
        "from its predecessor's journals",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="worker identity reported to the coordinator "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=1.0,
        help="seconds between pulls when the queue is empty",
    )
    worker.add_argument(
        "--exit-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit once there has been no work for this long "
        "(default: run until SIGTERM)",
    )
    worker.add_argument(
        "--fabric-secret",
        default=None,
        metavar="SECRET",
        help="shared secret for HMAC-signed fabric RPCs (default: "
        "REPRO_FABRIC_SECRET env var; must match the coordinator's)",
    )
    worker.add_argument(
        "--rpc-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request coordinator timeout; a stalled coordinator "
        "(e.g. a paused/zombie primary) counts as unreachable after "
        "this long and the worker fails over down the list",
    )
    add_runtime_flags(worker)

    return parser


def _open_instrumentation(args):
    """Build the run's observability bundle from the parsed flags."""
    from repro.obs import Instrumentation, MetricsRegistry, TraceWriter

    tracer = None
    if getattr(args, "trace_out", None):
        tracer = TraceWriter(args.trace_out)
    return Instrumentation(MetricsRegistry(), tracer)


def auto_jobs(limit: Optional[int] = None) -> int:
    """Worker count when the caller expressed no preference: every core,
    clamped to ``limit`` (typically the number of configurations to
    evaluate — more workers than work items would only pay fork cost).
    """
    cores = os.cpu_count() or 1
    if limit is not None:
        cores = min(cores, max(1, int(limit)))
    return max(1, cores)


def _resolve_jobs(args) -> None:
    """Resolve an omitted ``--jobs`` to the auto-detected worker count.

    Detection is ``os.cpu_count()``, clamped for a command that takes a
    preset to the preset's feasible configuration count (no point forking
    more workers than there are configurations to simulate).  ``serve``,
    ``worker`` and ``table1`` take no preset, so they count cores without
    loading the simulator.  An explicit ``--jobs 1`` remains the serial
    escape hatch and is passed through untouched, as is any other
    explicit count.  Both the request and the resolution are recorded on
    ``args`` so the run manifest can report them.
    """
    if not hasattr(args, "jobs"):
        return
    args.jobs_requested = args.jobs
    if args.jobs is not None:
        return
    limit = None
    if hasattr(args, "preset"):
        from repro.experiments.scenario import make_space

        limit = make_space(args.preset).feasible_count()
    args.jobs = auto_jobs(limit)


def _write_manifest(args, obs) -> None:
    """First trace line: everything needed to reproduce the run.

    Field order is stable for the scenario-bound subcommands (the golden
    traces pin it); subcommands without a preset/seed (``table1``,
    ``serve``) simply omit the fields that do not apply.
    """
    if not obs.tracing:
        return
    fields = {"command": args.command}
    if hasattr(args, "preset"):
        fields["preset"] = args.preset
    if hasattr(args, "seed"):
        fields["seed"] = args.seed
    jobs = getattr(args, "jobs", None)
    fields["jobs"] = jobs
    fields["jobs_requested"] = getattr(args, "jobs_requested", jobs)
    fields["cache_dir"] = getattr(args, "cache_dir", None)
    fields["batch"] = getattr(args, "batch", "auto")
    if hasattr(args, "preset") and hasattr(args, "seed"):
        from repro.core.result_cache import scenario_fingerprint
        from repro.experiments.scenario import make_scenario

        scenario = make_scenario(args.preset, seed=args.seed)
        fields["scenario_fingerprint"] = scenario_fingerprint(scenario)
    obs.manifest(**fields)


#: Flags naming storage a run creates, and whether each names a directory.
_STORAGE_FLAGS = (
    ("--cache-dir", True),
    ("--out", True),
    ("--root", True),
    ("--workdir", True),
    ("--trace-out", False),
    ("--metrics-out", False),
)


#: (in range, requirement) of the ranges several numeric flags share.
_AT_LEAST_1 = (lambda n: n >= 1, "must be at least 1")
_POSITIVE_SECONDS = (
    lambda s: 0 < s < math.inf, "must be a positive, finite number of seconds"
)
_SECONDS = (
    lambda s: 0 <= s < math.inf, "must be a finite number of seconds, 0 or more"
)
# numpy's SeedSequence refuses a negative entropy
_SEED = (lambda n: n >= 0, "must be a non-negative integer")
_OUTAGE_FRACTION = (lambda f: 0 < f < 1, "must be within (0, 1)")

#: Numeric flags whose out-of-range values no run could use, checked
#: before any port is bound or file written: (command, flag, in range,
#: requirement); a command of None checks the flag on every subcommand
#: that has it.  A flag left at a default of None is unset, so it is
#: never out of range.
_NUMERIC_FLAGS = (
    (None, "--seed", *_SEED),
    ("robust", "--fault-seed", *_SEED),
    # hub_stress_ensemble's range; checked even when --hub-stress is off,
    # where the flag has no use
    ("robust", "--outage-fraction", *_OUTAGE_FRACTION),
    ("robustness", "--outage-fraction", *_OUTAGE_FRACTION),
    # a bound above 1 reads as a percentage, so [0, 100] covers both forms
    ("robustness", "--pdr-min", lambda p: 0 <= p <= 100,
     "must be within [0, 100]"),
    ("robustness", "--quantile", lambda q: 0 <= q <= 1,
     "must be within [0, 1]"),
    ("robustness", "--ensemble-size", *_AT_LEAST_1),
    ("annealing", "--sa-steps", *_AT_LEAST_1),
    ("serve", "--port", lambda port: 0 <= port <= 65535,
     "must be a TCP port in [0, 65535]"),
    # a lease lapses once expires_at <= now, so a TTL of 0 or less would
    # reclaim every lease as soon as it is granted
    ("serve", "--lease-ttl", *_POSITIVE_SECONDS),
    ("serve", "--ping-interval", *_POSITIVE_SECONDS),
    ("serve", "--ping-misses", *_AT_LEAST_1),
    # 0 would answer every request with 429
    ("serve", "--max-inflight", *_AT_LEAST_1),
    ("serve", "--min-sync-interval", *_SECONDS),
    ("serve", "--cache-max-bytes", *_AT_LEAST_1),
    ("serve", "--cache-max-entries", *_AT_LEAST_1),
    ("worker", "--poll", *_POSITIVE_SECONDS),
    ("worker", "--exit-idle", *_SECONDS),
    # a socket timeout of 0 makes every connect non-blocking
    ("worker", "--rpc-timeout", *_POSITIVE_SECONDS),
)


def _numeric_flag_error(args) -> Optional[str]:
    """What is wrong with the first numeric flag out of its range, or
    None."""
    for command, flag, in_range, requirement in _NUMERIC_FLAGS:
        if command not in (None, args.command):
            continue
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not in_range(value):
            return f"{args.command}: {flag} {requirement}, got {value}"
    return None


def _storage_path_error(args) -> Optional[str]:
    """What is wrong with the first storage path that cannot be created,
    or None — checked before any work, so a bad path costs nothing."""
    import os
    import pathlib

    for flag, directory in _STORAGE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        path = existing = pathlib.Path(value)
        # os.path.exists is False, not an error, below an unsearchable dir
        while not os.path.exists(existing):
            existing = existing.parent
        if existing == path and path.is_dir() != directory:
            kind = "is not a directory" if directory else "is a directory"
            return f"{flag} {value}: {kind}"
        if existing != path and not existing.is_dir():
            return f"{flag} {value}: {existing} is not a directory"
        if not directory and existing not in (path, path.parent):
            return f"{flag} {value}: {path.parent} does not exist"
        if not os.access(existing, os.W_OK):
            return f"{flag} {value}: {existing} is not writable"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _numeric_flag_error(args) or _storage_path_error(args)
    if problem is not None:
        print(f"hi-explore: {problem}", file=sys.stderr)
        return 2
    _resolve_jobs(args)

    from repro.obs import runtime as obs_runtime

    obs = _open_instrumentation(args)
    _write_manifest(args, obs)
    try:
        with obs_runtime.activate(obs):
            try:
                code = _run_command(args, obs)
            except Exception as exc:
                from repro.core.journal import JournalError

                if not isinstance(exc, JournalError):
                    raise
                print(f"hi-explore: {exc}", file=sys.stderr)
                code = 2
        obs.event("run.exit", code=code)
        return code
    finally:
        if getattr(args, "metrics_out", None):
            from repro.core.journal import dump_json

            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(dump_json(obs.metrics.to_dict()))
        obs.tracer.close()


def _open_journal(args, **manifest):
    """Open the run journal when --out/--resume was given (else None).

    The manifest pins every argument the trajectory depends on; resuming
    with different arguments is rejected up front rather than producing a
    silently diverging run.
    """
    out = getattr(args, "out", None)
    resume = getattr(args, "resume", None)
    if out is None and resume is None:
        return None
    from repro.core.journal import RunJournal

    if resume is not None:
        return RunJournal.resume(resume, **manifest)
    return RunJournal.create(out, **manifest)


def _finish_journal(journal, result) -> None:
    """Write the deterministic summary next to the journal and close it."""
    if journal is None:
        return
    from repro.core.journal import write_summary

    path = write_summary(journal.directory, result.to_dict())
    journal.close()
    print(f"run journal: {journal.path}")
    print(f"run summary: {path}")


def _build_campaign_spec(args):
    """The population from --spec (a JSON file) or the population flags."""
    from repro.campaign.spec import CampaignSpec, make_population

    if args.spec:
        return CampaignSpec.load(args.spec)
    bounds = args.pdr_min if args.pdr_min else [90.0]
    return make_population(
        args.wearers,
        preset=args.preset,
        base_seed=args.seed,
        pdr_bounds=bounds,
        mode=args.mode,
        name=args.name,
        quantile=args.quantile,
        ensemble_size=args.ensemble_size,
        hub_stress=args.hub_stress,
        outage_fraction=args.outage_fraction,
        correlated_links=args.correlated_links,
    )


def _run_campaign_command(args, obs) -> int:
    import pathlib

    from repro.campaign.aggregate import format_aggregate
    from repro.campaign.runner import run_campaign
    from repro.core.journal import CAMPAIGN_MANIFEST_FILENAME, JournalError

    directory = args.out or args.resume
    if directory is None:
        raise JournalError(
            "campaign needs a directory: --out DIR for a fresh campaign "
            "or --resume DIR to continue a killed one"
        )
    manifest_path = pathlib.Path(directory) / CAMPAIGN_MANIFEST_FILENAME
    if args.out is not None and manifest_path.exists():
        raise JournalError(
            f"{manifest_path} already exists; use --resume to continue "
            "that campaign (or point --out at a fresh directory)"
        )
    if args.resume is not None and not manifest_path.exists():
        raise JournalError(f"no campaign to resume at {manifest_path}")

    try:
        spec = _build_campaign_spec(args)
    except (ValueError, OSError) as exc:
        source = f"--spec {args.spec}" if args.spec else "campaign"
        print(f"hi-explore: {source}: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(
        spec,
        directory,
        shards=args.shards,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        batch_mode=args.batch,
    )
    print(format_aggregate(report.aggregate))
    telemetry = report.telemetry
    print(
        f"  throughput: {telemetry['wearers_per_minute'] or 0.0:.1f} wearers/min "
        f"over {telemetry['shards']} shard(s), jobs={telemetry['jobs']}, "
        f"{telemetry['resumed_wearers']} resumed"
    )
    print(f"campaign aggregate: {report.aggregate_path}")
    print(f"campaign atlas:     {report.atlas_path}")
    return 0


def _build_problem(args):
    """``(problem, ensemble)`` of a ``solve``, ``robust`` or ``dual`` run;
    the fault ensemble is ``None`` except for ``robust``.

    Raises ValueError on a numeric input no run could use: a PDR bound
    outside [0, 1], a quantile outside [0, 1], an empty ensemble or a
    lifetime bound that is not positive and finite.
    """
    from repro.experiments.scenario import make_problem

    if args.command == "dual":
        if not 0 < args.min_lifetime_days < math.inf:
            raise ValueError(
                "lifetime bound must be positive and finite, got "
                f"{args.min_lifetime_days}"
            )
        pdr_min = 0.5
    else:
        pdr_min = args.pdr_min / 100.0 if args.pdr_min > 1 else args.pdr_min
    problem = make_problem(
        pdr_min, args.preset, seed=args.seed,
        n_jobs=args.jobs, cache_dir=args.cache_dir,
        batch_mode=args.batch,
    )
    if args.command != "robust":
        return problem, None
    if not 0.0 <= args.quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {args.quantile}")
    from repro.faults.model import hub_stress_ensemble, sample_fault_ensemble

    scenario = problem.scenario
    if args.hub_stress:
        ensemble = hub_stress_ensemble(
            scenario.tsim_s,
            coordinator=scenario.coordinator_location,
            outage_fraction=args.outage_fraction,
            size=args.ensemble_size,
        )
    else:
        fault_seed = (
            args.fault_seed if args.fault_seed is not None else args.seed
        )
        ensemble = sample_fault_ensemble(
            args.ensemble_size,
            fault_seed,
            scenario.tsim_s,
            coordinator=scenario.coordinator_location,
            correlated_links=args.correlated_links,
        )
    return problem, ensemble


def _run_command(args, obs) -> int:
    if args.command in ("solve", "robust", "dual"):
        try:
            problem, ensemble = _build_problem(args)
        except ValueError as exc:
            print(f"hi-explore: {args.command}: {exc}", file=sys.stderr)
            return 2

    if args.command == "table1":
        from repro.experiments.table1 import format_table1

        print(format_table1())
        return 0

    if args.command == "campaign":
        return _run_campaign_command(args, obs)

    if args.command == "serve":
        from repro.campaign.service import serve_forever

        return serve_forever(
            args.root,
            host=args.host,
            port=args.port,
            jobs=args.jobs or 1,
            shards=args.shards,
            cache_dir=args.cache_dir,
            batch_mode=args.batch,
            lease_ttl=args.lease_ttl,
            fabric_secret=args.fabric_secret,
            standby_of=args.standby_of,
            node_name=args.node_name,
            ping_interval=args.ping_interval,
            ping_misses=args.ping_misses,
            max_inflight=args.max_inflight,
            min_sync_interval=args.min_sync_interval,
            cache_max_bytes=args.cache_max_bytes,
            cache_max_entries=args.cache_max_entries,
        )

    if args.command == "worker":
        from repro.campaign.worker import run_worker

        return run_worker(
            args.coordinator,
            args.workdir,
            name=args.name,
            jobs=args.jobs or 1,
            cache_dir=args.cache_dir,
            batch_mode=args.batch,
            poll_interval=args.poll,
            exit_idle=args.exit_idle,
            fabric_secret=args.fabric_secret,
            rpc_timeout=args.rpc_timeout,
        )

    if args.command == "space":
        from repro.experiments.scenario import make_space

        space = make_space(args.preset)
        print(f"total grid points: {space.total_size}")
        print(f"constraint-satisfying configurations: {space.feasible_count()}")
        print(f"feasible placements by node count: {space.placements_by_size()}")
        return 0

    if args.command == "solve":
        from repro.core.explorer import HumanIntranetExplorer
        from repro.experiments.scenario import get_preset

        preset = get_preset(args.preset)
        from repro.core.result_cache import scenario_fingerprint

        journal = _open_journal(
            args,
            command="solve",
            preset=args.preset,
            seed=args.seed,
            pdr_min=problem.pdr_min,
            exhaustive=bool(args.exhaustive),
            scenario_fingerprint=scenario_fingerprint(problem.scenario),
        )
        explorer = HumanIntranetExplorer(
            problem, candidate_cap=preset.candidate_cap, obs=obs
        )
        result = explorer.explore(exhaustive=args.exhaustive, journal=journal)
        print(result.summary())
        for record in result.iterations:
            print(
                f"  iteration {record.index}: analytic P={record.analytic_power_mw:.3f} mW, "
                f"{record.num_candidates} candidates, {len(record.feasible)} feasible"
            )
        print(explorer.oracle.format_stats())
        _finish_journal(journal, result)
        explorer.oracle.close()
        return 0 if result.found else 1

    if args.command == "robust":
        from repro.core.explorer import HumanIntranetExplorer
        from repro.experiments.robustness import resilience_line
        from repro.experiments.scenario import get_preset
        from repro.faults.resilience import EnsembleOracle

        scenario = problem.scenario
        preset = get_preset(args.preset)
        from repro.core.result_cache import scenario_fingerprint

        journal = _open_journal(
            args,
            command="robust",
            preset=args.preset,
            seed=args.seed,
            pdr_min=problem.pdr_min,
            quantile=args.quantile,
            scenario_fingerprint=scenario_fingerprint(scenario),
            ensemble=[fs.to_dict() for fs in ensemble],
        )
        oracle = EnsembleOracle(
            scenario, ensemble,
            n_jobs=args.jobs, cache_dir=args.cache_dir, obs=obs,
        )
        explorer = HumanIntranetExplorer(
            problem, candidate_cap=preset.candidate_cap, obs=obs
        )
        result = explorer.explore_robust(
            oracle, quantile=args.quantile, journal=journal
        )
        print("fault ensemble:")
        for fs in ensemble:
            print("  " + fs.describe())
        print(result.summary())
        if result.best is not None:
            print("  " + resilience_line(result.best, args.quantile))
        print(oracle.healthy_oracle.format_stats())
        _finish_journal(journal, result)
        oracle.close()
        return 0 if result.found else 1

    if args.command == "robustness":
        from repro.experiments.robustness import (
            format_robustness,
            run_robustness_comparison,
        )

        pdr_min = args.pdr_min / 100.0 if args.pdr_min > 1 else args.pdr_min
        data = run_robustness_comparison(
            args.preset,
            seed=args.seed,
            pdr_min=pdr_min,
            quantile=args.quantile,
            outage_fraction=args.outage_fraction,
            ensemble_size=args.ensemble_size,
            n_jobs=args.jobs,
            cache_dir=args.cache_dir,
            batch_mode=args.batch,
            obs=obs,
        )
        print(format_robustness(data))
        return 0

    if args.command == "figure3":
        from repro.experiments.figure3 import format_figure3, run_figure3

        print(
            format_figure3(
                run_figure3(
                    args.preset, seed=args.seed,
                    n_jobs=args.jobs, cache_dir=args.cache_dir,
                    batch_mode=args.batch,
                )
            )
        )
        return 0

    if args.command == "reduction":
        from repro.experiments.reduction import format_reduction, run_reduction

        print(
            format_reduction(
                run_reduction(
                    args.preset, seed=args.seed,
                    n_jobs=args.jobs, cache_dir=args.cache_dir,
                    batch_mode=args.batch,
                )
            )
        )
        return 0

    if args.command == "dual":
        from repro.core.explorer import HumanIntranetExplorer
        from repro.experiments.scenario import get_preset

        preset = get_preset(args.preset)
        explorer = HumanIntranetExplorer(
            problem, candidate_cap=preset.candidate_cap, obs=obs
        )
        result = explorer.explore_max_reliability(args.min_lifetime_days)
        print(result.summary())
        print(explorer.oracle.format_stats())
        explorer.oracle.close()
        return 0 if result.found else 1

    if args.command == "extensions":
        from repro.experiments.extensions import (
            format_dual_staircase,
            format_posture_sensitivity,
            format_routing_comparison,
            run_dual_staircase,
            run_posture_sensitivity,
            run_routing_comparison,
        )

        print(format_routing_comparison(
            run_routing_comparison(args.preset, seed=args.seed)))
        print()
        print(format_posture_sensitivity(
            run_posture_sensitivity(args.preset, seed=args.seed)))
        print()
        print(format_dual_staircase(
            run_dual_staircase(
                args.preset, seed=args.seed,
                n_jobs=args.jobs, cache_dir=args.cache_dir,
                batch_mode=args.batch,
            )))
        return 0

    if args.command == "annealing":
        from repro.experiments.annealing_cmp import (
            format_annealing_comparison,
            run_annealing_comparison,
        )

        print(
            format_annealing_comparison(
                run_annealing_comparison(
                    args.preset, seed=args.seed, sa_steps=args.sa_steps,
                    n_jobs=args.jobs, cache_dir=args.cache_dir,
                    batch_mode=args.batch,
                )
            )
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
