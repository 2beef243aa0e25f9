"""Campaign execution: shard the population, journal every wearer run.

One campaign directory holds everything (layout pinned by the manifests
in :mod:`repro.core.journal`)::

    <campaign_dir>/
      campaign.json            CRC-checked manifest: spec + fingerprint + shards
      shards/shard-NN/
        shard.json             CRC-checked shard manifest (linked by fingerprint)
        <wearer_id>/           one PR-5 journaled run directory per wearer
          journal.jsonl
          summary.json         written only at wearer completion
      aggregate.json           deterministic fleet report (byte-stable)
      atlas.json               per-cohort Pareto atlases (byte-stable)
      telemetry.json           throughput/resilience roll-up (wall clock!)

Crash safety is inherited, not reimplemented: each wearer run is an
ordinary journaled exploration, so killing the campaign runner at any
instant loses at most one fsynced journal line per in-flight wearer.
:func:`run_campaign` on an existing campaign directory *resumes*: wearers
with a ``summary.json`` are loaded (their runs completed), wearers with a
journal but no summary replay through the PR-5 path to a bit-identical
summary, and untouched wearers run fresh — so the final aggregate is
byte-identical to an uninterrupted run no matter how many times the
campaign was killed.

Wearers are fanned out over the fault-tolerant
:class:`~repro.core.parallel.WorkerPool` (one wearer run per task,
serial inside the worker); the deterministic sharder decides which shard
directory a wearer's journal lives in, independent of the worker count.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.aggregate import (
    AGGREGATE_FILENAME,
    ATLAS_FILENAME,
    TELEMETRY_FILENAME,
    atlas_payload,
    build_aggregate,
    telemetry_payload,
)
from repro.campaign.shard import shard_assignment
from repro.campaign.spec import CampaignSpec, WearerSpec
from repro.core.journal import (
    CAMPAIGN_MANIFEST_FILENAME,
    JOURNAL_FILENAME,
    SHARD_MANIFEST_FILENAME,
    SUMMARY_FILENAME,
    JournalError,
    RunJournal,
    dump_json,
    load_campaign_manifest,
    load_campaign_shards,
    read_summary,
    shard_directory,
    write_atomic,
    write_campaign_manifest,
    write_shard_manifest,
    write_summary,
)
from repro.core.parallel import WorkerPool


@dataclass
class CampaignReport:
    """What :func:`run_campaign` hands back to the CLI/service."""

    spec: CampaignSpec
    directory: pathlib.Path
    aggregate: dict
    telemetry: dict

    @property
    def fingerprint(self) -> str:
        return self.aggregate["fingerprint"]

    @property
    def aggregate_path(self) -> pathlib.Path:
        return self.directory / AGGREGATE_FILENAME

    @property
    def atlas_path(self) -> pathlib.Path:
        return self.directory / ATLAS_FILENAME


def wearer_run_dir(campaign_dir, shard_index: int, wearer_id: str) -> pathlib.Path:
    return shard_directory(campaign_dir, shard_index) / wearer_id


def _wearer_manifest(
    wearer: WearerSpec, preset: str, campaign: str, scenario_fp: str
) -> dict:
    """The RunJournal manifest for one wearer run: everything its
    trajectory depends on, so a resume with a drifted spec is rejected."""
    manifest = {
        "command": wearer.mode,
        "campaign": campaign,
        "wearer_id": wearer.wearer_id,
        "preset": preset,
        "seed": wearer.seed,
        "pdr_min": wearer.pdr_min,
        "scenario_fingerprint": scenario_fp,
    }
    if wearer.mode == "robust":
        manifest["quantile"] = wearer.quantile
    return manifest


def _wearer_ensemble(wearer: WearerSpec, scenario):
    from repro.faults.model import hub_stress_ensemble, sample_fault_ensemble

    if wearer.hub_stress:
        return hub_stress_ensemble(
            scenario.tsim_s,
            coordinator=scenario.coordinator_location,
            outage_fraction=wearer.outage_fraction,
            size=wearer.ensemble_size,
        )
    fault_seed = (
        wearer.fault_seed if wearer.fault_seed is not None else wearer.seed
    )
    return sample_fault_ensemble(
        wearer.ensemble_size,
        fault_seed,
        scenario.tsim_s,
        coordinator=scenario.coordinator_location,
        correlated_links=wearer.correlated_links,
    )


def run_wearer_task(task: dict) -> dict:
    """Pool task: execute (or resume, or just load) one wearer's run.

    A pure function of the task description plus the wearer's run
    directory: a completed run short-circuits to its summary, a partial
    journal resumes bit-identically, a fresh directory runs from scratch
    — all three converge on the same summary bytes, which is what makes
    the campaign aggregate invariant under kills and retries.

    Two optional fast paths sit in front of the simulation (PR 9):
    ``task["cached_summary"]`` carries a summary prefetched from the
    coordinator's cross-campaign wearer cache, and
    ``task["wearer_cache_dir"]`` names a local one keyed by
    :func:`~repro.campaign.wearer_cache.wearer_fingerprint`.  Either hit
    replays the cached bytes through :func:`write_summary` — the same
    projection a fresh run goes through, so the resulting
    ``summary.json`` is byte-identical to simulating — and returns state
    ``"cached"``.  Fresh results are stored back into the local cache.
    """
    from repro.core.explorer import HumanIntranetExplorer
    from repro.core.result_cache import scenario_fingerprint
    from repro.experiments.scenario import get_preset, make_problem
    from repro.obs import runtime

    obs = runtime.get_active()
    wearer = WearerSpec.from_dict(task["wearer"])
    run_dir = pathlib.Path(task["run_dir"])
    if (run_dir / SUMMARY_FILENAME).exists():
        return {
            "wearer_id": wearer.wearer_id,
            "summary": read_summary(run_dir),
            "state": "loaded",
        }

    cache = fingerprint = None
    if task.get("wearer_cache_dir"):
        from repro.campaign.wearer_cache import (
            WearerResultCache,
            wearer_fingerprint,
        )

        cache = WearerResultCache(task["wearer_cache_dir"])
        fingerprint = wearer_fingerprint(task["preset"], wearer)
    cached = task.get("cached_summary")
    source = "prefetch" if cached is not None else None
    if cached is None and cache is not None:
        cached = cache.get(fingerprint)
        source = "local"
    if cached is not None:
        # Replaying the cached bytes through write_summary applies the
        # same (idempotent) deterministic projection a fresh run gets,
        # so downstream aggregation cannot tell a hit from a simulation.
        write_summary(run_dir, cached)
        if cache is not None and source == "prefetch":
            cache.put(fingerprint, cached)  # seed the local cache too
        obs.counter("cache.wearer_hits").inc()
        obs.event(
            "cache.wearer",
            action="hit",
            source=source,
            wearer_id=wearer.wearer_id,
            campaign=task.get("campaign"),
        )
        return {
            "wearer_id": wearer.wearer_id,
            "summary": read_summary(run_dir),
            "state": "cached",
        }
    if cache is not None:
        obs.counter("cache.wearer_misses").inc()

    problem = make_problem(
        wearer.pdr_min,
        task["preset"],
        seed=wearer.seed,
        n_jobs=1,  # parallelism lives at the wearer grain
        cache_dir=task.get("cache_dir"),
        batch_mode=task.get("batch_mode", "auto"),
    )
    preset = get_preset(task["preset"])
    manifest = _wearer_manifest(
        wearer,
        task["preset"],
        task["campaign"],
        scenario_fingerprint(problem.scenario),
    )
    resumed = (run_dir / JOURNAL_FILENAME).exists()
    if resumed:
        journal = RunJournal.resume(run_dir, **manifest)
    else:
        journal = RunJournal.create(run_dir, **manifest)

    explorer = HumanIntranetExplorer(
        problem, candidate_cap=preset.candidate_cap
    )
    oracle = explorer.oracle
    try:
        if wearer.mode == "robust":
            from repro.faults.resilience import EnsembleOracle

            ensemble = _wearer_ensemble(wearer, problem.scenario)
            oracle = EnsembleOracle(
                problem.scenario,
                ensemble,
                n_jobs=1,
                cache_dir=task.get("cache_dir"),
            )
            result = explorer.explore_robust(
                oracle, quantile=wearer.quantile, journal=journal
            )
        else:
            result = explorer.explore(journal=journal)
        write_summary(run_dir, result.to_dict())
    finally:
        journal.close()
        oracle.close()
        explorer.oracle.close()
    summary = read_summary(run_dir)
    if cache is not None:
        # The on-disk summary is already the deterministic projection;
        # storing those bytes makes the entry exactly what a future hit
        # will replay.
        cache.put(fingerprint, summary)
        obs.counter("cache.wearer_stores").inc()
        obs.event(
            "cache.wearer",
            action="store",
            wearer_id=wearer.wearer_id,
            campaign=task.get("campaign"),
        )
    return {
        "wearer_id": wearer.wearer_id,
        "summary": summary,
        "state": "resumed" if resumed else "ran",
    }


def open_campaign_dir(
    spec: CampaignSpec, directory, shards: int
) -> Tuple[int, Dict[int, List[WearerSpec]]]:
    """Create, or reopen, the campaign directory of ``spec``.

    A fresh directory gets its campaign manifest and one shard manifest
    per shard; an existing one must belong to the same campaign, and the
    shard count pinned in its manifest wins over ``shards``.  Either way
    the whole manifest chain is cross-validated before any journal is
    touched.  Returns ``(shards, shard index -> wearers)``.
    """
    directory = pathlib.Path(directory)
    fingerprint = spec.fingerprint()
    if (directory / CAMPAIGN_MANIFEST_FILENAME).exists():
        manifest = load_campaign_manifest(directory)
        if manifest.get("fingerprint") != fingerprint:
            raise JournalError(
                f"campaign directory {directory} belongs to campaign "
                f"{manifest.get('fingerprint')!r}, not {fingerprint!r} — "
                "refusing to mix campaigns"
            )
        shards = int(manifest.get("shards", shards))
    else:
        write_campaign_manifest(directory, spec.to_dict(), fingerprint, shards)
    assignment = shard_assignment(spec, shards)
    for index, wearers in sorted(assignment.items()):
        shard_dir = shard_directory(directory, index)
        if not (shard_dir / SHARD_MANIFEST_FILENAME).exists():
            write_shard_manifest(
                directory, index, fingerprint, [w.wearer_id for w in wearers]
            )
    load_campaign_shards(directory)
    return shards, assignment


def write_artifacts(
    spec: CampaignSpec,
    directory,
    summaries: Dict[str, dict],
    elapsed: Callable[[], float],
    **telemetry,
) -> Tuple[dict, dict]:
    """Write ``aggregate.json``, ``atlas.json`` and ``telemetry.json``.

    The aggregate and atlas are deterministic functions of the wearer
    summaries — the byte-diffed artifacts; ``elapsed()`` is read once
    they are on disk, for the telemetry's wall clock.  Returns
    ``(aggregate, telemetry)``.
    """
    directory = pathlib.Path(directory)
    aggregate = build_aggregate(spec, summaries)
    write_atomic(directory / AGGREGATE_FILENAME, dump_json(aggregate))
    write_atomic(
        directory / ATLAS_FILENAME, dump_json(atlas_payload(aggregate))
    )
    telemetry = telemetry_payload(
        spec, aggregate, wall_seconds=elapsed(), **telemetry
    )
    write_atomic(directory / TELEMETRY_FILENAME, dump_json(telemetry))
    return aggregate, telemetry


def run_campaign(
    spec: CampaignSpec,
    directory,
    shards: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
    pool: Optional[WorkerPool] = None,
    wearer_cache_dir: Optional[str] = None,
) -> CampaignReport:
    """Execute (or resume) a campaign in ``directory``.

    ``shards`` fixes the directory layout and defaults to ``jobs``; on
    resume the shard count pinned in the campaign manifest wins, so a
    killed ``--jobs 4`` campaign can be finished under ``--jobs 1`` with
    every journal found where it was left.  ``jobs`` sizes the
    fault-tolerant worker pool (1 = in-process serial).
    ``wearer_cache_dir`` (optional) points at a cross-campaign wearer
    cache: hits skip simulation entirely, with byte-identical artifacts
    either way.
    """
    from repro.obs import runtime

    obs = runtime.get_active()
    start = time.perf_counter()
    directory = pathlib.Path(directory)
    fingerprint = spec.fingerprint()
    jobs = max(1, int(jobs))
    shards, assignment = open_campaign_dir(
        spec, directory, max(1, int(shards if shards is not None else jobs))
    )

    tasks: List[dict] = []
    for index, wearers in sorted(assignment.items()):
        for wearer in wearers:
            tasks.append(
                {
                    "campaign": fingerprint,
                    "preset": spec.preset,
                    "wearer": wearer.to_dict(),
                    "run_dir": str(
                        wearer_run_dir(directory, index, wearer.wearer_id)
                    ),
                    "cache_dir": cache_dir,
                    "batch_mode": batch_mode,
                    "wearer_cache_dir": wearer_cache_dir,
                }
            )

    obs.event(
        "campaign.start",
        campaign=fingerprint,
        name=spec.name,
        preset=spec.preset,
        wearers=len(tasks),
        shards=shards,
        jobs=jobs,
    )
    obs.counter("campaign.runs").inc()

    def _progress(index: int, result: dict) -> None:
        obs.counter("campaign.wearers_done").inc()
        if result["state"] != "ran":
            obs.counter("campaign.wearers_resumed").inc()
        obs.event(
            "campaign.wearer_done",
            campaign=fingerprint,
            wearer_id=result["wearer_id"],
            state=result["state"],
            found=result["summary"].get("best") is not None,
        )

    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(jobs)
    try:
        results = pool.map_ordered(run_wearer_task, tasks, on_result=_progress)
    finally:
        if own_pool:
            pool.shutdown()

    aggregate, telemetry = write_artifacts(
        spec,
        directory,
        {r["wearer_id"]: r["summary"] for r in results},
        elapsed=lambda: time.perf_counter() - start,
        shards=shards,
        jobs=jobs,
        pool_stats={
            "retries": pool.retries,
            "respawns": pool.respawns,
            "quarantined": pool.quarantined,
            "degraded": pool.degraded,
        },
        resumed_wearers=sum(1 for r in results if r["state"] != "ran"),
    )
    obs.event(
        "campaign.done",
        campaign=fingerprint,
        aggregate_fingerprint=aggregate["fingerprint"],
        feasible=aggregate["feasible"],
        wearers=aggregate["wearers"],
    )
    return CampaignReport(
        spec=spec, directory=directory, aggregate=aggregate,
        telemetry=telemetry,
    )
