"""Campaign execution on one host, and the per-wearer task fleets share.

One campaign directory holds everything (layout pinned by the manifests
in :mod:`repro.core.journal`)::

    <campaign_dir>/
      campaign.json            CRC-checked manifest: spec + fingerprint + shards
      queue.jsonl              shard commit log (plus leases, in a fleet)
      shards/shard-NN/
        shard.json             CRC-checked shard manifest (linked by fingerprint)
        <wearer_id>/           one PR-5 journaled run directory per wearer
          journal.jsonl
          summary.json         written only at wearer completion
      aggregate.json           deterministic fleet report (byte-stable)
      atlas.json               per-cohort Pareto atlases (byte-stable)
      telemetry.json           throughput/resilience roll-up (wall clock!)

The directory belongs to its :class:`~repro.campaign.queue.CampaignQueue`,
the one campaign engine.  :func:`run_campaign` drives it locally: every
wearer runs through :func:`run_wearer_task` on the fault-tolerant
:class:`~repro.core.parallel.WorkerPool` (one wearer per task, serial
inside the worker), every shard is committed without a lease, and the
queue writes the artifacts.  Fleet workers lease the same work items and
build the same tasks (:func:`wearer_tasks`).  No task opens the
cross-campaign wearer cache: the coordinator prefetches its hits onto
the work item (``"cached"``, from a lease or from :func:`run_campaign`'s
``cached``) and stores the summaries it gets back.

Crash safety is inherited, not reimplemented: each wearer run is an
ordinary journaled exploration, so a kill at any instant loses at most
one fsynced journal line per in-flight wearer.  On an existing directory
:func:`run_campaign` *resumes*: finished wearers load their
``summary.json``, journaled ones replay bit-identically, untouched ones
run fresh, and recommitting an already committed shard is a no-op — so
the aggregate is byte-identical to an uninterrupted run however often
the campaign was killed (a directory from before ``queue.jsonl``
existed simply gains one).

Importing this module imports the simulator (explorer, scenario
builders, result cache, fault layer), so a process that imports it
before running wearers pays for that before its first wearer; fleet
code that never runs a wearer (a coordinator serving fleet campaigns, a
worker waiting for its first lease) imports it only on demand.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign.aggregate import AGGREGATE_FILENAME, ATLAS_FILENAME
from repro.campaign.queue import CampaignQueue, shard_payload_crc
from repro.campaign.spec import CampaignSpec, WearerSpec
from repro.core.explorer import HumanIntranetExplorer
from repro.core.journal import (
    JOURNAL_FILENAME,
    SUMMARY_FILENAME,
    RunJournal,
    read_summary,
    shard_directory,
    write_summary,
)
from repro.core.parallel import WorkerPool
from repro.core.result_cache import scenario_fingerprint
from repro.experiments.scenario import get_preset, make_problem
from repro.faults.model import hub_stress_ensemble, sample_fault_ensemble
from repro.faults.resilience import EnsembleOracle
from repro.obs import runtime


@dataclass
class CampaignReport:
    """What :func:`run_campaign` hands back to the CLI/service."""

    spec: CampaignSpec
    directory: pathlib.Path
    aggregate: dict
    telemetry: dict
    #: wearer_id → the ``summary.json`` projection every wearer ended on.
    summaries: Dict[str, dict]

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

    One fast path sits in front of the simulation: a summary the
    coordinator prefetched from its cross-campaign wearer cache
    (``task["cached_summary"]``).  It goes through :func:`write_summary`
    like a fresh run, so the resulting ``summary.json`` is
    byte-identical to simulating, and returns state ``"cached"``.  The
    task never opens a cache itself: the coordinator stores the summary
    when it is committed or its local campaign finishes.
    """
    obs = runtime.get_active()
    wearer = WearerSpec.from_dict(task["wearer"])
    run_dir = pathlib.Path(task["run_dir"])
    if (run_dir / SUMMARY_FILENAME).exists():
        return {
            "wearer_id": wearer.wearer_id,
            "summary": read_summary(run_dir),
            "state": "loaded",
        }

    cached = task.get("cached_summary")
    if cached is not None:
        # Replaying the cached bytes through write_summary applies the
        # same (idempotent) deterministic projection a fresh run gets,
        # so downstream aggregation cannot tell a hit from a simulation.
        write_summary(run_dir, cached)
        obs.counter("cache.wearer_hits").inc()
        obs.event(
            "cache.wearer",
            action="hit",
            source="prefetch",
            wearer_id=wearer.wearer_id,
            campaign=task.get("campaign"),
        )
        return {
            "wearer_id": wearer.wearer_id,
            "summary": read_summary(run_dir),
            "state": "cached",
        }

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
    return {
        "wearer_id": wearer.wearer_id,
        "summary": read_summary(run_dir),
        "state": "resumed" if resumed else "ran",
    }


def wearer_tasks(
    work: dict,
    campaign_root,
    cache_dir: Optional[str],
    batch_mode: str,
) -> List[dict]:
    """One :func:`run_wearer_task` description per wearer of ``work``.

    ``work`` is a :meth:`~repro.campaign.queue.CampaignQueue.work_item`:
    a fleet lease, or a shard of a local run.  Each wearer journals under
    ``<campaign_root>/shards/shard-NN/<wearer_id>/``; summaries the
    coordinator prefetched from its wearer cache (``work["cached"]``)
    ride along.
    """
    cached = work.get("cached") or {}
    return [
        {
            "campaign": work["campaign"],
            "preset": work["preset"],
            "wearer": wearer,
            "run_dir": str(
                wearer_run_dir(campaign_root, work["shard"], wearer["wearer_id"])
            ),
            "cache_dir": cache_dir,
            "batch_mode": batch_mode,
            "cached_summary": cached.get(wearer["wearer_id"]),
        }
        for wearer in work["wearers"]
    ]


def run_campaign(
    spec: CampaignSpec,
    directory,
    shards: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
    cached: Optional[Dict[str, dict]] = None,
) -> CampaignReport:
    """Execute (or resume) a campaign in ``directory``.

    ``shards`` fixes the directory layout and defaults to ``jobs``; on
    resume the shard count pinned in the campaign manifest wins, so a
    killed ``--jobs 4`` campaign can be finished under ``--jobs 1`` with
    every journal found where it was left.  ``jobs`` sizes the
    fault-tolerant worker pool (1 = in-process serial).  ``cached``
    (optional) maps wearer ids to summaries the coordinator's wearer
    cache already holds: those wearers replay their summary instead of
    simulating, with byte-identical artifacts either way.  The report
    carries every wearer's summary, for the caller to cache.

    The directory's :class:`~repro.campaign.queue.CampaignQueue` records
    the outcome: every wearer runs (a finished one only loads its
    summary), every shard is committed as ``worker="local"`` without a
    lease — this process is the directory's only writer — and the
    queue's :meth:`~repro.campaign.queue.CampaignQueue.finalize` writes
    the artifacts, exactly as for a fleet campaign.
    """
    obs = runtime.get_active()
    jobs = max(1, int(jobs))
    queue = CampaignQueue(
        spec, directory, shards=shards if shards is not None else jobs
    )
    try:
        tasks = [
            task
            for index in sorted(queue.wearers_of)
            for task in wearer_tasks(
                dict(queue.work_item(index), cached=cached),
                queue.directory, cache_dir, batch_mode,
            )
        ]
        obs.event(
            "campaign.start",
            campaign=queue.fingerprint,
            name=spec.name,
            preset=spec.preset,
            wearers=len(tasks),
            shards=queue.shards,
            jobs=jobs,
        )
        obs.counter("campaign.runs").inc()

        def _progress(index: int, result: dict) -> None:
            obs.counter("campaign.wearers_done").inc()
            if result["state"] != "ran":
                obs.counter("campaign.wearers_resumed").inc()
            obs.event(
                "campaign.wearer_done",
                campaign=queue.fingerprint,
                wearer_id=result["wearer_id"],
                state=result["state"],
                found=result["summary"].get("best") is not None,
            )

        with WorkerPool(jobs) as pool:
            results = pool.map_ordered(
                run_wearer_task, tasks, on_result=_progress
            )
        summaries = {r["wearer_id"]: r["summary"] for r in results}
        for index, wearer_ids in sorted(queue.wearers_of.items()):
            shard = {wid: summaries[wid] for wid in wearer_ids}
            queue.commit(index, shard, shard_payload_crc(shard), worker="local")
        aggregate, telemetry = queue.finalize(
            jobs=jobs,
            pool_stats={
                "retries": pool.retries,
                "respawns": pool.respawns,
                "quarantined": pool.quarantined,
                "degraded": pool.degraded,
            },
            resumed_wearers=sum(1 for r in results if r["state"] != "ran"),
        )
    finally:
        queue.close()
    obs.event(
        "campaign.done",
        campaign=queue.fingerprint,
        aggregate_fingerprint=aggregate["fingerprint"],
        feasible=aggregate["feasible"],
        wearers=aggregate["wearers"],
    )
    return CampaignReport(
        spec=spec, directory=queue.directory, aggregate=aggregate,
        telemetry=telemetry, summaries=summaries,
    )
