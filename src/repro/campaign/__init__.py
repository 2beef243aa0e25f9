"""Fleet-scale campaign layer: design a Human Intranet per wearer.

The paper optimizes one network for one wearer; this package treats
"design a network for each of N wearers" as the workload.  A
:class:`~repro.campaign.spec.CampaignSpec` describes the population
(per-wearer seeds, reliability bounds, solve/robust knobs) and fingerprints
it; :mod:`~repro.campaign.shard` deterministically partitions wearers into
shards; :class:`~repro.campaign.queue.CampaignQueue` is the one campaign
engine — it owns the campaign directory's manifests, records each shard's
committed per-wearer summaries, and writes the fleet artifacts through
:mod:`~repro.campaign.aggregate` (per-cohort Pareto atlases, deterministic
aggregate fingerprint, throughput telemetry).

Two drivers feed it the same work items and run every wearer through the
same crash-safe, journaled :func:`~repro.campaign.runner.run_wearer_task`:
:func:`~repro.campaign.runner.run_campaign` on one host (``hi-explore
campaign``, or a service-local submission) over the fault-tolerant
:class:`~repro.core.parallel.WorkerPool`, committing without leases; and
:mod:`~repro.campaign.worker` agents (``hi-explore worker``) leasing shards
from :mod:`~repro.campaign.service`, the stdlib-only async HTTP API.  A
fleet campaign is therefore byte-identical to a local one by
construction, and a killed service resumes every campaign from its
journals.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaign.spec": ("CampaignSpec", "WearerSpec", "make_population"),
    "repro.campaign.shard": ("shard_assignment", "shard_of"),
    "repro.campaign.runner": ("CampaignReport", "run_campaign"),
    "repro.campaign.aggregate": ("build_aggregate",),
    "repro.campaign.queue": (
        "CampaignQueue", "QueueError", "shard_payload_crc",
    ),
    "repro.campaign.worker": ("WorkerAgent", "run_worker"),
})
