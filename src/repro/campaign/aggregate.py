"""Fleet-level aggregation over per-wearer run summaries.

The aggregate report is built exclusively from *deterministic* inputs —
the campaign spec and each wearer's ``summary.json`` (already a
wall-clock-free projection, see
:func:`repro.core.journal.summary_projection`) — and serializes with
sorted keys, so an uninterrupted campaign and any kill/resume chain of it
produce **byte-identical** ``aggregate.json`` and ``atlas.json``
artifacts.  That byte identity is the campaign-level extension of PR 5's
per-run guarantee, and it is what the chaos test and the campaign-smoke
CI job diff.

Non-deterministic observations (wall time, throughput, pool resilience
counters) are deliberately routed to a separate ``telemetry.json`` that
never enters the aggregate fingerprint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.analysis.pareto import front_from_points
from repro.core.journal import payload_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import CampaignSpec

#: Report file names inside a campaign directory.
AGGREGATE_FILENAME = "aggregate.json"
ATLAS_FILENAME = "atlas.json"
TELEMETRY_FILENAME = "telemetry.json"


def aggregate_fingerprint(payload: dict) -> str:
    """Digest of an aggregate payload (minus any embedded fingerprint)."""
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    return payload_digest(body)


def _best_point(wearer, summary: dict) -> Optional[dict]:
    """Normalize a wearer's ``best`` block (solve and robust summaries
    serialize differently) into one atlas point, or ``None``."""
    best = summary.get("best")
    if not best:
        return None
    if wearer.mode == "robust":
        # RobustExplorationResult.to_dict → ResilienceRecord.to_dict:
        # the atlas plots healthy objectives, like the paper's Fig. 3.
        return {
            "wearer_id": wearer.wearer_id,
            "label": best["config"],
            "pdr": best["healthy_pdr"],
            "power_mw": best["healthy_power_mw"],
            "nlt_days": best["healthy_nlt_days"],
        }
    from repro.core.design_space import Configuration
    from repro.library.mac_options import MacKind, RoutingKind

    config = Configuration(
        placement=tuple(best["placement"]),
        tx_dbm=best["tx_dbm"],
        mac=MacKind(best["mac"]),
        routing=RoutingKind(best["routing"]),
    )
    return {
        "wearer_id": wearer.wearer_id,
        "label": config.label(),
        "pdr": best["pdr"],
        "power_mw": best["power_mw"],
        "nlt_days": best["nlt_days"],
    }


def _stat(summary: dict, key: str) -> int:
    stats = summary.get("oracle_stats") or {}
    return int(stats.get(key, 0) or 0)


def build_aggregate(
    spec: "CampaignSpec", summaries: Dict[str, dict]
) -> dict:
    """Roll per-wearer summaries up into the fleet aggregate payload.

    ``summaries`` maps wearer id → that wearer's deterministic summary
    projection.  Every wearer in the spec must be present — aggregating a
    partial campaign would produce an artifact that *looks* final.
    """
    missing = [w.wearer_id for w in spec.wearers if w.wearer_id not in summaries]
    if missing:
        raise ValueError(f"missing wearer summaries: {missing}")

    cohorts: Dict[str, dict] = {}
    for wearer in spec.wearers:  # spec order; ids are unique
        summary = summaries[wearer.wearer_id]
        point = _best_point(wearer, summary)
        entry = {
            "wearer_id": wearer.wearer_id,
            "mode": wearer.mode,
            "seed": wearer.seed,
            "pdr_min": wearer.pdr_min,
            "status": summary.get("status"),
            "found": point is not None,
            "simulations_run": _stat(summary, "simulations_run"),
            "cache_hits": _stat(summary, "cache_hits"),
            "best": point,
        }
        cohort = cohorts.setdefault(
            wearer.cohort, {"wearers": [], "atlas": []}
        )
        cohort["wearers"].append(entry)

    for cohort in cohorts.values():
        points = [e["best"] for e in cohort["wearers"] if e["best"]]
        front = front_from_points(points)
        cohort["atlas"] = [
            {
                "wearer_id": p.record.wearer_id,
                "label": p.label,
                "nlt_days": p.nlt_days,
                "pdr": p.pdr,
            }
            for p in front
        ]

    all_entries = [e for c in cohorts.values() for e in c["wearers"]]
    payload = {
        "kind": "campaign_aggregate",
        "campaign": spec.fingerprint(),
        "name": spec.name,
        "preset": spec.preset,
        "wearers": len(spec.wearers),
        "feasible": sum(1 for e in all_entries if e["found"]),
        "simulations_run": sum(e["simulations_run"] for e in all_entries),
        "cache_hits": sum(e["cache_hits"] for e in all_entries),
        "cohorts": cohorts,
    }
    payload["fingerprint"] = aggregate_fingerprint(payload)
    return payload


def atlas_payload(aggregate: dict) -> dict:
    """The standalone Pareto-atlas artifact (one front per cohort)."""
    return {
        "kind": "campaign_atlas",
        "campaign": aggregate["campaign"],
        "fingerprint": aggregate["fingerprint"],
        "cohorts": {
            name: cohort["atlas"]
            for name, cohort in aggregate["cohorts"].items()
        },
    }


def format_aggregate(aggregate: dict) -> str:
    """Human-readable fleet report for the CLI."""
    lines = [
        f"campaign {aggregate['name']} "
        f"[{aggregate['campaign']}] preset={aggregate['preset']}",
        f"  wearers: {aggregate['wearers']}  "
        f"feasible: {aggregate['feasible']}  "
        f"simulations: {aggregate['simulations_run']}  "
        f"cache hits: {aggregate['cache_hits']}",
        f"  aggregate fingerprint: {aggregate['fingerprint']}",
    ]
    for name in sorted(aggregate["cohorts"]):
        cohort = aggregate["cohorts"][name]
        lines.append(
            f"  cohort {name}: {len(cohort['wearers'])} wearer(s), "
            f"Pareto atlas {len(cohort['atlas'])} point(s)"
        )
        for point in cohort["atlas"]:
            lines.append(
                f"    NLT={point['nlt_days']:6.1f} d  "
                f"PDR={100 * point['pdr']:6.2f}%  "
                f"{point['wearer_id']}  {point['label']}"
            )
    return "\n".join(lines)


def telemetry_payload(
    spec: "CampaignSpec",
    aggregate: dict,
    wall_seconds: float,
    shards: int,
    jobs: int,
    pool_stats: Optional[dict] = None,
    resumed_wearers: int = 0,
) -> dict:
    """Throughput + resilience roll-up (non-deterministic by design)."""
    wearers = len(spec.wearers)
    return {
        "kind": "campaign_telemetry",
        "campaign": spec.fingerprint(),
        "aggregate_fingerprint": aggregate["fingerprint"],
        "shards": shards,
        "jobs": jobs,
        "wearers": wearers,
        "resumed_wearers": resumed_wearers,
        "wall_seconds": wall_seconds,
        "wearers_per_minute": (
            60.0 * wearers / wall_seconds if wall_seconds > 0 else None
        ),
        "simulations_run": aggregate["simulations_run"],
        "cache_hits": aggregate["cache_hits"],
        "cache_hit_rate": (
            aggregate["cache_hits"]
            / (aggregate["cache_hits"] + aggregate["simulations_run"])
            if aggregate["cache_hits"] + aggregate["simulations_run"]
            else 0.0
        ),
        "pool": pool_stats or {},
    }
