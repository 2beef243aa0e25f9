"""E4 — robustness: nominal-optimal vs. chance-constrained robust design.

The paper optimizes the Human Intranet for a *healthy* network; its own
motivation (safety-critical traffic over a dynamic body channel) argues
the design should also be judged in degraded conditions.  E4 makes that
concrete with the coordinator-hostile workload of
:func:`repro.faults.model.hub_stress_ensemble`:

1. run nominal Algorithm 1 (healthy accept test) and robust Algorithm 1
   (``quantile_q(PDR over the fault ensemble) ≥ PDR_min``) on the same
   problem and compare the winners;
2. evaluate the nominal winner under the same fault ensemble, exposing
   how much reliability the healthy-only design loses when the hub radio
   goes dark;
3. repeat the robust exploration on routing-restricted spaces (star-only
   vs. flooding-only), isolating the topology's contribution: star loses
   every relayed pair during a hub outage, flooding merely loses the
   pairs that involve the hub itself.

All evaluations share one :class:`repro.faults.resilience.EnsembleOracle`
(one worker pool, one metrics registry, per-fault-scenario persistent
caches), so the whole experiment is deterministic at any ``--jobs`` and
replays from a warm cache with zero new simulations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.explorer import (
    ExplorationResult,
    HumanIntranetExplorer,
    RobustExplorationResult,
    _pdr_min_label,
)
from repro.experiments.scenario import get_preset, make_problem
from repro.faults.model import FaultScenario, hub_stress_ensemble
from repro.faults.resilience import EnsembleOracle, ResilienceRecord
from repro.library.mac_options import RoutingKind
from repro.obs.runtime import Instrumentation

#: E4 defaults: a 20% hub outage separates the topologies (star loses all
#: relayed traffic while it lasts; flooding only the hub's own pairs)
#: without making every design infeasible, and quantile 0 (the ensemble
#: minimum) is the strictest chance constraint.
DEFAULT_OUTAGE_FRACTION = 0.2
DEFAULT_ENSEMBLE_SIZE = 2
DEFAULT_QUANTILE = 0.0


@dataclass
class RobustnessData:
    """Everything E4 measured, ready for formatting or JSON archival."""

    preset: str
    pdr_min: float
    quantile: float
    ensemble: Tuple[FaultScenario, ...]
    nominal: ExplorationResult
    robust: RobustExplorationResult
    #: The nominal winner re-evaluated under the fault ensemble (None when
    #: the nominal problem is infeasible).
    nominal_resilience: Optional[ResilienceRecord] = None
    #: Robust exploration restricted to one routing kind each.
    per_routing: Dict[RoutingKind, RobustExplorationResult] = field(
        default_factory=dict
    )
    oracle_stats: Optional[dict] = None
    wall_seconds: float = 0.0

    @property
    def divergent(self) -> bool:
        """Did the chance constraint change the optimal design?"""
        return (
            self.nominal.best is not None
            and self.robust.best is not None
            and self.nominal.best.config.key() != self.robust.best.config.key()
        )


def run_robustness_comparison(
    preset: str = "ci",
    seed: int = 0,
    pdr_min: float = 0.85,
    quantile: float = DEFAULT_QUANTILE,
    outage_fraction: float = DEFAULT_OUTAGE_FRACTION,
    ensemble_size: int = DEFAULT_ENSEMBLE_SIZE,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
    obs: Optional[Instrumentation] = None,
) -> RobustnessData:
    """E4: nominal vs. robust design under coordinator-hostile faults."""
    p = get_preset(preset)
    problem = make_problem(
        pdr_min, preset, seed=seed, n_jobs=n_jobs, cache_dir=cache_dir,
        batch_mode=batch_mode,
    )
    scenario = problem.scenario
    ensemble = hub_stress_ensemble(
        scenario.tsim_s,
        coordinator=scenario.coordinator_location,
        outage_fraction=outage_fraction,
        size=ensemble_size,
    )
    oracle = EnsembleOracle(
        scenario,
        ensemble,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        obs=obs,
    )
    start = time.perf_counter()

    # Nominal Algorithm 1 shares the ensemble's healthy sub-oracle, so its
    # evaluations are reused by every robust pass below.
    nominal = HumanIntranetExplorer(
        problem, oracle=oracle.healthy_oracle, candidate_cap=p.candidate_cap
    ).explore()
    robust = HumanIntranetExplorer(
        problem, candidate_cap=p.candidate_cap, obs=oracle.obs
    ).explore_robust(oracle, quantile=quantile)

    nominal_resilience = None
    if nominal.best is not None:
        nominal_resilience = oracle.evaluate(nominal.best.config)

    per_routing: Dict[RoutingKind, RobustExplorationResult] = {}
    for routing in (RoutingKind.STAR, RoutingKind.MESH):
        restricted = replace(
            problem, space=replace(problem.space, routing_kinds=(routing,))
        )
        per_routing[routing] = HumanIntranetExplorer(
            restricted, candidate_cap=p.candidate_cap, obs=oracle.obs
        ).explore_robust(oracle, quantile=quantile)

    data = RobustnessData(
        preset=preset,
        pdr_min=pdr_min,
        quantile=quantile,
        ensemble=ensemble,
        nominal=nominal,
        robust=robust,
        nominal_resilience=nominal_resilience,
        per_routing=per_routing,
        oracle_stats=oracle.stats(),
        wall_seconds=time.perf_counter() - start,
    )
    oracle.close()
    return data


def resilience_line(record: ResilienceRecord, quantile: float) -> str:
    recovery = record.worst_recovery_s
    recovery_text = f"{recovery:.1f}s" if recovery is not None else "n/a"
    return (
        f"under faults: q-PDR={100 * record.pdr_quantile(quantile):.1f}%  "
        f"min={100 * record.pdr_min_fault:.1f}%  "
        f"mean={100 * record.pdr_mean_fault:.1f}%  "
        f"recovery={recovery_text}  "
        f"NLT loss={100 * record.lifetime_degradation:.1f}%"
    )


def format_robustness(data: RobustnessData) -> str:
    lines = [
        f"E4 (preset={data.preset}): nominal vs. chance-constrained robust "
        f"design, {_pdr_min_label(data.pdr_min)}, q={data.quantile:.2f}",
        "fault ensemble: " + "; ".join(fs.describe() for fs in data.ensemble),
        "nominal : " + data.nominal.summary(),
    ]
    if data.nominal_resilience is not None:
        lines.append(
            "          " + resilience_line(data.nominal_resilience, data.quantile)
        )
    lines.append("robust  : " + data.robust.summary())
    if data.robust.best is not None:
        lines.append(
            "          " + resilience_line(data.robust.best, data.quantile)
        )
    for routing, result in data.per_routing.items():
        lines.append(f"{routing.value:>8}-only robust: " + result.summary())
    lines.append(
        "Divergence: the chance constraint "
        + (
            "changed the optimal design (robust != nominal)."
            if data.divergent
            else "did not change the optimal design here."
        )
    )
    lines.append(
        "Reading: a healthy-network optimum may ride the star topology's "
        "single point of failure; pricing hub outages into the accept test "
        "buys back worst-case reliability with watts (flooding) or with "
        "margin (higher TX / more relays)."
    )
    return "\n".join(lines)
