"""E1–E3 — extension experiments beyond the paper's evaluation.

* **E1, routing schemes** (:func:`run_routing_comparison`): star vs.
  controlled flooding vs. point-to-point forwarding on the same placement
  and TX level.  Makes the paper's Sec. 2.1.2 design argument quantitative:
  flooding buys reliability with energy; P2P is cheap but fragile on the
  dynamic body channel.
* **E2, posture sensitivity** (:func:`run_posture_sensitivity`): how much
  reliability the daily-activity posture mixture costs each routing
  scheme — the channel effect the NICTA measurement campaign embeds and
  the synthetic default omits.
* **E3, the dual problem** (:func:`run_dual_staircase`): maximize PDR
  under a lifetime bound, the reliability-first formulation the paper's
  introduction motivates with the insulin-pump example.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.channel.posture import PostureParameters
from repro.core.design_space import Configuration
from repro.core.evaluator import SimulationOracle
from repro.core.explorer import DualExplorationResult, HumanIntranetExplorer
from repro.experiments.scenario import get_preset, make_problem, make_scenario
from repro.library.mac_options import MacKind, RoutingKind
from repro.net.network import simulate_configuration

#: The running example placement of Sec. 4 and the full TX level.
REFERENCE_PLACEMENT: Tuple[int, ...] = (0, 1, 3, 6)
REFERENCE_TX_DBM: float = 0.0


@dataclass
class RoutingComparisonRow:
    routing: RoutingKind
    pdr: float
    power_mw: float
    nlt_days: float
    transmissions: int


@dataclass
class RoutingComparisonData:
    preset: str
    rows: Dict[RoutingKind, RoutingComparisonRow] = field(default_factory=dict)
    wall_seconds: float = 0.0


def run_routing_comparison(
    preset: str = "ci", seed: int = 0,
    placement: Tuple[int, ...] = REFERENCE_PLACEMENT,
    tx_dbm: float = REFERENCE_TX_DBM,
) -> RoutingComparisonData:
    """E1: all three routing schemes on identical placement/PHY/MAC."""
    scenario = make_scenario(preset, seed=seed)
    data = RoutingComparisonData(preset=preset)
    start = time.perf_counter()
    for routing in (RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P):
        outcome = simulate_configuration(
            placement=placement,
            radio_spec=scenario.radio,
            tx_mode=scenario.tx_mode(tx_dbm),
            mac_options=scenario.mac_options(MacKind.TDMA),
            routing_options=scenario.routing_options(routing),
            app_params=scenario.app,
            tsim_s=scenario.tsim_s,
            replicates=scenario.replicates,
            seed=seed,
            battery=scenario.battery,
        )
        data.rows[routing] = RoutingComparisonRow(
            routing=routing,
            pdr=outcome.pdr,
            power_mw=outcome.worst_power_mw,
            nlt_days=outcome.nlt_days,
            transmissions=outcome.totals["transmissions"],
        )
    data.wall_seconds = time.perf_counter() - start
    return data


def format_routing_comparison(data: RoutingComparisonData) -> str:
    lines = [
        f"E1 (preset={data.preset}): routing schemes on "
        f"{Configuration(REFERENCE_PLACEMENT, REFERENCE_TX_DBM, MacKind.TDMA, RoutingKind.STAR).label().split(' ')[0]} "
        f"at {REFERENCE_TX_DBM:+.0f} dBm, TDMA",
        f"{'routing':>8}  {'PDR':>8}  {'P (mW)':>8}  {'NLT (d)':>8}  {'tx count':>9}",
    ]
    for routing in (RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P):
        row = data.rows[routing]
        lines.append(
            f"{routing.value:>8}  {100 * row.pdr:>7.2f}%  {row.power_mw:>8.3f}  "
            f"{row.nlt_days:>8.1f}  {row.transmissions:>9d}"
        )
    lines.append(
        "Reading: flooding trades energy for redundancy; point-to-point "
        "forwarding is the cheapest and the least reliable (Sec. 2.1.2's "
        "argument, quantified)."
    )
    return "\n".join(lines)


@dataclass
class PostureSensitivityData:
    preset: str
    #: routing -> (pdr without posture, pdr with posture)
    rows: Dict[RoutingKind, Tuple[float, float]] = field(default_factory=dict)
    wall_seconds: float = 0.0


def run_posture_sensitivity(
    preset: str = "ci", seed: int = 0,
    placement: Tuple[int, ...] = REFERENCE_PLACEMENT,
    tx_dbm: float = REFERENCE_TX_DBM,
) -> PostureSensitivityData:
    """E2: PDR with and without daily-activity posture modulation."""
    scenario = make_scenario(preset, seed=seed)
    data = PostureSensitivityData(preset=preset)
    start = time.perf_counter()
    for routing in (RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P):
        kwargs = dict(
            placement=placement,
            radio_spec=scenario.radio,
            tx_mode=scenario.tx_mode(tx_dbm),
            mac_options=scenario.mac_options(MacKind.TDMA),
            routing_options=scenario.routing_options(routing),
            app_params=scenario.app,
            tsim_s=scenario.tsim_s,
            replicates=scenario.replicates,
            seed=seed,
            battery=scenario.battery,
        )
        plain = simulate_configuration(**kwargs)
        # Scale the posture dwell to the horizon so even short CI runs see
        # several regime changes (the default 2-minute dwell would leave a
        # 30 s run inside its initial posture).
        dwell = max(5.0, scenario.tsim_s / 6.0)
        postured = simulate_configuration(
            posture_params=PostureParameters(mean_dwell_s=dwell), **kwargs
        )
        data.rows[routing] = (plain.pdr, postured.pdr)
    data.wall_seconds = time.perf_counter() - start
    return data


def format_posture_sensitivity(data: PostureSensitivityData) -> str:
    lines = [
        f"E2 (preset={data.preset}): daily-activity posture cost per "
        "routing scheme",
        f"{'routing':>8}  {'PDR (static)':>13}  {'PDR (activity)':>15}  {'cost':>7}",
    ]
    for routing, (plain, postured) in data.rows.items():
        lines.append(
            f"{routing.value:>8}  {100 * plain:>12.2f}%  "
            f"{100 * postured:>14.2f}%  {100 * (plain - postured):>6.2f}%"
        )
    return "\n".join(lines)


@dataclass
class DualStaircaseData:
    preset: str
    results: Dict[float, DualExplorationResult] = field(default_factory=dict)
    wall_seconds: float = 0.0


def run_dual_staircase(
    preset: str = "ci",
    seed: int = 0,
    lifetime_bounds_days: Tuple[float, ...] = (30.0, 15.0, 5.0),
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> DualStaircaseData:
    """E3: the reliability-maximizing dual across lifetime budgets."""
    p = get_preset(preset)
    problem = make_problem(0.5, preset, seed=seed, n_jobs=n_jobs,
                           cache_dir=cache_dir,
                           batch_mode=batch_mode)  # pdr_min unused by dual
    oracle = SimulationOracle(problem.scenario)
    explorer = HumanIntranetExplorer(
        problem, oracle=oracle, candidate_cap=p.candidate_cap
    )
    data = DualStaircaseData(preset=preset)
    start = time.perf_counter()
    for bound in lifetime_bounds_days:
        data.results[bound] = explorer.explore_max_reliability(bound)
    data.wall_seconds = time.perf_counter() - start
    oracle.close()
    return data


def format_dual_staircase(data: DualStaircaseData) -> str:
    lines = [
        f"E3 (preset={data.preset}): max-reliability dual "
        "(maximize PDR s.t. NLT >= bound)",
    ]
    for bound in sorted(data.results, reverse=True):
        lines.append("  " + data.results[bound].summary())
    lines.append(
        "Reading: relaxing the lifetime requirement buys reliability — the "
        "same frontier as Figure 3, approached from the other axis."
    )
    return "\n".join(lines)
