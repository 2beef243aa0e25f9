"""F3 — Figure 3: PDR vs. NLT of MILP-suggested configurations, with the
optimal configuration highlighted for each PDR_min.

The paper's figure plots every feasible configuration *suggested by the
MILP solver* during the optimization runs (not the whole 12,288-point
grid), with arrows marking the optimum for several PDR_min values.  This
experiment reproduces that construction directly: it runs Algorithm 1 once
per PDR_min in the preset's sweep, sharing one simulation oracle so the
scatter accumulates exactly the candidate evaluations the runs performed.

The paper's qualitative findings asserted by the benchmark:

* feasible configurations span the PDR range and NLT from days to a month;
* low PDR_min (≤ ~60%) → minimum-size star at reduced TX power;
* mid PDR_min → star at 0 dBm (higher TX power buys reliability);
* high PDR_min (≥ ~90%) → routing switches from star to mesh;
* the strictest bound → an extra (fifth) node joins the mesh, at the cost
  of a lifetime collapse to a few days.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.evaluator import EvaluationRecord, SimulationOracle
from repro.core.explorer import ExplorationResult, HumanIntranetExplorer
from repro.experiments.scenario import get_preset, make_problem, make_scenario
from repro.library.mac_options import RoutingKind


@dataclass
class Figure3Data:
    """Everything needed to redraw Figure 3."""

    preset: str
    #: scatter: every distinct configuration simulated across all runs.
    scatter: List[EvaluationRecord] = field(default_factory=list)
    #: optimum per PDR_min (None where infeasible).
    optima: Dict[float, Optional[EvaluationRecord]] = field(default_factory=dict)
    results: Dict[float, ExplorationResult] = field(default_factory=dict)
    total_simulations: int = 0
    wall_seconds: float = 0.0
    #: Shared-oracle telemetry (cache hit rate across the sweep, wall-time
    #: percentiles, parallel speedup estimate).
    oracle_stats: Dict[str, float] = field(default_factory=dict)
    oracle_stats_line: str = ""

    def scatter_series(self) -> List[Tuple[float, float, str]]:
        """(NLT days, PDR %, label) triples, the figure's point cloud."""
        return [
            (e.nlt_days, e.pdr_percent, e.config.label()) for e in self.scatter
        ]

    def optimum_routing(self, pdr_min: float) -> Optional[RoutingKind]:
        best = self.optima.get(pdr_min)
        return best.config.routing if best else None

    def render_ascii(self, pdr_min_percent: Optional[float] = None) -> str:
        """The scatter as a terminal plot in the paper's Figure 3 layout."""
        from repro.analysis.ascii_plot import render_figure3

        return render_figure3(
            (
                (e.nlt_days, e.pdr_percent, e.config.routing.value,
                 e.config.tx_dbm)
                for e in self.scatter
            ),
            pdr_min_percent=pdr_min_percent,
        )

    def pareto(self):
        """Non-dominated (NLT, PDR) points among the scatter."""
        from repro.analysis.pareto import pareto_front

        return pareto_front(self.scatter)


def run_figure3(
    preset: str = "ci",
    seed: int = 0,
    pdr_mins: Optional[Tuple[float, ...]] = None,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> Figure3Data:
    """Run the Figure 3 experiment under a preset.

    ``n_jobs`` parallelizes the shared oracle's candidate batches;
    ``cache_dir`` persists results, making a rerun of the sweep near-free.
    """
    p = get_preset(preset)
    sweep = pdr_mins if pdr_mins is not None else p.pdr_min_sweep
    scenario = make_scenario(preset, seed=seed, n_jobs=n_jobs,
                             cache_dir=cache_dir, batch_mode=batch_mode)
    oracle = SimulationOracle(scenario)
    data = Figure3Data(preset=preset)
    start = time.perf_counter()

    for pdr_min in sweep:
        problem = make_problem(pdr_min, preset, seed=seed, n_jobs=n_jobs,
                               cache_dir=cache_dir, batch_mode=batch_mode)
        explorer = HumanIntranetExplorer(
            problem, oracle=oracle, candidate_cap=p.candidate_cap
        )
        result = explorer.explore()
        data.results[pdr_min] = result
        data.optima[pdr_min] = result.best

    data.scatter = oracle.all_records
    data.total_simulations = oracle.simulations_run
    data.wall_seconds = time.perf_counter() - start
    data.oracle_stats = oracle.stats()
    data.oracle_stats_line = oracle.format_stats()
    oracle.close()
    return data


def format_figure3(data: Figure3Data) -> str:
    """Text rendering: the scatter (sorted by NLT) and the optima rows the
    paper annotates with arrows."""
    lines = [
        f"Figure 3 (preset={data.preset}): PDR vs NLT of MILP-suggested "
        f"configurations ({len(data.scatter)} points, "
        f"{data.total_simulations} simulations)",
        f"{'NLT (days)':>10}  {'PDR (%)':>8}  configuration",
    ]
    for nlt, pdr, label in sorted(data.scatter_series()):
        lines.append(f"{nlt:>10.1f}  {pdr:>8.1f}  {label}")
    lines.append("")
    lines.append(data.render_ascii(pdr_min_percent=50.0))
    lines.append("")
    lines.append("Optima per PDRmin (the paper's arrows):")
    for pdr_min in sorted(data.optima):
        best = data.optima[pdr_min]
        if best is None:
            lines.append(f"  PDRmin={100 * pdr_min:5.1f}%  -> infeasible")
        else:
            lines.append(
                f"  PDRmin={100 * pdr_min:5.1f}%  -> {best.config.label()}  "
                f"PDR={best.pdr_percent:5.1f}%  NLT={best.nlt_days:5.1f} d"
            )
    lines.append("")
    from repro.analysis.pareto import front_summary

    lines.append(front_summary(data.pareto()))
    if data.oracle_stats_line:
        lines.append(data.oracle_stats_line)
    return "\n".join(lines)
