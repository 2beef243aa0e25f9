"""R1 — the paper's "87% reduction in required simulations vs. exhaustive
search" claim.

Algorithm 1's cost is the number of distinct configurations it simulates;
exhaustive search must simulate every constraint-satisfying configuration
(1,320 for the design example's space).  The reduction is measured per
PDR_min and averaged, exactly as the paper reports ("each optimization run
... resulting into an 87% reduction").

Exhaustive search's *count* is known without running it (one simulation
per feasible grid point), so this experiment is cheap: only Algorithm 1's
simulations are actually executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.evaluator import SimulationOracle
from repro.core.explorer import HumanIntranetExplorer
from repro.experiments.scenario import get_preset, make_problem, make_scenario


@dataclass
class ReductionData:
    preset: str
    exhaustive_simulations: int
    #: per PDR_min: simulations Algorithm 1 needed.
    algorithm_simulations: Dict[float, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def reduction_percent(self, pdr_min: float) -> float:
        used = self.algorithm_simulations[pdr_min]
        return 100.0 * (1.0 - used / self.exhaustive_simulations)

    @property
    def mean_reduction_percent(self) -> float:
        if not self.algorithm_simulations:
            raise ValueError("no runs recorded")
        return sum(
            self.reduction_percent(p) for p in self.algorithm_simulations
        ) / len(self.algorithm_simulations)


def run_reduction(
    preset: str = "ci",
    seed: int = 0,
    pdr_mins: Optional[Tuple[float, ...]] = None,
    share_oracle: bool = False,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> ReductionData:
    """Measure Algorithm 1's simulation count against the exhaustive count.

    ``share_oracle=False`` (default) gives each PDR_min run a fresh cache,
    charging it the full cost of its own exploration — the fair per-run
    accounting behind the paper's figure.  ``share_oracle=True`` shows the
    additional amortization available when sweeping many bounds at once.
    """
    p = get_preset(preset)
    sweep = pdr_mins if pdr_mins is not None else p.pdr_min_sweep
    start = time.perf_counter()

    exhaustive_count = make_problem(sweep[0], preset, seed=seed).space.feasible_count()
    data = ReductionData(preset=preset, exhaustive_simulations=exhaustive_count)

    shared = (
        SimulationOracle(
            make_scenario(preset, seed=seed, n_jobs=n_jobs,
                          cache_dir=cache_dir, batch_mode=batch_mode)
        )
        if share_oracle
        else None
    )
    for pdr_min in sweep:
        problem = make_problem(pdr_min, preset, seed=seed, n_jobs=n_jobs,
                               cache_dir=cache_dir, batch_mode=batch_mode)
        oracle = shared if shared is not None else SimulationOracle(problem.scenario)
        explorer = HumanIntranetExplorer(
            problem, oracle=oracle, candidate_cap=p.candidate_cap
        )
        before = oracle.simulations_run
        explorer.explore()
        data.algorithm_simulations[pdr_min] = oracle.simulations_run - before
        if shared is None:
            oracle.close()

    if shared is not None:
        shared.close()
    data.wall_seconds = time.perf_counter() - start
    return data


def format_reduction(data: ReductionData) -> str:
    lines = [
        f"R1 (preset={data.preset}): simulations, Algorithm 1 vs exhaustive "
        f"({data.exhaustive_simulations} feasible configurations)",
        f"{'PDRmin':>8}  {'Alg. 1 sims':>12}  {'reduction':>10}",
    ]
    for pdr_min in sorted(data.algorithm_simulations):
        lines.append(
            f"{100 * pdr_min:>7.1f}%  "
            f"{data.algorithm_simulations[pdr_min]:>12d}  "
            f"{data.reduction_percent(pdr_min):>9.1f}%"
        )
    lines.append(
        f"mean reduction: {data.mean_reduction_percent:.1f}%  "
        f"(paper: 87%)"
    )
    return "\n".join(lines)
