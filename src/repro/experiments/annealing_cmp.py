"""R2 — the paper's "3× faster than simulated annealing" comparison.

Both optimizers pay per distinct configuration simulated (the dominant
cost on both sides; the paper's wall-clock figures are likewise dominated
by Castalia runs).  The accounting compares *complete runs*, as the paper
does:

* Algorithm 1's cost is the simulations it needs to terminate with a
  certified optimum;
* simulated annealing's cost is its full schedule — SA has no optimality
  certificate, so it cannot stop early even when it happens to pass
  through the optimum; its answer only exists when the schedule ends.

Each row also reports whether SA's final answer *matched* Algorithm 1's
solution quality (feasible with power within tolerance) and, for analysis,
the first-hit time had SA been able to stop at the optimum
(``sa_first_hit_simulations``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.baselines.annealing import AnnealingSchedule, SimulatedAnnealing
from repro.core.evaluator import SimulationOracle
from repro.core.explorer import HumanIntranetExplorer
from repro.experiments.scenario import get_preset, make_problem


@dataclass
class ComparisonRow:
    pdr_min: float
    alg1_simulations: int
    alg1_power_mw: Optional[float]
    sa_simulations: int
    sa_matched_quality: bool
    sa_first_hit_simulations: Optional[int]

    @property
    def speedup(self) -> float:
        if self.alg1_simulations == 0:
            raise ValueError("Algorithm 1 ran no simulations")
        return self.sa_simulations / self.alg1_simulations


@dataclass
class AnnealingComparisonData:
    preset: str
    sa_steps: int = 0
    rows: Dict[float, ComparisonRow] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def mean_speedup(self) -> float:
        if not self.rows:
            raise ValueError("no comparison rows")
        return sum(r.speedup for r in self.rows.values()) / len(self.rows)


def run_annealing_comparison(
    preset: str = "ci",
    seed: int = 0,
    pdr_mins: Optional[Tuple[float, ...]] = None,
    sa_steps: int = 150,
    power_tolerance_mw: float = 1e-6,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> AnnealingComparisonData:
    """Run the head-to-head comparison for each PDR_min.

    Both sides keep separate oracles (separate simulation accounting), but
    both inherit the same ``n_jobs``/``cache_dir`` execution knobs.  The
    paper's cost figures assume a cold cache: with a warm ``cache_dir``
    both optimizers answer repeats from disk and the *distinct simulation*
    counts shrink accordingly.
    """
    p = get_preset(preset)
    sweep = pdr_mins if pdr_mins is not None else p.pdr_min_sweep
    data = AnnealingComparisonData(preset=preset, sa_steps=sa_steps)
    start = time.perf_counter()

    for pdr_min in sweep:
        problem = make_problem(pdr_min, preset, seed=seed, n_jobs=n_jobs,
                               cache_dir=cache_dir, batch_mode=batch_mode)

        alg1_oracle = SimulationOracle(problem.scenario)
        explorer = HumanIntranetExplorer(
            problem, oracle=alg1_oracle, candidate_cap=p.candidate_cap
        )
        alg1 = explorer.explore()

        sa_oracle = SimulationOracle(problem.scenario)
        annealer = SimulatedAnnealing(
            problem,
            oracle=sa_oracle,
            schedule=AnnealingSchedule(steps=sa_steps),
            seed=seed,
        )
        sa = annealer.run()

        if alg1.best is not None:
            target = alg1.best.power_mw + power_tolerance_mw
            first_hit = sa.simulations_to_reach(target)
            matched = sa.best is not None and sa.best.power_mw <= target
        else:
            first_hit = None
            matched = sa.best is None  # both agree it is infeasible
        data.rows[pdr_min] = ComparisonRow(
            pdr_min=pdr_min,
            alg1_simulations=alg1.simulations_run,
            alg1_power_mw=alg1.best.power_mw if alg1.best else None,
            sa_simulations=sa.simulations_run,
            sa_matched_quality=matched,
            sa_first_hit_simulations=first_hit,
        )
        alg1_oracle.close()
        sa_oracle.close()

    data.wall_seconds = time.perf_counter() - start
    return data


def format_annealing_comparison(data: AnnealingComparisonData) -> str:
    lines = [
        f"R2 (preset={data.preset}): Algorithm 1 vs simulated annealing "
        f"({data.sa_steps}-step schedule; complete-run cost in distinct "
        "simulations)",
        f"{'PDRmin':>8}  {'Alg. 1':>8}  {'SA':>8}  {'speedup':>8}  "
        f"{'SA matched?':>12}  {'SA first hit':>13}",
    ]
    for pdr_min in sorted(data.rows):
        row = data.rows[pdr_min]
        first_hit = (
            str(row.sa_first_hit_simulations)
            if row.sa_first_hit_simulations is not None
            else "never"
        )
        lines.append(
            f"{100 * pdr_min:>7.1f}%  {row.alg1_simulations:>8d}  "
            f"{row.sa_simulations:>8d}  {row.speedup:>7.2f}x  "
            f"{str(row.sa_matched_quality):>12}  {first_hit:>13}"
        )
    lines.append(f"mean speedup: {data.mean_speedup:.2f}x  (paper: ~3x)")
    return "\n".join(lines)
