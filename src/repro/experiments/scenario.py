"""Experiment scenarios under the paper's protocol and scaled-down CI
variants (the preset table itself is :mod:`repro.experiments.presets`).

The paper's evaluation protocol (Sec. 4) simulates each candidate for
T_sim = 600 s and averages over 3 runs, which yields sub-0.5% estimator
error but takes minutes per configuration in a pure-Python simulator.  The
``ci`` preset shortens the horizon (larger estimator noise, same expected
values) so the full benchmark suite completes in CI time; ``smoke`` is for
unit tests that only need the plumbing exercised.

All presets share the identical scenario *physics* (radio, traffic,
channel, constraints) — only the measurement protocol and candidate-pool
size differ.
"""

from __future__ import annotations

from typing import Optional

from repro.core.design_space import DesignSpace, PlacementConstraints
from repro.core.problem import DesignProblem, ScenarioParameters
# Re-exported: the scenario builders and their presets are read together.
from repro.experiments.presets import PRESETS, Preset, get_preset  # noqa: F401


def make_scenario(
    preset: str = "ci",
    seed: int = 0,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> ScenarioParameters:
    """The Sec. 4.1 scenario under the given measurement preset.

    ``n_jobs``, ``cache_dir``, and ``batch_mode`` are execution knobs
    threaded through to the simulation oracle (parallel fan-out,
    persistent result cache, batched-lane kernel dispatch); they do not
    change any simulated result.
    """
    p = get_preset(preset)
    return ScenarioParameters(
        tsim_s=p.tsim_s,
        replicates=p.replicates,
        seed=seed,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        batch_mode=batch_mode,
    )


def make_space(preset: str = "ci") -> DesignSpace:
    """The design example's 12,288-point space (identical across presets;
    kept as a function so tests can build reduced spaces the same way)."""
    del preset  # physics identical across presets by design
    return DesignSpace()


def make_reduced_space(max_nodes: int = 4) -> DesignSpace:
    """A deliberately small space for exhaustive ground-truth tests."""
    return DesignSpace(
        constraints=PlacementConstraints(max_nodes=max_nodes),
    )


def make_problem(
    pdr_min: float,
    preset: str = "ci",
    seed: int = 0,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
) -> DesignProblem:
    """Assemble the full mapping problem P for one PDR bound."""
    return DesignProblem(
        pdr_min=pdr_min,
        scenario=make_scenario(
            preset, seed=seed, n_jobs=n_jobs, cache_dir=cache_dir,
            batch_mode=batch_mode,
        ),
        space=make_space(preset),
    )
