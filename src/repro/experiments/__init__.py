"""Experiment harnesses: one module per paper table/figure/claim.

Every experiment accepts a ``preset`` (``"paper"``, ``"ci"``, or
``"smoke"``) controlling the simulation horizon and sweep size — see
:mod:`repro.experiments.scenario`.  The benches under ``benchmarks/`` run
the ``ci`` preset and assert the paper's qualitative shape; the ``paper``
preset reproduces the full protocol (T_sim = 600 s × 3 runs).

Index (mirrors DESIGN.md):

* T1 — :mod:`repro.experiments.table1` (CC2650 specifications table);
* F3 — :mod:`repro.experiments.figure3` (PDR vs. NLT frontier and the
  per-PDR_min optima);
* R1 — :mod:`repro.experiments.reduction` (simulation-count reduction vs.
  exhaustive search);
* R2 — :mod:`repro.experiments.annealing_cmp` (speedup vs. simulated
  annealing);
* A1–A3 — :mod:`repro.experiments.ablations`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.presets": ("Preset", "PRESETS"),
    "repro.experiments.scenario": (
        "make_scenario", "make_problem", "make_space",
    ),
    "repro.experiments.table1": ("table1_rows", "format_table1"),
    "repro.experiments.figure3": (
        "Figure3Data", "run_figure3", "format_figure3",
    ),
    "repro.experiments.reduction": (
        "ReductionData", "run_reduction", "format_reduction",
    ),
    "repro.experiments.annealing_cmp": (
        "AnnealingComparisonData",
        "run_annealing_comparison",
        "format_annealing_comparison",
    ),
    "repro.experiments.ablations": (
        "run_milp_only_ablation",
        "run_alpha_ablation",
        "run_candidate_cap_ablation",
    ),
    "repro.experiments.extensions": (
        "run_routing_comparison",
        "format_routing_comparison",
        "run_posture_sensitivity",
        "format_posture_sensitivity",
        "run_dual_staircase",
        "format_dual_staircase",
    ),
})
