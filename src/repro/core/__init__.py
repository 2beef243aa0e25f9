"""The paper's primary contribution: MILP + DES design-space exploration.

Modules:

* :mod:`repro.core.power_model` — the coarse analytical power/lifetime
  model (Eqs. 3, 4, 5, 9) and the α correction factor;
* :mod:`repro.core.design_space` — the configuration vector
  (ν, χ) and enumeration of the paper's 12,288-point space;
* :mod:`repro.core.problem` — the optimal mapping problem P (Eq. 8):
  scenario parameters, topological and configuration constraints, PDR
  bound;
* :mod:`repro.core.milp_builder` — the relaxed MILP P̃ used by RunMILP;
* :mod:`repro.core.evaluator` — the simulation oracle (RunSim) with
  caching and replicate averaging;
* :mod:`repro.core.explorer` — Algorithm 1 itself.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.journal": ("JournalError", "RunJournal"),
    "repro.core.design_space": ("Configuration", "DesignSpace"),
    "repro.core.power_model": ("CoarsePowerModel",),
    "repro.core.problem": ("DesignProblem", "ScenarioParameters"),
    "repro.core.milp_builder": ("MilpFormulation",),
    "repro.core.evaluator": ("SimulationOracle", "EvaluationRecord"),
    "repro.core.explorer": (
        "HumanIntranetExplorer", "ExplorationResult", "IterationRecord",
    ),
})
