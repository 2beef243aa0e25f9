"""repro — reproduction of "Optimized Design of a Human Intranet Network"
(Moin, Nuzzo, Sangiovanni-Vincentelli, Rabaey — DAC 2017).

The package implements the paper's design-space-exploration methodology for
wireless body area networks end to end, including every substrate the
original system relied on:

* :mod:`repro.milp` — a from-scratch MILP solver (the paper used CPLEX);
* :mod:`repro.des` — a discrete-event simulation kernel (Castalia's role);
* :mod:`repro.channel` — synthetic on-body channel models (the NICTA
  measurement dataset's role);
* :mod:`repro.library` — the component library (Table 1 radios,
  batteries, body locations, protocol options);
* :mod:`repro.net` — the WBAN protocol stack (radio / CSMA / TDMA / star /
  controlled flooding / application);
* :mod:`repro.core` — the contribution: Algorithm 1 coordinating MILP
  candidate generation with simulation-based feasibility checking;
* :mod:`repro.baselines` — exhaustive search and simulated annealing;
* :mod:`repro.experiments` — reproduction harnesses for every table,
  figure, and headline claim.

Quickstart::

    from repro import HumanIntranetExplorer, make_problem

    problem = make_problem(pdr_min=0.9, preset="ci")
    result = HumanIntranetExplorer(problem, candidate_cap=16).explore()
    print(result.summary())

Every package exports its names lazily (:mod:`repro._lazy`): a process
imports the simulator only when it simulates.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.design_space": ("Configuration", "DesignSpace"),
    "repro.core.problem": ("DesignProblem", "ScenarioParameters"),
    "repro.core.explorer": ("HumanIntranetExplorer", "ExplorationResult"),
    "repro.core.evaluator": ("SimulationOracle",),
    "repro.net.network": (
        "Network", "SimulationOutcome", "simulate_configuration",
    ),
    "repro.experiments.scenario": ("make_problem", "make_scenario"),
})
__all__.append("__version__")
