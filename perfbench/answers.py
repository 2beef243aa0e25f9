"""The Algorithm 1 answers the workloads time, and the checks that gate them.

Every workload answers design problems on the ``smoke`` preset at
``jobs=1``, with no disk cache and no journal unless the workload is about
storage.  The answer for one problem is built exactly the way
``hi-explore solve`` / ``hi-explore robust`` build it, so the timings are
the CLI's, minus argument parsing and printing.

Inputs are scenario seeds drawn from fixed strata (:data:`STRATA`): seeds
that do identical Algorithm 1 work -- the same MILP solve and simulation
counts at every bound a workload asks for.  The benchmark seed draws a
workload's scenario seeds from them, so every seed shifts every input
(channel realizations, fault worlds, the campaign population) while each
run does the same amount of work, and run-to-run spread measures the
machine instead of the inputs.  ``catalogue.json`` (built by
``catalogue.py``) holds the expected answers of the correctness gate.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

import benchenv

PRESET = "smoke"
#: PDR bounds of the ``solve`` grid (every scenario seed at each bound).
SOLVE_PDRS = (0.80, 0.90, 0.95, 0.99)
#: The ``robust`` accept test: q-PDR over the fault ensemble >= 0.85.
ROBUST_PDR = 0.85
ROBUST_QUANTILE = 0.0
#: Mixed-fault ensemble size (link blackouts plus, round-robin, hub
#: outages, node deaths and battery drains).
ENSEMBLE_SIZE = 6
#: A robust scenario seed's fault-ensemble seed; fixed per scenario seed
#: so the catalogue can record its answer.
FAULT_SEED_OFFSET = 100_000
#: The two PDR cohorts of the ``campaign`` population.
CAMPAIGN_PDRS = (0.90, 0.95)

#: Scenario seeds the workloads draw from, by stratum.  They were chosen
#: once from the work counts ``catalogue.json`` records for seeds 0-59
#: (``robust``: 0-29) and are frozen here: rebuilding the catalogue after
#: a program change refreshes the expected answers, never the inputs.
STRATA = {
    # 24 of 60 seeds: (MILP solves, simulations) = (3, 16), (3, 16),
    # (4, 24), (4, 24) at PDRmin 0.80, 0.90, 0.95, 0.99 -- the commonest
    # signature; the campaign population's seeds.
    "common": (3, 4, 7, 11, 12, 14, 20, 21, 22, 23, 27, 28, 32, 33, 34, 36,
              39, 40, 46, 47, 48, 49, 54, 55),
    # 6 of 60 seeds: (3, 16), (4, 24), (4, 24), (7, 48) -- a 7-solve MILP
    # walk at PDRmin 0.99.  18 of 60 seeds walk 7 to 12 MILP levels at
    # some bound; this is the largest group of them with one signature.
    # The other 18 seeds stop within 4 solves at every bound, in
    # proportions unlike the commonest signature.
    "deep": (6, 15, 19, 25, 35, 52),  # the solve grid's seeds
    # 25 of 30 seeds: 4 MILP solves, 168 simulations, 84 of them batched;
    # the robust grid's seeds.
    "robust": (1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 16, 17, 18, 19, 20,
               21, 22, 23, 24, 25, 26, 27, 28, 29),
}

#: (stratum, scenario seeds drawn from it) of each answer grid; ``solve``
#: answers its seed at all four bounds, walking 3, 4, 4 and 7 MILP levels.
GRID = {"solve": (("deep", 1),), "robust": (("robust", 3),)}

CATALOGUE_PATH = benchenv.HERE / "catalogue.json"

#: Relative tolerance for comparing simulated PDR and power with the
#: catalogue.  The simulation is deterministic; the slack only absorbs
#: last-digit differences between numpy builds.
REL_TOL = 1e-9


# -- building and answering problems -------------------------------------------


def candidate_cap() -> Optional[int]:
    from repro.experiments.scenario import get_preset

    return get_preset(PRESET).candidate_cap


def nominal_explorer(seed: int, pdr_min: float, oracle=None):
    """A fresh explorer for one nominal problem, as ``hi-explore solve``
    builds it; pass ``oracle`` to reuse a warm one."""
    from repro.core.explorer import HumanIntranetExplorer
    from repro.experiments.scenario import make_problem

    problem = make_problem(pdr_min, PRESET, seed=seed, n_jobs=1)
    return HumanIntranetExplorer(
        problem, oracle=oracle, candidate_cap=candidate_cap()
    )


def fault_ensemble(scenario, seed: int):
    from repro.faults.model import sample_fault_ensemble

    return sample_fault_ensemble(
        ENSEMBLE_SIZE,
        seed + FAULT_SEED_OFFSET,
        scenario.tsim_s,
        coordinator=scenario.coordinator_location,
    )


def robust_explorer(seed: int, ensemble_oracle=None):
    """(explorer, ensemble oracle) for one chance-constrained problem, as
    ``hi-explore robust`` builds them; pass ``ensemble_oracle`` to reuse a
    warm one."""
    from repro.faults.resilience import EnsembleOracle

    explorer = nominal_explorer(seed, ROBUST_PDR)
    if ensemble_oracle is None:
        scenario = explorer.problem.scenario
        ensemble_oracle = EnsembleOracle(
            scenario, fault_ensemble(scenario, seed), n_jobs=1
        )
    return explorer, ensemble_oracle


def grid(workload: str, seed: int) -> List[tuple]:
    """The (scenario seed, PDRmin) problems of one answer grid."""
    seeds = [
        s for stratum, count in GRID[workload]
        for s in draw(stratum, count, workload, seed)
    ]
    if workload == "solve":
        return [(s, pdr) for s in seeds for pdr in SOLVE_PDRS]
    return [(s, ROBUST_PDR) for s in seeds]


def answer(workload: str, problem: tuple, oracle=None) -> tuple:
    """Answer one grid problem as the CLI does; returns (result, the
    oracle to reuse for a warm re-answer)."""
    seed, pdr = problem
    if workload == "solve":
        explorer = nominal_explorer(seed, pdr, oracle=oracle)
        return explorer.explore(), explorer.oracle
    explorer, oracle = robust_explorer(seed, oracle)
    result = explorer.explore_robust(oracle, quantile=ROBUST_QUANTILE)
    explorer.oracle.close()
    return result, oracle


def nominal_answer(result) -> Optional[dict]:
    """The comparable part of a nominal answer: configuration, PDR, power."""
    return result.to_dict()["best"]


def robust_answer(result) -> Optional[dict]:
    best = result.best
    if best is None:
        return None
    return {
        "config": best.config.label(),
        "healthy_pdr": best.healthy.pdr,
        "q_pdr": best.pdr_quantile(ROBUST_QUANTILE),
        "power_mw": best.healthy.power_mw,
    }


# -- correctness ---------------------------------------------------------------------


def _same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(want, dict) and isinstance(got, dict):
        return set(got) == set(want) and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want)
        )
    return got == want


def answer_errors(got: Optional[dict], want: Optional[dict]) -> List[str]:
    if want is None:
        return []
    if got is None:
        return [f"no answer, expected {want}"]
    if not _same(got, want):
        return [f"answer {got} differs from expected {want}"]
    return []


def check_nominal(result, oracle, pdr_min: float, expected=None) -> List[str]:
    """Errors in a nominal answer: it must exist, meet PDRmin, be the
    cheapest feasible record the oracle evaluated (the alpha
    certificate), and equal the catalogue's answer."""
    best = result.best
    if best is None:
        return [f"PDRmin={pdr_min}: no feasible design found"]
    errors = []
    if best.pdr < pdr_min:
        errors.append(f"PDRmin={pdr_min}: answer PDR {best.pdr} misses it")
    cheaper = [
        r.config.label()
        for r in oracle.all_records
        if r.pdr >= pdr_min and r.power_mw < best.power_mw
    ]
    if cheaper:
        errors.append(
            f"PDRmin={pdr_min}: cheaper feasible records {cheaper} beat "
            f"the answer {best.config.label()}"
        )
    return errors + answer_errors(nominal_answer(result), expected)


def check_robust(result, expected=None) -> List[str]:
    """Errors in a chance-constrained answer: it must exist, meet PDRmin
    at the ensemble quantile, be the cheapest q-feasible record any
    iteration evaluated, and equal the catalogue's answer."""
    best = result.best
    if best is None:
        return ["robust: no feasible design found"]
    errors = []
    q_pdr = best.pdr_quantile(ROBUST_QUANTILE)
    if q_pdr < ROBUST_PDR:
        errors.append(f"robust: answer q-PDR {q_pdr} misses {ROBUST_PDR}")
    power = best.healthy.power_mw
    cheaper = [
        r.config.label()
        for it in result.iterations
        for r in it.records
        if r.pdr_quantile(ROBUST_QUANTILE) >= ROBUST_PDR
        and r.healthy.power_mw < power
    ]
    if cheaper:
        errors.append(
            f"robust: cheaper q-feasible records {cheaper} beat the answer "
            f"{best.config.label()}"
        )
    return errors + answer_errors(robust_answer(result), expected)


def check_summary(summary: dict, pdr_min: float, expected=None) -> List[str]:
    """The nominal checks, applied to a campaign wearer's ``summary.json``."""
    best = summary.get("best")
    if best is None:
        return [f"PDRmin={pdr_min}: wearer found no feasible design"]
    errors = []
    if best["pdr"] < pdr_min:
        errors.append(f"PDRmin={pdr_min}: wearer answer misses the bound")
    cheaper = [
        e
        for it in summary.get("iterations", ())
        for e in it.get("evaluations", ())
        if e["pdr"] >= pdr_min and e["power_mw"] < best["power_mw"]
    ]
    if cheaper:
        errors.append(f"PDRmin={pdr_min}: cheaper feasible records {cheaper}")
    return errors + answer_errors(best, expected)


# -- catalogue and seeded draws ---------------------------------------------------


def check_answer(workload: str, problem: tuple, result, oracle,
                 catalogue: dict) -> List[str]:
    """What is wrong with a cold answer to a grid problem (nothing, when
    it is right)."""
    seed, pdr = problem
    if workload == "solve":
        return check_nominal(
            result, oracle, pdr, expected_nominal(catalogue, seed, pdr)
        )
    return check_robust(result, expected_robust(catalogue, seed))


def load_catalogue() -> dict:
    return benchenv.load_json(CATALOGUE_PATH)


def draw(stratum: str, count: int, purpose: str, seed: int) -> List[int]:
    """``count`` distinct scenario seeds from ``STRATA[stratum]``, chosen
    by the benchmark seed (the same seed always draws the same ones)."""
    seeds = STRATA[stratum]
    if count > len(seeds):
        raise ValueError(f"{stratum}: {len(seeds)} seeds, need {count}")
    rng = random.Random(f"perfbench/{purpose}/{stratum}/{seed}")
    return rng.sample(seeds, count)


def expected_nominal(catalogue: dict, seed: int, pdr_min: float) -> dict:
    return catalogue["solve"]["answers"][str(seed)][f"{pdr_min:.2f}"]["best"]


def expected_robust(catalogue: dict, seed: int) -> dict:
    return catalogue["robust"]["answers"][str(seed)]["best"]
