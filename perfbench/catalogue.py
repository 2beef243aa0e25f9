"""Build ``catalogue.json``: expected answers and work counts of scenario seeds.

Run from the repository root (minutes on a 2-core machine)::

    python3 perfbench/catalogue.py

For scenario seeds 0-59 it answers every ``solve`` grid bound, and for
seeds 0-29 the ``robust`` problem, recording each answer and its
deterministic work counts (MILP solves, simulations, batched
evaluations).  The correctness gate compares every answer with this file.

Rebuild it when a change is meant to alter answers.  The seeds the
workloads draw from (``answers.STRATA``) stay as they are; the command
reports a stratum whose seeds no longer do identical work, since runs of
that workload then differ in work as well as in inputs.
"""

from __future__ import annotations

import json
import sys

import benchenv

benchenv.use_source_tree()

import answers  # noqa: E402

SOLVE_SEEDS = 60
ROBUST_SEEDS = 30


def _solve_entry(seed: int) -> dict:
    entry = {}
    for pdr in answers.SOLVE_PDRS:
        explorer = answers.nominal_explorer(seed, pdr)
        result = explorer.explore()
        errors = answers.check_nominal(result, explorer.oracle, pdr)
        explorer.oracle.close()
        if errors:
            raise RuntimeError(f"scenario seed {seed}: {errors}")
        entry[f"{pdr:.2f}"] = {
            "best": answers.nominal_answer(result),
            "milp_solves": result.milp_solves,
            "simulations": result.simulations_run,
        }
    return entry


def _robust_entry(seed: int) -> dict:
    explorer, oracle = answers.robust_explorer(seed)
    result = explorer.explore_robust(oracle, quantile=answers.ROBUST_QUANTILE)
    stats = oracle.stats()
    oracle.close()
    explorer.oracle.close()
    errors = answers.check_robust(result)
    if errors:
        raise RuntimeError(f"scenario seed {seed}: {errors}")
    return {
        "best": answers.robust_answer(result),
        "milp_solves": result.milp_solves,
        "simulations": result.simulations_run,
        "batched_evaluations": stats["batched_evaluations"],
    }


def _signature(entry: dict) -> str:
    if "best" in entry:
        keys = ("milp_solves", "simulations", "batched_evaluations")
        return json.dumps([entry[k] for k in keys])
    return json.dumps(
        [[entry[p]["milp_solves"], entry[p]["simulations"]] for p in sorted(entry)]
    )


def main() -> int:
    solve = {}
    for seed in range(SOLVE_SEEDS):
        solve[str(seed)] = _solve_entry(seed)
        print(f"solve seed {seed}: {_signature(solve[str(seed)])}", flush=True)
    robust = {}
    for seed in range(ROBUST_SEEDS):
        robust[str(seed)] = _robust_entry(seed)
        print(f"robust seed {seed}: {_signature(robust[str(seed)])}", flush=True)
    catalogue = {
        "preset": answers.PRESET,
        "solve_pdrs": list(answers.SOLVE_PDRS),
        "robust": {
            "pdr_min": answers.ROBUST_PDR,
            "quantile": answers.ROBUST_QUANTILE,
            "ensemble_size": answers.ENSEMBLE_SIZE,
            "fault_seed_offset": answers.FAULT_SEED_OFFSET,
            "answers": robust,
        },
        "solve": {"answers": solve},
    }
    with open(answers.CATALOGUE_PATH, "w", encoding="utf-8") as fh:
        json.dump(catalogue, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {answers.CATALOGUE_PATH}")
    for stratum, seeds in answers.STRATA.items():
        entries = robust if stratum == "robust" else solve
        signatures = {_signature(entries[str(s)]) for s in seeds}
        if len(signatures) > 1:
            print(f"stratum {stratum}: seeds no longer do identical work: "
                  f"{sorted(signatures)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
