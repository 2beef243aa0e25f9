"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Count determinism is what later performance claims may rest on: two
traced runs at one seed must report identical work counts, and a traced
run's answers must equal the untraced pass's (``trace_answers`` checks
that internally and counts a mismatch as a failed operation).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

import pytest

import benchenv

benchenv.use_source_tree()

import answers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "explorer.iterations",
    "milp.lp_solves",
    "oracle.simulations",
    "net.events",
    "batch.lanes",
    "campaign.wearers_ran",
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    return benchenv.load_json(benchenv.ROOT / "BENCHMARK.json")


def test_benchmark_json_matches_the_runner():
    spec = _benchmark()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_grid_draws_follow_the_seed():
    for workload in ("solve", "robust"):
        first = answers.grid(workload, 1)
        assert first == answers.grid(workload, 1)
        assert len({tuple(answers.grid(workload, s)) for s in range(10)}) > 1
        strata = {s for name, _ in answers.GRID[workload]
                  for s in answers.STRATA[name]}
        assert {seed for seed, _ in first} <= strata
    local, fleet = workloads.populations(1)
    wearers = [(w.seed, w.pdr_min) for s in local + fleet for w in s.wearers]
    assert len(wearers) == len(set(wearers))
    assert {seed for seed, _ in wearers} <= set(answers.STRATA["common"])
    for spec in local + fleet:
        assert {w.pdr_min for w in spec.wearers} == set(answers.CAMPAIGN_PDRS)


def test_correctness_gate_rejects_wrong_answers():
    best = {"mac": "csma", "nlt_days": 30.0, "pdr": 0.95, "placement": [0, 1],
            "power_mw": 0.9, "routing": "star", "tx_dbm": 0.0}
    assert answers.answer_errors(best, dict(best)) == []
    assert answers.answer_errors(best, dict(best, tx_dbm=-10.0))
    assert answers.answer_errors(None, best)
    summary = {"best": best, "iterations": [{"evaluations": [
        dict(best, power_mw=0.8, pdr=0.96),
    ]}]}
    assert answers.check_summary(summary, 0.9)
    assert answers.check_summary(dict(summary, best=dict(best, pdr=0.85)), 0.9)


def _counts(workload: str, seed: int) -> dict:
    outcome, layers = run.traced_run(workload, seed, 1.0)
    # every answer right and every design check held
    assert outcome.failed == 0, outcome.errors
    return {name: layers[name] for name in COUNTS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _counts(workload, 3)
    assert first == _counts(workload, 3)
    if workload == "solve":
        assert first["batch.lanes"] == 0
    if workload == "robust":
        assert first["batch.lanes"] > 0
    if workload == "campaign":
        assert first["campaign.wearers_ran"] == (
            2 * workloads.SUBMISSIONS * workloads.POPULATION
        )


def test_violated_design_check_fails_the_run():
    layers = {"trace.coverage": 0.95, "fabric.rpcs": 1, "batch.calls": 0}
    outcome = workloads.Outcome()
    run.check_design(outcome, "solve", layers, [])
    assert outcome.attempted == 3 and outcome.failed == 1
    assert any("no fabric RPCs" in e for e in outcome.errors)


def test_coverage_counts_only_the_layers_below_the_explorer():
    explore = ["HumanIntranetExplorer.explore", "explorer", 0.0, 1.0, -1,
               None, 0.0, 0.0, {}, 0]
    milp = ["MilpFormulation.enumerate_candidates", "milp", 0.1, 0.4, 0,
            None, 0.0, 0.0, {}, 0]
    assert spans.coverage([explore], 1.0) == 0.0
    assert spans.coverage([explore, milp], 1.0) == pytest.approx(0.3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        benchenv.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert not any(
        line.startswith("{") and '"correct"' in line
        for line in out.stdout.splitlines()
    )
    assert "no program to benchmark" in out.stderr
