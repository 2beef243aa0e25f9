"""Golden-trace regression test for Algorithm 1's decision trajectory.

Runs the reference scenario (smoke preset, seed 0, PDR_min = 90%)
end-to-end with tracing enabled and compares the *deterministic
projection* of the trace — the ordered ``explorer.*`` events with timing
fields stripped — against the snapshot in ``tests/golden/``.  Any change
to the candidate sequence, accept/reject verdicts, incumbent updates,
cuts, or termination reason fails loudly instead of drifting silently.

Regenerate after an intentional behaviour change with::

    pytest tests/test_golden_trace.py --update-golden

and review the snapshot diff like code.  Each snapshot has a
``.report.txt`` twin: the ``trace_report`` text it renders to.
"""

import json
import pathlib

import pytest

from repro.analysis.trace_report import explorer_sequence, summarize
from repro.core.explorer import HumanIntranetExplorer
from repro.experiments.scenario import get_preset, make_problem
from repro.faults.model import hub_stress_ensemble
from repro.faults.resilience import EnsembleOracle
from repro.obs import Instrumentation, MetricsRegistry, TraceWriter, read_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "explorer_smoke_pdr90.json"
ROBUST_GOLDEN_PATH = GOLDEN_DIR / "robust_smoke_pdr85.json"

PRESET = "smoke"
PDR_MIN = 0.90
SEED = 0

#: The pinned E4 regime (see tests/test_faults_resilience.py): smoke
#: preset, hub-stress fault ensemble, chance constraint at the ensemble
#: minimum.
ROBUST_PDR_MIN = 0.85
ROBUST_SEED = 3
ROBUST_QUANTILE = 0.0
ROBUST_OUTAGE_FRACTION = 0.2
ROBUST_ENSEMBLE_SIZE = 2

UPDATE_HINT = (
    "explorer trajectory diverged from tests/golden/%s; if the change is "
    "intentional, regenerate with `pytest tests/test_golden_trace.py "
    "--update-golden` and review the diff" % GOLDEN_PATH.name
)

ROBUST_UPDATE_HINT = (
    "robust explorer trajectory diverged from tests/golden/%s; if the "
    "change is intentional, regenerate with `pytest "
    "tests/test_golden_trace.py --update-golden` and review the diff"
    % ROBUST_GOLDEN_PATH.name
)


def run_reference(trace_path, n_jobs: int = 1):
    """One seeded reference run; returns the deterministic projection."""
    problem = make_problem(PDR_MIN, PRESET, seed=SEED, n_jobs=n_jobs)
    preset = get_preset(PRESET)
    with TraceWriter(trace_path) as tracer:
        obs = Instrumentation(MetricsRegistry(), tracer)
        explorer = HumanIntranetExplorer(
            problem, candidate_cap=preset.candidate_cap, obs=obs
        )
        try:
            result = explorer.explore()
        finally:
            explorer.oracle.close()
    assert result.found, "reference scenario must be feasible"
    return explorer_sequence(read_trace(trace_path))


def test_golden_trace_reference_run(tmp_path, update_golden):
    sequence = run_reference(tmp_path / "run.jsonl")
    assert sequence, "traced run produced no explorer events"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(sequence, indent=1) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sequence == golden, UPDATE_HINT


def test_golden_trace_invariant_across_n_jobs(tmp_path):
    """The projection is bit-identical under parallel fan-out: worker
    scheduling must never leak into the explorer's decisions."""
    golden = json.loads(GOLDEN_PATH.read_text())
    parallel = run_reference(tmp_path / "parallel.jsonl", n_jobs=2)
    assert parallel == golden, UPDATE_HINT


def test_golden_trace_repeatable_within_process(tmp_path):
    """Two runs in one process agree (no hidden global state)."""
    first = run_reference(tmp_path / "a.jsonl")
    second = run_reference(tmp_path / "b.jsonl")
    assert first == second


def run_robust_reference(trace_path, n_jobs: int = 1):
    """One seeded chance-constrained run; returns the projection (the
    ordered ``explorer.robust_*`` milestones, timing stripped)."""
    problem = make_problem(
        ROBUST_PDR_MIN, PRESET, seed=ROBUST_SEED, n_jobs=n_jobs
    )
    preset = get_preset(PRESET)
    ensemble = hub_stress_ensemble(
        problem.scenario.tsim_s,
        coordinator=problem.scenario.coordinator_location,
        outage_fraction=ROBUST_OUTAGE_FRACTION,
        size=ROBUST_ENSEMBLE_SIZE,
    )
    with TraceWriter(trace_path) as tracer:
        obs = Instrumentation(MetricsRegistry(), tracer)
        with EnsembleOracle(
            problem.scenario, ensemble, n_jobs=n_jobs, obs=obs
        ) as oracle:
            result = HumanIntranetExplorer(
                problem, candidate_cap=preset.candidate_cap, obs=obs
            ).explore_robust(oracle, quantile=ROBUST_QUANTILE)
    assert result.found, "robust reference scenario must be feasible"
    return explorer_sequence(read_trace(trace_path))


def test_robust_golden_trace_reference_run(tmp_path, update_golden):
    sequence = run_robust_reference(tmp_path / "robust.jsonl")
    assert sequence, "traced robust run produced no explorer events"
    assert any(
        ev["kind"] == "explorer.robust_candidate" for ev in sequence
    )
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        ROBUST_GOLDEN_PATH.write_text(json.dumps(sequence, indent=1) + "\n")
    golden = json.loads(ROBUST_GOLDEN_PATH.read_text())
    assert sequence == golden, ROBUST_UPDATE_HINT


def test_robust_golden_trace_invariant_across_n_jobs(tmp_path):
    """The chance-constrained trajectory — including every per-fault-world
    evaluation feeding the quantile — is bit-identical under fan-out."""
    golden = json.loads(ROBUST_GOLDEN_PATH.read_text())
    parallel = run_robust_reference(tmp_path / "parallel.jsonl", n_jobs=4)
    assert parallel == golden, ROBUST_UPDATE_HINT


@pytest.mark.parametrize(
    "golden", [GOLDEN_PATH, ROBUST_GOLDEN_PATH], ids=lambda path: path.stem
)
def test_golden_trajectory_report_text(golden, update_golden):
    """``trace_report`` renders each golden trajectory, nominal and
    robust, to its pinned explorer section, line for line."""
    pinned = golden.with_suffix(".report.txt")
    text = summarize(json.loads(golden.read_text())) + "\n"
    if update_golden:
        pinned.write_text(text)
    assert text == pinned.read_text()
