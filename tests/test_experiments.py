"""Tests for the experiment harnesses (presets, Table 1, Figure 3, R1, R2,
ablations) on the smoke preset so the suite stays fast."""

import pytest

from repro.core import evaluator
from repro.experiments.annealing_cmp import (
    format_annealing_comparison,
    run_annealing_comparison,
)
from repro.experiments.extensions import run_dual_staircase
from repro.experiments.figure3 import format_figure3, run_figure3
from repro.experiments.reduction import format_reduction, run_reduction
from repro.experiments.scenario import (
    PRESETS,
    get_preset,
    make_problem,
    make_reduced_space,
    make_scenario,
    make_space,
)
from repro.experiments.table1 import format_table1, table1_rows
from repro.library.mac_options import RoutingKind


class TestPresets:
    def test_all_presets_constructible(self):
        for name in PRESETS:
            scenario = make_scenario(name)
            assert scenario.tsim_s > 0
            problem = make_problem(0.5, name)
            assert problem.pdr_min == 0.5

    def test_paper_preset_matches_section4(self):
        paper = get_preset("paper")
        assert paper.tsim_s == 600.0
        assert paper.replicates == 3

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset("gpu")

    def test_physics_identical_across_presets(self):
        assert make_space("paper").total_size == make_space("ci").total_size

    def test_reduced_space(self):
        space = make_reduced_space(max_nodes=4)
        assert space.placements_by_size() == [(4, 8)]


class TestTable1:
    def test_rows_cover_all_parameters(self):
        rows = table1_rows()
        params = {r["parameter"] for r in rows}
        assert {"fc", "BR", "RxdBm", "RxmW"} <= params
        assert {"Tx mode p1", "Tx mode p2", "Tx mode p3"} <= params

    def test_format_contains_paper_values(self):
        text = format_table1()
        for token in ("2.4 GHz", "1024 kbps", "-97", "17.7", "9.55",
                      "11.56", "18.3"):
            assert token in text, token


class TestFigure3Smoke:
    @pytest.fixture(scope="class")
    def data(self):
        return run_figure3(preset="smoke", seed=0)

    def test_scatter_nonempty_and_consistent(self, data):
        assert data.scatter
        assert data.total_simulations == len(data.scatter)
        for nlt, pdr, label in data.scatter_series():
            assert nlt > 0
            assert 0.0 <= pdr <= 100.0
            assert label

    def test_optima_exist_for_easy_bounds(self, data):
        best = data.optima[0.5]
        assert best is not None
        assert best.pdr >= 0.5

    def test_higher_bound_never_longer_lifetime(self, data):
        bounds = sorted(b for b, v in data.optima.items() if v is not None)
        lifetimes = [data.optima[b].nlt_days for b in bounds]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(lifetimes, lifetimes[1:])
        )

    def test_format_output(self, data):
        text = format_figure3(data)
        assert "Figure 3" in text
        assert "Optima per PDRmin" in text

    def test_optimum_routing_helper(self, data):
        routing = data.optimum_routing(0.5)
        assert routing is None or isinstance(routing, RoutingKind)


class TestReductionSmoke:
    def test_reduction_positive(self):
        data = run_reduction(preset="smoke", seed=0, pdr_mins=(0.5,))
        assert data.exhaustive_simulations == 1320
        assert data.algorithm_simulations[0.5] < 1320
        assert 0 < data.mean_reduction_percent <= 100
        text = format_reduction(data)
        assert "87%" in text  # the paper reference is cited in the output

    def test_empty_runs_rejected(self):
        data = run_reduction(preset="smoke", seed=0, pdr_mins=(0.5,))
        data.algorithm_simulations.clear()
        with pytest.raises(ValueError):
            _ = data.mean_reduction_percent


class TestAnnealingComparisonSmoke:
    def test_comparison_structure(self):
        data = run_annealing_comparison(
            preset="smoke", seed=0, pdr_mins=(0.5,), sa_steps=25
        )
        row = data.rows[0.5]
        assert row.alg1_simulations > 0
        assert row.sa_simulations > 0
        assert row.speedup == pytest.approx(
            row.sa_simulations / row.alg1_simulations
        )
        if row.sa_first_hit_simulations is not None:
            assert row.sa_first_hit_simulations <= row.sa_simulations
        assert data.mean_speedup > 0
        text = format_annealing_comparison(data)
        assert "speedup" in text
        assert "SA matched?" in text


#: Each harness that builds its own scenarios, on smoke with one bound.
HARNESSES = {
    "figure3": lambda mode: run_figure3(
        "smoke", pdr_mins=(0.5,), batch_mode=mode
    ),
    "reduction": lambda mode: run_reduction(
        "smoke", pdr_mins=(0.5,), batch_mode=mode
    ),
    "annealing": lambda mode: run_annealing_comparison(
        "smoke", pdr_mins=(0.5,), sa_steps=5, batch_mode=mode
    ),
    "dual": lambda mode: run_dual_staircase(
        "smoke", lifetime_bounds_days=(25.0,), batch_mode=mode
    ),
}


class TestHarnessBatchMode:
    """``--batch`` reaches the oracles of every harness: ``on`` sends
    supported evaluations to the batched kernel, ``off`` never does."""

    @pytest.mark.parametrize("mode", ["on", "off"])
    @pytest.mark.parametrize("harness", sorted(HARNESSES))
    def test_requested_mode_reaches_the_oracles(
        self, monkeypatch, harness, mode
    ):
        kernel = evaluator.evaluate_batch
        calls = []

        def counting_kernel(*args):
            calls.append(len(args[1]))
            return kernel(*args)

        monkeypatch.setattr(evaluator, "evaluate_batch", counting_kernel)
        HARNESSES[harness](mode)
        assert bool(calls) == (mode == "on"), calls


class TestCli:
    def test_table1_command(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CC2650" in out

    def test_space_command(self, capsys):
        from repro.cli import main

        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "12288" in out

    def test_solve_command(self, capsys):
        from repro.cli import main

        assert main(["solve", "--pdr-min", "50", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "PDRmin=50%" in out

    def test_pdr_min_accepts_fraction(self, capsys):
        from repro.cli import main

        assert main(["solve", "--pdr-min", "0.5", "--preset", "smoke"]) == 0


class TestExtensionExperimentsSmoke:
    def test_routing_comparison(self):
        from repro.experiments.extensions import (
            format_routing_comparison,
            run_routing_comparison,
        )

        data = run_routing_comparison(preset="smoke", seed=0)
        assert len(data.rows) == 3
        for row in data.rows.values():
            assert 0.0 <= row.pdr <= 1.0
            assert row.power_mw > 0
        text = format_routing_comparison(data)
        assert "star" in text and "mesh" in text and "p2p" in text

    def test_posture_sensitivity(self):
        from repro.experiments.extensions import (
            format_posture_sensitivity,
            run_posture_sensitivity,
        )

        data = run_posture_sensitivity(preset="smoke", seed=0)
        assert len(data.rows) == 3
        text = format_posture_sensitivity(data)
        assert "activity" in text

    def test_dual_staircase(self):
        from repro.experiments.extensions import (
            format_dual_staircase,
            run_dual_staircase,
        )

        data = run_dual_staircase(
            preset="smoke", seed=0, lifetime_bounds_days=(25.0,)
        )
        assert 25.0 in data.results
        text = format_dual_staircase(data)
        assert "NLTmin" in text

    def test_cli_dual(self, capsys):
        from repro.cli import main

        code = main(["dual", "--min-lifetime-days", "25",
                     "--preset", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NLTmin=25.0" in out
