"""Tests for the MILP formulation of P̃ (candidate generation)."""

import pytest

from repro.core.design_space import (
    Configuration,
    DesignSpace,
    PlacementConstraints,
)
from repro.core.milp_builder import MilpFormulation, _placements_by_size
from repro.core.problem import DesignProblem, ScenarioParameters
from repro.library.mac_options import MacKind, RoutingKind
from repro.milp import SolveStatus
from repro.obs import Instrumentation, MetricsRegistry


def make_formulation(max_nodes=6, tx_levels=(-20.0, -10.0, 0.0)):
    problem = DesignProblem(
        pdr_min=0.9,
        scenario=ScenarioParameters(tsim_s=5.0, replicates=1),
        space=DesignSpace(
            constraints=PlacementConstraints(max_nodes=max_nodes),
            tx_levels_dbm=tx_levels,
        ),
    )
    return MilpFormulation(problem), problem


class TestCostTable:
    def test_cost_table_matches_power_model(self):
        formulation, problem = make_formulation()
        model = problem.scenario.power_model()
        for (routing_value, k, n), cost in formulation._cost_table.items():
            routing = problem.scenario.routing_options(
                RoutingKind(routing_value)
            )
            mode = problem.scenario.tx_mode(problem.space.tx_levels_dbm[k])
            assert cost == pytest.approx(model.radio_power_mw(routing, n, mode))

    def test_distinct_levels_sorted(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        assert levels == sorted(levels)
        assert len(set(levels)) == len(levels)

    def test_cut_epsilon_below_min_gap(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        min_gap = min(b - a for a, b in zip(levels, levels[1:]))
        assert 0 < formulation.cut_epsilon_mw < min_gap


class TestFirstLevel:
    def test_global_optimum_is_min_star_low_power(self):
        formulation, problem = make_formulation()
        status, configs, p_star = formulation.enumerate_candidates()
        assert status is SolveStatus.OPTIMAL
        expected = min(
            problem.analytic_power_mw(c)
            for c in problem.space.feasible_configurations()
        )
        assert p_star == pytest.approx(expected)
        assert all(c.routing is RoutingKind.STAR for c in configs)
        assert all(c.tx_dbm == -20.0 for c in configs)
        assert all(c.num_nodes == 4 for c in configs)

    def test_optimum_set_contains_both_macs(self):
        formulation, _ = make_formulation(max_nodes=4)
        _status, configs, _p = formulation.enumerate_candidates()
        macs = {c.mac for c in configs}
        assert macs == {MacKind.CSMA, MacKind.TDMA}

    def test_optimum_set_covers_all_minimal_placements(self):
        formulation, _ = make_formulation(max_nodes=4)
        _status, configs, _p = formulation.enumerate_candidates(
            max_solutions=64
        )
        placements = {c.placement for c in configs}
        assert len(placements) == 8  # 2 hips x 2 ankles x 2 wrists
        assert len(configs) == 16  # x 2 MACs

    def test_all_candidates_on_grid(self):
        formulation, problem = make_formulation()
        _status, configs, _p = formulation.enumerate_candidates()
        assert all(problem.space.contains(c) for c in configs)

    def test_max_solutions_respected(self):
        formulation, _ = make_formulation()
        _status, configs, _p = formulation.enumerate_candidates(max_solutions=5)
        assert len(configs) == 5


class TestCuts:
    def test_cuts_walk_levels_in_order(self):
        formulation, _ = make_formulation(max_nodes=4)
        cuts, seen = [], []
        while True:
            status, configs, p_star = formulation.enumerate_candidates(cuts)
            if status is not SolveStatus.OPTIMAL or not configs:
                break
            seen.append(p_star)
            cuts.append(p_star)
        # 2 routings x 3 levels x 1 node count = 6 distinct levels.
        assert len(seen) == 6
        assert seen == sorted(seen)
        assert seen == formulation.distinct_power_levels_mw()

    def test_exhausted_space_reports_infeasible(self):
        formulation, _ = make_formulation(max_nodes=4)
        levels = formulation.distinct_power_levels_mw()
        status, configs, p_star = formulation.enumerate_candidates(levels)
        assert status is SolveStatus.INFEASIBLE
        assert configs == [] and p_star is None

    def test_only_binding_cut_matters(self):
        formulation, _ = make_formulation()
        levels = formulation.distinct_power_levels_mw()
        one = formulation.enumerate_candidates([levels[2]])
        many = formulation.enumerate_candidates(levels[:3])
        assert one[2] == pytest.approx(many[2])


class TestComboModelReuse:
    """The combo RunMILP builds P̃ once, with its cut row always present,
    and then moves only that row's rhs; each call must solve exactly what
    a fresh build would, with the same warm-start history."""

    @staticmethod
    def _fresh_model(formulation, cuts):
        """A fresh build of what a call with ``cuts`` solves: the binding
        cut, or ``P̄ ≥ 0`` (a cut at ``-ε``) before the first one."""
        binding = max(cuts) if cuts else -formulation.cut_epsilon_mw
        return formulation.build([binding])[0]

    def _walk(self, formulation, fresh_build, monkeypatch):
        obs = formulation.obs
        calls, cuts = [], []
        for _level in range(40):  # a stale cut would never end the walk
            if fresh_build:
                model = self._fresh_model(formulation, cuts)
                monkeypatch.setattr(
                    formulation, "_combo_model", lambda _cuts: model
                )
            nodes = obs.counter("milp.nodes").value
            pivots = obs.counter("milp.lp_iterations").value
            status, configs, p_star = formulation.enumerate_candidates(cuts)
            calls.append((
                status, repr(p_star), [c.key() for c in configs],
                obs.counter("milp.nodes").value - nodes,
                obs.counter("milp.lp_iterations").value - pivots,
            ))
            if status is not SolveStatus.OPTIMAL:
                break
            cuts.append(p_star)
        return calls

    def test_walk_matches_fresh_builds(self, monkeypatch):
        walks = []
        for fresh_build in (False, True):
            _f, problem = make_formulation(max_nodes=5)
            formulation = MilpFormulation(
                problem, obs=Instrumentation(MetricsRegistry())
            )
            walks.append(self._walk(formulation, fresh_build, monkeypatch))
        reused, fresh = walks
        assert len(reused) > 3
        assert reused == fresh

    def test_cut_rhs_equals_a_fresh_build(self):
        """Every Eq. 9 level of smoke P̃ as the cut, then no cut again.
        Levels 12 and 14 round differently under another association of
        ``cut + ε - P_bl``, so a cut rhs computed any other way fails."""
        from repro.experiments.scenario import make_problem

        formulation = MilpFormulation(make_problem(0.9, "smoke"))
        levels = formulation.distinct_power_levels_mw()
        for cuts in [[]] + [[cut] for cut in levels] + [[]]:
            formulation.enumerate_candidates(cuts)
            reused = formulation._combo[0]
            model = self._fresh_model(formulation, cuts)
            assert [
                (c.name, c.coeffs, c.sense, c.rhs) for c in reused.constraints
            ] == [
                (c.name, c.coeffs, c.sense, c.rhs) for c in model.constraints
            ]
            assert [(v.name, v.lb, v.ub) for v in reused.variables] == [
                (v.name, v.lb, v.ub) for v in model.variables
            ]
            assert reused.constraints[-1].name == "power_cut_0"

    def test_placements_are_enumerated_once(self, monkeypatch):
        """Once per constraint set, shared by formulations over equal
        spaces, as an immutable table."""
        (first, problem), (second, other) = (
            make_formulation(max_nodes=4) for _ in range(2)
        )
        assert problem.space == other.space
        assert problem.space.constraints is not other.space.constraints
        space_type = type(problem.space)
        original = space_type.placements
        calls = []

        def counting(space):
            calls.append(1)
            return original(space)

        monkeypatch.setattr(space_type, "placements", counting)
        _placements_by_size.cache_clear()
        try:
            for formulation in (first, second):
                cuts = []
                for _ in range(3):
                    _status, _configs, p_star = (
                        formulation.enumerate_candidates(cuts)
                    )
                    cuts.append(p_star)
            table = _placements_by_size(other.space.constraints)
        finally:
            _placements_by_size.cache_clear()
        assert len(calls) == 1
        assert isinstance(table, tuple)
        assert all(isinstance(group, tuple) for group in table)
        assert sum(len(group) for group in table) == 8


class TestTightCuts:
    """A cut is its row plus the combination bounds the row implies, so
    P̃ solves at its root, with the optima of the row alone."""

    @staticmethod
    def _walk(formulation):
        obs = formulation.obs
        calls, nodes, cuts = [], [], []
        for _level in range(40):
            before = obs.counter("milp.nodes").value
            status, configs, p_star = formulation.enumerate_candidates(cuts)
            calls.append((status, repr(p_star), [c.key() for c in configs]))
            nodes.append(obs.counter("milp.nodes").value - before)
            if status is not SolveStatus.OPTIMAL:
                return calls, nodes
            cuts.append(p_star)
        raise AssertionError("the walk did not end")

    @pytest.mark.parametrize("preset", ["smoke", "ci", "paper"])
    def test_every_call_solves_at_its_root_with_the_rows_optima(
        self, preset, monkeypatch
    ):
        """Call for call, the walk equals a reference walk over the same
        model with every z upper bound put back to 1 (the cut row alone),
        and explores one node per call where the reference branches."""
        from repro.experiments.scenario import make_problem

        walks = []
        for tight in (True, False):
            formulation = MilpFormulation(
                make_problem(0.9, preset),
                obs=Instrumentation(MetricsRegistry()),
            )
            if not tight:
                def row_only(cuts, formulation=formulation,
                             combo_model=formulation._combo_model):
                    model = combo_model(cuts)
                    for z in formulation._combo[2]:
                        z.ub = 1.0
                    return model

                monkeypatch.setattr(formulation, "_combo_model", row_only)
            walks.append(self._walk(formulation))
        (calls, nodes), (reference, reference_nodes) = walks
        assert len(calls) == 19  # 18 levels, then infeasible
        assert calls == reference
        assert nodes == [1] * 19
        assert sum(reference_nodes) > 19

    def test_a_bound_is_zero_exactly_where_the_row_is_violated(self):
        """At every smoke level, and with no cut: in the reused model and
        in a fresh build, z has ub 0 exactly when its combination's one-hot
        point violates the cut row, that is when its P̄ is at or below
        the cut."""
        from repro.experiments.scenario import make_problem

        formulation = MilpFormulation(make_problem(0.9, "smoke"))
        levels = formulation.distinct_power_levels_mw()
        baseline = formulation.scenario.app.baseline_mw
        for k, cuts in enumerate([[]] + [[cut] for cut in levels]):
            formulation.enumerate_candidates(cuts)
            fresh, handles = formulation.build(cuts)
            if not cuts:
                assert "power_cut_0" not in [c.name for c in fresh.constraints]
                assert all(z.ub == 1.0 for z in handles.combos.values())
            models = [(formulation._combo[0], formulation._combo[2])]
            if cuts:
                models.append((fresh, list(handles.combos.values())))
            for model, combos in models:
                (row,) = [
                    c for c in model.constraints if c.name == "power_cut_0"
                ]
                excluded = set()
                for z in combos:
                    one_hot = dict.fromkeys(range(model.num_vars), 0.0)
                    one_hot[z.index] = 1.0
                    violated = row.violation(one_hot, tol=0.0) > 0.0
                    assert (z.ub == 0.0) == violated, (k, z.name)
                    assert z.lb == 0.0
                    if violated:
                        excluded.add(z.index)
                assert {
                    baseline + formulation._cost_table[key]
                    for key, z in handles.combos.items()
                    if z.index in excluded
                } == set(levels[:k])


def expand_then_slice(formulation, p_star_mw, max_solutions):
    """The tied-set expansion as it was first written: every configuration
    tied at P̄* built, sorted by key, then sliced to the cap."""
    radio_target = p_star_mw - formulation.scenario.app.baseline_mw
    configs = []
    for (routing_value, k, n), cost in formulation._cost_table.items():
        if abs(cost - radio_target) > 1e-9:
            continue
        tx_dbm = formulation.space.tx_levels_dbm[k]
        for placement in _placements_by_size(formulation.space.constraints)[n]:
            for mac in formulation.space.mac_kinds:
                configs.append(Configuration(
                    placement, tx_dbm, mac, RoutingKind(routing_value)
                ))
    configs.sort(key=lambda c: c.key())
    return configs[:max_solutions]


class TestTiedPrefix:
    """The combo path builds configurations for the kept prefix of the
    tied set only; the candidates are those of expanding the whole set."""

    @pytest.mark.parametrize("max_solutions", [8, 16, None])
    def test_every_level_matches_expand_then_slice(self, max_solutions):
        from repro.experiments.scenario import make_problem

        walked = []
        for formulation in (
            MilpFormulation(make_problem(0.9, "smoke")),
            make_formulation(max_nodes=4)[0],
        ):
            cuts = []
            while True:
                status, configs, p_star = formulation.enumerate_candidates(
                    cuts, max_solutions=max_solutions
                )
                if status is not SolveStatus.OPTIMAL:
                    break
                assert configs == expand_then_slice(
                    formulation, p_star, max_solutions
                )
                cuts.append(p_star)
            walked.append(len(cuts))
        assert walked == [18, 6]


class TestNogoodEquivalence:
    def test_combo_equals_nogood_on_reduced_space(self):
        formulation, _ = make_formulation(
            max_nodes=4, tx_levels=(-10.0, 0.0)
        )
        for cuts in ([], [1.02]):
            _s1, combo, p1 = formulation.enumerate_candidates(
                cuts, max_solutions=64, method="combo"
            )
            _s2, nogood, p2 = formulation.enumerate_candidates(
                cuts, max_solutions=64, method="nogood"
            )
            assert p1 == pytest.approx(p2)
            assert {c.key() for c in combo} == {c.key() for c in nogood}

    def test_combo_equals_nogood_at_every_level_with_few_optima(self):
        """The candidate sets agree at every smoke level holding at most
        16 tied optima (the generic no-good path takes seconds per larger
        level) and at every level of the reduced space."""
        from repro.experiments.scenario import make_problem

        checked = 0
        for formulation, levels in (
            (MilpFormulation(make_problem(0.9, "smoke")), 18),
            (make_formulation(max_nodes=4)[0], 6),
        ):
            cuts = []
            for _level in range(levels + 1):
                s1, combo, p1 = formulation.enumerate_candidates(
                    cuts, max_solutions=10_000, method="combo"
                )
                if len(combo) > 16:
                    cuts.append(p1)
                    continue
                s2, nogood, p2 = formulation.enumerate_candidates(
                    cuts, max_solutions=64, method="nogood"
                )
                assert s1 is s2
                checked += 1
                if s1 is not SolveStatus.OPTIMAL:
                    assert combo == nogood == [] and p1 is p2 is None
                    break
                assert p1 == pytest.approx(p2, abs=1e-9)
                assert [c.key() for c in combo] == [c.key() for c in nogood]
                cuts.append(p1)
            assert s1 is SolveStatus.INFEASIBLE
        assert checked == 6 + 1 + 6 + 1

    def test_unknown_method_rejected(self):
        formulation, _ = make_formulation()
        with pytest.raises(ValueError, match="unknown enumeration method"):
            formulation.enumerate_candidates(method="magic")


class TestPowerLevelWalkAgainstHighs:
    @pytest.mark.parametrize("preset", ["smoke", "ci"])
    def test_every_level_matches_highs(self, preset):
        """Algorithm 1's cut loop from no cut until P̃ is infeasible: the
        in-house branch and bound visits every distinct Eq. 9 level in
        order, and HiGHS agrees on each built model, the last included."""
        from repro.experiments.scenario import make_problem
        from repro.milp import solve_with_scipy

        formulation = MilpFormulation(make_problem(0.9, preset))
        cuts, seen = [], []
        while True:
            status, _configs, p_star = formulation.enumerate_candidates(cuts)
            model, _ = formulation.build([max(cuts)] if cuts else [])
            reference = solve_with_scipy(model)
            if status is not SolveStatus.OPTIMAL:
                break
            assert reference.is_optimal
            assert abs(p_star - reference.objective) <= 1e-9
            seen.append(p_star)
            cuts.append(p_star)
        assert status is SolveStatus.INFEASIBLE
        assert reference.status is SolveStatus.INFEASIBLE
        assert seen == formulation.distinct_power_levels_mw()
        assert len(seen) == 18


class TestProblemValidation:
    def test_pdr_min_range_checked(self):
        with pytest.raises(ValueError):
            DesignProblem(pdr_min=1.5)
        with pytest.raises(ValueError):
            DesignProblem(pdr_min=-0.1)

    def test_coordinator_must_be_required(self):
        space = DesignSpace(
            constraints=PlacementConstraints(required=(1,))
        )
        with pytest.raises(ValueError, match="coordinator"):
            DesignProblem(pdr_min=0.5, space=space)

    def test_tx_levels_must_exist_on_radio(self):
        space = DesignSpace(tx_levels_dbm=(-20.0, 7.0))
        with pytest.raises(KeyError):
            DesignProblem(pdr_min=0.5, space=space)

    def test_with_pdr_min(self):
        problem = DesignProblem(pdr_min=0.5)
        other = problem.with_pdr_min(0.9)
        assert other.pdr_min == 0.9
        assert other.scenario is problem.scenario

    def test_analytic_helpers(self):
        problem = DesignProblem(pdr_min=0.5)
        from repro.core.design_space import Configuration

        c = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.STAR)
        power = problem.analytic_power_mw(c)
        assert power > 0
        assert problem.analytic_lifetime_days(c) == pytest.approx(
            problem.scenario.battery.lifetime_days(power)
        )
