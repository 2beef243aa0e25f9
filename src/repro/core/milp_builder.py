"""The relaxed MILP P̃ (Sec. 3): coarse-power-optimal candidate generation.

P̃ contains the topological and configuration constraints of Problem (8)
and minimizes the analytical node power P̄ of Eq. 9, dropping only the
simulation-defined PDR constraint (8d).  Eq. 9 is nonlinear in the raw
decision variables (products of the routing selector, the TX-mode selector,
and polynomial terms in N), so the formulation linearizes it with one
indicator per (routing, TX level, node count) combination:

    z_{r,k,n} = 1  ⇔  routing = r ∧ TX level = k ∧ N = n
    P̄ = P_bl + Σ z_{r,k,n} · cost(r, k, n)

with ``cost`` precomputed from Eq. 9.  The combination count is tiny
(a few routing schemes × 3 TX levels × a handful of node counts), standard
big-M-free linking constraints tie the indicators to the selectors, and the
MILP stays exact.

The MAC selector appears in no cost term (Eq. 9 is MAC-agnostic), so every
optimum comes in CSMA and TDMA flavours; the optimum-set enumerator
(``RunMILP`` returning a *set* S) surfaces both for simulation — exactly
the behaviour the paper's Fig. 3 arrows show, where the same placement and
power appear with both MACs at different PDRs.

A power cut from Algorithm 1's line 11 (``P̄ > P̄*``) is the row
``P̄ ≥ P̄* + ε`` plus the combination bounds it implies.  Exactly one z is
1, so P̄ is a function of the selected combination alone, and the row
holds exactly when every combination whose one-hot point violates it has
``z = 0``: those indicators get ``ub = 0`` and the rest ``ub = 1``
(:func:`_bound_combos`).  The row alone is a weak cut: the LP relaxation
meets it with a fractional mix of a combination below the cut and one
above it, and branch and bound has to branch its way out.  With the
bounds the relaxation's optimum sits on the cheapest combination left,
and P̃ solves at its root.

:meth:`MilpFormulation.build` makes a fresh model for any cut list.  The
default ``"combo"`` RunMILP builds P̃ once, with its one cut row always
present (``P̄ ≥ 0`` before the first cut, which no configuration
violates), and afterwards moves only that row's rhs, computed through the
same expression ``build`` uses, and the z bounds it implies.  So every
call solves a model equal to a fresh build, and every call after the first
differs from the one before only in rhs data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.design_space import Configuration, DesignSpace, PlacementConstraints
from repro.core.problem import DesignProblem
from repro.library.mac_options import MacKind, RoutingKind
from repro.milp import Constraint, Model, SolveStatus, enumerate_optimal_solutions
from repro.milp.branch_bound import BranchAndBoundSolver
from repro.milp.expr import LinExpr, Var
from repro.obs.runtime import Instrumentation, get_active

#: Fallback strictness epsilon for power cuts when the cost table is
#: degenerate (single level); normally the epsilon is derived from the
#: actual gap structure, see :meth:`MilpFormulation.cut_epsilon_mw`.
FALLBACK_CUT_EPSILON_MW = 1e-6


@dataclass
class _Vars:
    """Handles to the decision variables of one built model."""

    placement: List[Var]
    tx_levels: List[Var]
    mac_tdma: Var
    routing: Dict[str, Var]
    node_counts: Dict[int, Var]
    combos: Dict[Tuple[str, int, int], Var]


def _bound_combos(combos: Iterable[Var], cut_rows: Sequence[Constraint]) -> None:
    """Give each combination indicator the upper bound the ``P̄ ≥ rhs``
    cut rows imply: 0 when its own coefficient in some row is below that
    row's rhs (its one-hot point violates the row), else 1."""
    for z in combos:
        excluded = any(row.coeffs.get(z.index, 0.0) < row.rhs for row in cut_rows)
        z.ub = 0.0 if excluded else 1.0


@lru_cache(maxsize=8)
def _placements_by_size(
    constraints: PlacementConstraints,
) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The placements satisfying ``constraints``, grouped by node count:
    entry ``n`` holds those of ``n`` nodes.  Enumerated once per
    constraint set, and immutable because every formulation shares it."""
    by_size: List[List[Tuple[int, ...]]] = [
        [] for _ in range(constraints.max_nodes + 1)
    ]
    for placement in DesignSpace(constraints=constraints).placements():
        by_size[len(placement)].append(placement)
    return tuple(tuple(group) for group in by_size)


class MilpFormulation:
    """Builds and solves P̃ for a given design problem.

    ``obs`` receives one ``milp.solve`` span/event per
    :meth:`enumerate_candidates` call (solver status, B&B nodes, LP
    pivots, incumbent updates) plus aggregate ``milp.*`` counters; it
    defaults to the ambient instrumentation at call time.
    """

    def __init__(
        self, problem: DesignProblem, obs: Optional[Instrumentation] = None
    ) -> None:
        self.problem = problem
        self.space = problem.space
        self.scenario = problem.scenario
        self.obs = obs
        self._cost_table = self._build_cost_table()
        self._cut_epsilon_mw = self._derive_cut_epsilon()
        # Persistent B&B solver: Algorithm 1 re-solves the same model with
        # only the cut rhs moved, so each call's root relaxation re-solves
        # the previous root's final tableau.
        self._solver = BranchAndBoundSolver()
        self._root_basis = None
        #: The combo method's P̃, its cut row and its combination
        #: indicators, built on first use.
        self._combo: Optional[Tuple[Model, Constraint, List[Var]]] = None

    # -- cost table ---------------------------------------------------------------

    def _build_cost_table(self) -> Dict[Tuple[str, int, int], float]:
        """Radio power (mW) per (routing, tx level index, node count)."""
        model = self.scenario.power_model()
        table: Dict[Tuple[str, int, int], float] = {}
        cons = self.space.constraints
        n_lo = cons.effective_min_nodes
        for routing in self.space.routing_kinds:
            opts = self.scenario.routing_options(routing)
            for k, tx_dbm in enumerate(self.space.tx_levels_dbm):
                mode = self.scenario.tx_mode(tx_dbm)
                for n in range(n_lo, cons.max_nodes + 1):
                    table[(routing.value, k, n)] = model.radio_power_mw(
                        opts, n, mode
                    )
        return table

    def distinct_power_levels_mw(self) -> List[float]:
        """Sorted distinct P̄ values over the whole space (diagnostics and
        cut-epsilon validation)."""
        baseline = self.scenario.app.baseline_mw
        return sorted({baseline + c for c in self._cost_table.values()})

    def _derive_cut_epsilon(self) -> float:
        """Strictness margin for the P̄ > P̄* cuts: a quarter of the
        smallest gap between distinct analytical power levels, so a cut can
        never accidentally exclude the next level nor be swallowed by
        solver tolerances."""
        levels = self.distinct_power_levels_mw()
        gaps = [b - a for a, b in zip(levels, levels[1:]) if b - a > 1e-12]
        if not gaps:
            return FALLBACK_CUT_EPSILON_MW
        return max(FALLBACK_CUT_EPSILON_MW, 0.25 * min(gaps))

    @property
    def cut_epsilon_mw(self) -> float:
        return self._cut_epsilon_mw

    # -- model construction ----------------------------------------------------------

    def build(self, power_cuts_mw: Sequence[float] = ()) -> Tuple[Model, _Vars]:
        """Construct P̃ with the accumulated power cuts applied."""
        cons = self.space.constraints
        m = Model("human_intranet_relaxed", sense="min")

        placement = [m.add_binary(f"n{i}") for i in range(cons.num_locations)]
        tx_levels = [
            m.add_binary(f"p{k + 1}") for k in range(len(self.space.tx_levels_dbm))
        ]
        mac_tdma = m.add_binary("mac_tdma")
        # One selector per routing scheme in the space (the paper's binary
        # P_rt generalizes to a one-hot choice once the library offers more
        # than two schemes, e.g. the point-to-point forwarding extension).
        routing_vars = {
            kind.value: m.add_binary(f"routing_{kind.value}")
            for kind in self.space.routing_kinds
        }
        m.add_constraint(
            LinExpr.sum_of(routing_vars.values()) == 1, name="one_routing"
        )
        n_lo = cons.effective_min_nodes
        node_counts = {
            n: m.add_binary(f"N_is_{n}")
            for n in range(n_lo, cons.max_nodes + 1)
        }

        # Topological constraints (Sec. 4.1).
        for loc in cons.required:
            m.add_constraint(placement[loc] == 1, name=f"required_{loc}")
        for g_index, group in enumerate(cons.at_least_one_of):
            m.add_constraint(
                LinExpr.sum_of(placement[loc] for loc in group) >= 1,
                name=f"group_{g_index}",
            )
        total_nodes = LinExpr.sum_of(placement)
        m.add_constraint(total_nodes <= cons.max_nodes, name="max_nodes")
        m.add_constraint(total_nodes >= n_lo, name="min_nodes")

        # Node-count indicators: exactly one, consistent with the placement.
        m.add_constraint(
            LinExpr.sum_of(node_counts.values()) == 1, name="one_node_count"
        )
        m.add_constraint(
            total_nodes
            == LinExpr.sum_of(n * var for n, var in node_counts.items()),
            name="node_count_link",
        )

        # Exactly one TX power level (the paper's p1 + p2 + p3 = 1).
        m.add_constraint(LinExpr.sum_of(tx_levels) == 1, name="one_tx_level")

        # Combination indicators and their linking constraints.
        combos: Dict[Tuple[str, int, int], Var] = {}
        for (routing_value, k, n), _cost in self._cost_table.items():
            z = m.add_binary(f"z_{routing_value}_{k}_{n}")
            combos[(routing_value, k, n)] = z
            m.add_constraint(z <= tx_levels[k], name=f"z_le_p_{routing_value}_{k}_{n}")
            m.add_constraint(
                z <= node_counts[n], name=f"z_le_y_{routing_value}_{k}_{n}"
            )
            routing_term = routing_vars[routing_value].to_expr()
            m.add_constraint(z <= routing_term, name=f"z_le_r_{routing_value}_{k}_{n}")
            m.add_constraint(
                z >= tx_levels[k] + node_counts[n] + routing_term - 2,
                name=f"z_ge_{routing_value}_{k}_{n}",
            )
        m.add_constraint(LinExpr.sum_of(combos.values()) == 1, name="one_combo")

        # Objective: Eq. 9.
        radio_power = LinExpr.sum_of(
            self._cost_table[key] * var for key, var in combos.items()
        )
        p_bar = radio_power + self.scenario.app.baseline_mw
        m.set_objective(p_bar)

        # Algorithm 1 cuts: P̄ > cut, realized as P̄ ≥ cut + ε and the
        # combination bounds that row implies.
        cut_rows = [
            m.add_constraint(
                p_bar >= cut + self._cut_epsilon_mw, name=f"power_cut_{c_index}"
            )
            for c_index, cut in enumerate(power_cuts_mw)
        ]
        _bound_combos(combos.values(), cut_rows)

        return m, _Vars(placement, tx_levels, mac_tdma, routing_vars, node_counts, combos)

    # -- RunMILP (line 3 of Algorithm 1) ------------------------------------------------

    def enumerate_candidates(
        self,
        power_cuts_mw: Sequence[float] = (),
        max_solutions: int = 256,
        method: str = "combo",
    ) -> Tuple[SolveStatus, List[Configuration], Optional[float]]:
        """Solve P̃ and enumerate the configurations attaining its optimum.

        Returns ``(status, candidates, P̄*)``; on infeasibility the
        candidate list is empty and P̄* is None.

        Two enumeration methods are provided:

        * ``"combo"`` (default): one MILP solve establishes the optimal
          power level P̄*; the tied solution set is then expanded exactly
          from the (routing, TX level, N) cost table and the placement
          generator.  This exploits the structure of Eq. 9 — the objective
          depends on the placement only through N — and plays the role of
          CPLEX's solution pool in the paper's setup at a fraction of the
          cost.
        * ``"nogood"``: fully generic optimum enumeration with no-good
          cuts inside the MILP solver
          (:func:`repro.milp.enumerate_optimal_solutions`).  Exact for
          arbitrary user extensions of the model, but far slower; used by
          the test suite to validate the combo path.

        Accumulated power cuts are monotone, so only the largest is
        binding; the model is built with just that one.
        """
        cuts = [max(power_cuts_mw)] if power_cuts_mw else []
        obs = self.obs if self.obs is not None else get_active()

        if method == "nogood":
            # The generic reference path builds its own model every call:
            # it needs the variable handles to tell solutions apart.
            model, handles = self.build(cuts)
            distinguish = (
                handles.placement
                + handles.tx_levels
                + [handles.mac_tdma]
                + list(handles.routing.values())
            )
            with obs.span("milp.solve", method="nogood"):
                status, solutions, optimum = enumerate_optimal_solutions(
                    model, distinguish_vars=distinguish,
                    max_solutions=max_solutions,
                )
            obs.counter("milp.solves").inc()
            obs.event(
                "milp.solve",
                method="nogood",
                status=status.value,
                p_star_mw=optimum,
                solutions=len(solutions),
            )
            if status is not SolveStatus.OPTIMAL:
                return status, [], None
            configs = [self._to_configuration(model, sol) for sol in solutions]
            configs.sort(key=lambda c: c.key())
            return status, configs, optimum
        if method != "combo":
            raise ValueError(f"unknown enumeration method {method!r}")

        model = self._combo_model(cuts)
        with obs.span("milp.solve", method="combo"):
            result = self._solver.solve(model, root_warm_start=self._root_basis)
        self._root_basis = result.root_basis
        obs.counter("milp.solves").inc()
        obs.counter("milp.nodes").inc(result.nodes_explored)
        obs.counter("milp.lp_iterations").inc(result.lp_iterations)
        obs.counter("milp.warm_lp_solves").inc(result.warm_lp_solves)
        obs.event(
            "milp.solve",
            method="combo",
            status=result.status.value,
            p_star_mw=result.objective,
            nodes=result.nodes_explored,
            lp_iterations=result.lp_iterations,
            incumbent_updates=result.incumbent_updates,
            warm_lp_solves=result.warm_lp_solves,
        )
        if not result.is_optimal:
            return result.status, [], None
        assert result.objective is not None
        p_star = result.objective
        configs = self._expand_tied_combos(p_star, max_solutions)
        if not configs:
            raise RuntimeError(
                "MILP optimum has no matching grid configuration — the "
                "model and the design space disagree"
            )
        return SolveStatus.OPTIMAL, configs, p_star

    def _combo_model(self, cuts: Sequence[float]) -> Model:
        """P̃ with its cut set to ``cuts`` (at most one; none reads
        ``P̄ ≥ 0``): the row's rhs through the ``objective >= cut + ε``
        expression :meth:`build` adds a cut with, then the z bounds."""
        if self._combo is None:
            model, handles = self.build()
            cut_row = model.add_constraint(
                model.objective >= 0.0, name="power_cut_0"
            )
            self._combo = (model, cut_row, list(handles.combos.values()))
        model, cut_row, combos = self._combo
        bound = cuts[0] + self._cut_epsilon_mw if cuts else 0.0
        cut_row.rhs = (model.objective >= bound).as_row()[2]
        _bound_combos(combos, [cut_row])
        return model

    def _expand_tied_combos(
        self, p_star_mw: float, limit: Optional[int]
    ) -> List[Configuration]:
        """The first ``limit`` (all for ``None``) grid configurations whose
        Eq. 9 power equals P̄*, in :meth:`Configuration.key` order.  The
        tied set is sorted as keys, and only the kept prefix is built into
        configurations: a level can tie over a hundred of them."""
        baseline = self.scenario.app.baseline_mw
        radio_target = p_star_mw - baseline
        by_size = _placements_by_size(self.space.constraints)
        keys = [
            (placement, self.space.tx_levels_dbm[k], mac.value, routing_value)
            for (routing_value, k, n), cost in self._cost_table.items()
            if abs(cost - radio_target) <= 1e-9
            for placement in by_size[n]
            for mac in self.space.mac_kinds
        ]
        keys.sort()
        return [
            Configuration(placement, tx_dbm, MacKind(mac), RoutingKind(routing))
            for placement, tx_dbm, mac, routing in keys[:limit]
        ]

    def _to_configuration(self, model: Model, solution) -> Configuration:
        cons = self.space.constraints
        placement = tuple(
            i
            for i in range(cons.num_locations)
            if round(solution.values[model.var_by_name(f"n{i}").index]) == 1
        )
        tx_dbm = None
        for k, level in enumerate(self.space.tx_levels_dbm):
            if round(solution.values[model.var_by_name(f"p{k + 1}").index]) == 1:
                tx_dbm = level
                break
        if tx_dbm is None:
            raise RuntimeError("MILP solution selected no TX level")
        mac = (
            MacKind.TDMA
            if round(solution.values[model.var_by_name("mac_tdma").index]) == 1
            else MacKind.CSMA
        )
        routing = None
        for kind in self.space.routing_kinds:
            var = model.var_by_name(f"routing_{kind.value}")
            if round(solution.values[var.index]) == 1:
                routing = kind
                break
        if routing is None:
            raise RuntimeError("MILP solution selected no routing scheme")
        return Configuration(placement, tx_dbm, mac, routing)
