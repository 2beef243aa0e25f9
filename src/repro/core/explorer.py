"""Algorithm 1: Human Intranet Design Space Exploration.

The explorer coordinates the MILP solver (RunMILP — candidate generation by
ascending analytical power) with the discrete-event simulator (RunSim —
accurate PDR and power) exactly as in the paper:

1. Solve the relaxed MILP P̃; obtain the set S of all configurations
   attaining the analytical power optimum P̄*.
2. If S is empty and no feasible solution was ever found → infeasible.
3. Termination test (line 5): if P̄*/α(S*, PDR_min) — i.e. the least
   simulated power any remaining candidate could exhibit — exceeds the
   incumbent's simulated power P̄_min, no further simulation can improve
   the solution: return S*.
4. Simulate S; keep candidates meeting the PDR bound, sorted by simulated
   power; update the incumbent (S*, P̄_min) if improved.
5. Add the cut P̄ > P̄* to P̃ (pruning the just-explored power level) and
   iterate.

The algorithm is exact over the modeled design space: it stops only when
the MILP is exhausted or the α-corrected bound proves optimality.

An *exhaustive* mode disables the early-termination test and keeps
iterating until the MILP has no candidates left; this sweeps the entire
feasible space in ascending analytical-power order and is how the Fig. 3
scatter (all feasible configurations) is produced.

Step 4's "meeting the PDR bound" is the only thing the nominal and the
chance-constrained runs disagree on: ``explore`` tests the candidate's
PDR, ``explore_robust`` the lower quantile of its PDR over a fault
ensemble.  Both hand that test, as an :class:`_AcceptRule`, to the one
loop above (:meth:`HumanIntranetExplorer._walk`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.core.design_space import Configuration
from repro.core.evaluator import EvaluationRecord, SimulationOracle
from repro.core.milp_builder import MilpFormulation
from repro.core.problem import DesignProblem
from repro.milp.solution import SolveStatus
from repro.obs.runtime import Instrumentation


def _pdr_min_label(pdr_min: float) -> str:
    """``PDRmin=<percent>%`` with the bound's own digits: 99.97, not 100."""
    return f"PDRmin={100 * pdr_min:g}%"


@dataclass
class IterationRecord:
    """Journal entry for one explorer iteration."""

    index: int
    analytic_power_mw: float
    candidates: List[Configuration]
    evaluations: List[EvaluationRecord]
    feasible: List[EvaluationRecord]
    incumbent_power_mw: float
    incumbent: Optional[Configuration]

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


@dataclass
class ExplorationResult:
    """Outcome of one Algorithm 1 run."""

    pdr_min: float
    status: str  # "optimal" | "infeasible"
    termination_reason: str
    best: Optional[EvaluationRecord]
    iterations: List[IterationRecord] = field(default_factory=list)
    simulations_run: int = 0
    milp_solves: int = 0
    wall_seconds: float = 0.0
    #: Aggregate oracle telemetry (cache hit rate, wall-time percentiles,
    #: parallel speedup estimate) captured when the run finished.
    oracle_stats: Optional[dict] = None

    @property
    def found(self) -> bool:
        return self.best is not None

    def summary(self) -> str:
        """One-line human-readable result."""
        if self.best is None:
            return (
                f"{_pdr_min_label(self.pdr_min)}: infeasible "
                f"({self.simulations_run} simulations)"
            )
        b = self.best
        return (
            f"{_pdr_min_label(self.pdr_min)}: {b.config.label()}  "
            f"PDR={b.pdr_percent:.1f}%  NLT={b.nlt_days:.1f} days  "
            f"({self.simulations_run} simulations, "
            f"{len(self.iterations)} iterations)"
        )

    def to_dict(self) -> dict:
        """JSON-serializable journal of the run — for external tooling,
        archival of exploration sessions, and regression comparison."""

        def _record(e) -> dict:
            return {
                "placement": list(e.config.placement),
                "tx_dbm": e.config.tx_dbm,
                "mac": e.config.mac.value,
                "routing": e.config.routing.value,
                "pdr": e.pdr,
                "power_mw": e.power_mw,
                "nlt_days": e.nlt_days,
            }

        return {
            "pdr_min": self.pdr_min,
            "status": self.status,
            "termination_reason": self.termination_reason,
            "simulations_run": self.simulations_run,
            "milp_solves": self.milp_solves,
            "wall_seconds": self.wall_seconds,
            "oracle_stats": self.oracle_stats,
            "best": _record(self.best) if self.best else None,
            "iterations": [
                {
                    "index": it.index,
                    "analytic_power_mw": it.analytic_power_mw,
                    "num_candidates": it.num_candidates,
                    "num_feasible": len(it.feasible),
                    "incumbent_power_mw": (
                        it.incumbent_power_mw
                        if it.incumbent_power_mw != math.inf
                        else None
                    ),
                    "evaluations": [_record(e) for e in it.evaluations],
                }
                for it in self.iterations
            ],
        }


@dataclass
class RobustIterationRecord:
    """Journal entry for one chance-constrained explorer iteration."""

    index: int
    analytic_power_mw: float
    #: ResilienceRecord per simulated candidate (duck-typed: defined in
    #: :mod:`repro.faults.resilience`; this module never imports it).
    records: List = field(default_factory=list)
    feasible: List = field(default_factory=list)
    incumbent_power_mw: float = math.inf
    incumbent: Optional[Configuration] = None


@dataclass
class RobustExplorationResult:
    """Outcome of one chance-constrained (robust) Algorithm 1 run.

    The accept test is ``quantile_q(PDR over the fault ensemble) ≥
    PDR_min`` instead of the nominal ``PDR ≥ PDR_min``; the objective and
    the α-corrected termination bound are unchanged (healthy power), so
    the result is the minimum-power design that stays reliable in at
    least a (1−q) fraction of fault worlds.
    """

    pdr_min: float
    quantile: float
    status: str  # "optimal" | "infeasible"
    termination_reason: str
    #: ResilienceRecord of the winner (None when infeasible).
    best: Optional[object]
    iterations: List[RobustIterationRecord] = field(default_factory=list)
    simulations_run: int = 0
    milp_solves: int = 0
    wall_seconds: float = 0.0
    oracle_stats: Optional[dict] = None

    @property
    def found(self) -> bool:
        return self.best is not None

    def summary(self) -> str:
        if self.best is None:
            return (
                f"{_pdr_min_label(self.pdr_min)} @q={self.quantile:.2f}: "
                f"infeasible ({self.simulations_run} simulations)"
            )
        b = self.best
        return (
            f"{_pdr_min_label(self.pdr_min)} @q={self.quantile:.2f}: "
            f"{b.config.label()}  "
            f"healthy PDR={100 * b.healthy.pdr:.1f}%  "
            f"q-PDR={100 * b.pdr_quantile(self.quantile):.1f}%  "
            f"NLT={b.healthy.nlt_days:.1f} days  "
            f"({self.simulations_run} simulations, "
            f"{len(self.iterations)} iterations)"
        )

    def to_dict(self) -> dict:
        return {
            "pdr_min": self.pdr_min,
            "quantile": self.quantile,
            "status": self.status,
            "termination_reason": self.termination_reason,
            "simulations_run": self.simulations_run,
            "milp_solves": self.milp_solves,
            "wall_seconds": self.wall_seconds,
            "oracle_stats": self.oracle_stats,
            "best": self.best.to_dict() if self.best is not None else None,
            "iterations": [
                {
                    "index": it.index,
                    "analytic_power_mw": it.analytic_power_mw,
                    "num_candidates": len(it.records),
                    "num_feasible": len(it.feasible),
                    "incumbent_power_mw": (
                        it.incumbent_power_mw
                        if it.incumbent_power_mw != math.inf
                        else None
                    ),
                    "records": [r.to_dict() for r in it.records],
                }
                for it in self.iterations
            ],
        }


@dataclass(frozen=True)
class _AcceptRule:
    """What one kind of Algorithm 1 run means by "accepted".

    :meth:`HumanIntranetExplorer._walk` is the same loop for every kind of
    run; a rule holds, as data, only what differs between kinds.  A
    record is accepted when its ``score`` meets PDR_min less the
    tolerance.  Every record the walk sees offers ``config`` and
    ``power_mw`` (the objective).
    """

    #: Prefix of every ``explorer.*`` milestone the run emits.
    prefix: str
    #: record -> the PDR tested against PDR_min.
    score: Callable[[Any], float]
    #: Name of the score in incumbent events.
    score_field: str
    #: (record, score) -> the candidate event's verdict fields.
    fields: Callable[[Any, float], dict]
    accept_reason: str
    reject_reason: str
    #: ``RunJournal`` methods that stage a resumed prefix into the oracle
    #: and record one candidate verdict.
    preload: str
    journal_call: str
    #: (candidates, records, **shared fields) -> the iteration record.
    iteration: Callable[..., Any]


#: The paper's test: the candidate's own PDR meets PDR_min.
_POINT_PDR = _AcceptRule(
    prefix="explorer.",
    score=lambda e: e.pdr,
    score_field="pdr",
    fields=lambda e, pdr: {"pdr": pdr, "power_mw": e.power_mw},
    accept_reason="meets_pdr_min",
    reject_reason="pdr_below_min",
    preload="preload_into",
    journal_call="candidate",
    iteration=lambda candidates, records, **shared: IterationRecord(
        candidates=list(candidates), evaluations=records, **shared
    ),
)


def _quantile_rule(quantile: float) -> _AcceptRule:
    """The chance constraint: the lower ``quantile`` of the candidate's
    PDR over a fault ensemble meets PDR_min."""
    return _AcceptRule(
        prefix="explorer.robust_",
        score=lambda r: r.pdr_quantile(quantile),
        score_field="q_pdr",
        fields=lambda r, q_pdr: {
            "healthy_pdr": r.healthy.pdr,
            "q_pdr": q_pdr,
            "pdr_min_fault": r.pdr_min_fault,
            "power_mw": r.power_mw,
        },
        accept_reason="meets_quantile_pdr",
        reject_reason="quantile_pdr_below_min",
        preload="preload_robust_into",
        journal_call="robust_candidate",
        iteration=lambda candidates, records, **shared: RobustIterationRecord(
            records=list(records), **shared
        ),
    )


class HumanIntranetExplorer:
    """Algorithm 1.

    Parameters
    ----------
    problem:
        The mapping problem P (scenario + design space + PDR_min).
    oracle:
        Simulation oracle; pass a shared one to reuse cached evaluations
        across runs at different PDR_min values (the paper's Fig. 3 setup).
    max_iterations:
        Safety valve; the design example converges in a handful.
    candidate_cap:
        Optional cap S on the number of MILP optima simulated per
        iteration (ablation A3 in DESIGN.md).  ``None`` simulates the full
        optimum set.
    pdr_tolerance:
        Slack subtracted from PDR_min when testing feasibility, absorbing
        finite-horizon estimator noise (paper: ε-bounded estimates).
    obs:
        Observability bundle.  Defaults to the oracle's, so a traced
        oracle automatically yields a traced explorer; the explorer emits
        one ``explorer.*`` event per iteration milestone (candidate
        verdicts, incumbent updates, cuts, termination) — the sequence
        asserted by the golden-trace regression test.
    """

    def __init__(
        self,
        problem: DesignProblem,
        oracle: Optional[SimulationOracle] = None,
        max_iterations: int = 200,
        candidate_cap: Optional[int] = None,
        pdr_tolerance: float = 0.0,
        milp_max_solutions: int = 256,
        use_alpha: bool = True,
        alpha_slack: float = 1.0,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.problem = problem
        self.oracle = oracle or SimulationOracle(problem.scenario, obs=obs)
        self.obs = obs if obs is not None else self.oracle.obs
        self.max_iterations = max_iterations
        self.candidate_cap = candidate_cap
        self.pdr_tolerance = pdr_tolerance
        # Enumerating more optima than will be simulated is wasted MILP
        # work; align the pool with the cap when one is set.
        if candidate_cap is not None:
            milp_max_solutions = min(milp_max_solutions, candidate_cap)
        self.milp_max_solutions = milp_max_solutions
        #: When False, the termination test uses the raw P̄* instead of the
        #: α-corrected bound (ablation A2) and may terminate prematurely —
        #: kept as a switch precisely so the ablation can measure the
        #: damage.
        self.use_alpha = use_alpha
        #: Multiplier on the α bound's radio term (1.0 = the paper's α).
        #: A smaller slack terminates later, but no constant one is a
        #: certified bound against Eq. 5's measured bias (as low as 0.69
        #: for star and 0.15 for mesh; see CoarsePowerModel).
        self.alpha_slack = alpha_slack
        self.formulation = MilpFormulation(problem, obs=self.obs)

    def explore(
        self, exhaustive: bool = False, journal=None
    ) -> ExplorationResult:
        """Run Algorithm 1 (or the exhaustive sweep variant).

        ``journal`` is an optional :class:`repro.core.journal.RunJournal`
        (duck-typed).  When present, every candidate verdict and every
        cut is recorded as the loop advances — and, on a resumed journal,
        its recorded evaluations are preloaded into the oracle so the
        replayed prefix re-simulates nothing while reproducing the exact
        same trajectory, counters, and trace (DESIGN.md §9).
        """
        return ExplorationResult(
            **self._walk(
                _POINT_PDR, self.oracle, journal, {"exhaustive": exhaustive},
                exhaustive=exhaustive,
            )
        )

    # -- convenience ------------------------------------------------------------

    def sweep(self) -> ExplorationResult:
        """Exhaustive MILP-ordered sweep of the whole feasible space."""
        return self.explore(exhaustive=True)

    # -- chance-constrained (robust) exploration ---------------------------------

    def explore_robust(
        self,
        ensemble_oracle,
        quantile: float = 0.25,
        journal=None,
    ) -> RobustExplorationResult:
        """Algorithm 1 with a chance-constrained accept test.

        ``ensemble_oracle`` is duck-typed (an
        :class:`repro.faults.resilience.EnsembleOracle`): it must offer
        ``evaluate_many(configs) -> [ResilienceRecord]``,
        ``simulations_run`` and ``stats()``.
        A candidate is feasible when the lower ``quantile`` of its PDR
        over the fault ensemble meets PDR_min — i.e. the reliability
        bound holds in at least a (1 − quantile) fraction of fault
        worlds.  The objective and the α-corrected termination bound stay
        on *healthy* power: faults do not reduce any candidate's healthy
        power, so the bound argument of line 5 carries over unchanged,
        and the cut sequence is the same ascending analytical-power walk.

        ``journal`` works as in :meth:`explore`, with per-fault-world
        records journaled per candidate and preloaded into the ensemble
        oracle's sub-oracles on resume.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        return RobustExplorationResult(
            quantile=quantile,
            **self._walk(
                _quantile_rule(quantile), ensemble_oracle, journal,
                {"quantile": quantile},
            ),
        )

    # -- the walk both share -----------------------------------------------------

    def _walk(
        self,
        rule: _AcceptRule,
        oracle,
        journal,
        start_fields: dict,
        exhaustive: bool = False,
    ) -> dict:
        """Algorithm 1's loop over P̃'s power levels, accepting by ``rule``.

        ``oracle`` evaluates configurations into the records ``rule``
        scores (anything with ``evaluate_many``, ``simulations_run`` and
        ``stats()``).  ``start_fields`` go into the start event after
        ``pdr_min``.  Returns the fields shared by both result types.
        """
        start = time.perf_counter()
        if journal is not None:
            getattr(journal, rule.preload)(oracle)
        power_model = self.problem.scenario.power_model()
        pdr_min = self.problem.pdr_min
        threshold = pdr_min - self.pdr_tolerance
        obs = self.obs
        event = rule.prefix
        obs.event(
            event + "start",
            pdr_min=pdr_min,
            **start_fields,
            candidate_cap=self.candidate_cap,
            use_alpha=self.use_alpha,
        )

        cuts: List[float] = []
        incumbent = None
        p_min = math.inf
        iterations: List = []
        milp_solves = 0
        sims_before = oracle.simulations_run
        termination = "max_iterations"

        for index in range(self.max_iterations):
            status, candidates, p_star = self.formulation.enumerate_candidates(
                cuts, max_solutions=self.milp_max_solutions
            )
            milp_solves += 1
            if status is SolveStatus.INFEASIBLE or not candidates:
                termination = (
                    "milp_exhausted" if incumbent is not None else "milp_infeasible"
                )
                break
            if status is not SolveStatus.OPTIMAL:
                raise RuntimeError(f"unexpected MILP status {status}")
            assert p_star is not None
            obs.event(
                event + "iteration",
                iteration=index,
                p_star_mw=p_star,
                num_candidates=len(candidates),
            )

            # Line 5: the α-corrected bound.  P̄*/α equals the least
            # simulated power any candidate at this or a higher analytical
            # level could exhibit while still meeting PDR_min.
            if not exhaustive and incumbent is not None:
                if self.use_alpha:
                    bound = power_model.power_lower_bound_mw(
                        p_star, pdr_min, self.alpha_slack
                    )
                else:
                    bound = p_star
                if bound > p_min:
                    termination = "alpha_bound"
                    obs.event(
                        event + "bound",
                        iteration=index,
                        bound_mw=bound,
                        incumbent_power_mw=p_min,
                    )
                    break

            if self.candidate_cap is not None:
                candidates = candidates[: self.candidate_cap]

            records = oracle.evaluate_many(candidates)
            scores = [rule.score(r) for r in records]
            verdicts = [score >= threshold for score in scores]
            feasible = [r for r, ok in zip(records, verdicts) if ok]
            if journal is not None:
                record_verdict = getattr(journal, rule.journal_call)
                for r, ok in zip(records, verdicts):
                    record_verdict(r, ok)
            if obs.tracing:
                for r, score, ok in zip(records, scores, verdicts):
                    obs.event(
                        event + "candidate",
                        iteration=index,
                        config=r.config.label(),
                        **rule.fields(r, score),
                        accepted=ok,
                        reason=rule.accept_reason if ok else rule.reject_reason,
                    )
            feasible.sort(key=lambda r: (r.power_mw, r.config.key()))
            if feasible and feasible[0].power_mw <= p_min:
                incumbent = feasible[0]
                p_min = incumbent.power_mw
                obs.event(
                    event + "incumbent",
                    iteration=index,
                    config=incumbent.config.label(),
                    power_mw=p_min,
                    **{rule.score_field: rule.score(incumbent)},
                )

            iterations.append(
                rule.iteration(
                    candidates,
                    records,
                    index=index,
                    analytic_power_mw=p_star,
                    feasible=feasible,
                    incumbent_power_mw=p_min,
                    incumbent=incumbent.config if incumbent else None,
                )
            )

            # In the paper the loop exits via line 5 at the *next* MILP
            # solve; with the default α model a feasible incumbent at the
            # current level always certifies optimality there, which is why
            # the paper observes termination "soon after the first feasible
            # configuration was found".
            cuts.append(p_star)
            if journal is not None:
                journal.cut(p_star)
            obs.event(event + "cut", iteration=index, p_star_mw=p_star)

        wall = time.perf_counter() - start
        status = "optimal" if incumbent is not None else "infeasible"
        simulations = oracle.simulations_run - sims_before
        obs.counter(event + "runs").inc()
        obs.counter(event + "iterations").inc(len(iterations))
        obs.event(
            event + "done",
            status=status,
            termination=termination,
            best=incumbent.config.label() if incumbent else None,
            best_power_mw=p_min if incumbent is not None else None,
            iterations=len(iterations),
            milp_solves=milp_solves,
            simulations=simulations,
        )
        return dict(
            pdr_min=pdr_min,
            status=status,
            termination_reason=termination,
            best=incumbent,
            iterations=iterations,
            simulations_run=simulations,
            milp_solves=milp_solves,
            wall_seconds=wall,
            oracle_stats=oracle.stats(),
        )

    # -- the dual problem -----------------------------------------------------------

    def explore_max_reliability(
        self,
        min_lifetime_days: float,
        power_slack: float = 0.7,
    ) -> "DualExplorationResult":
        """The dual of Problem (8): maximize PDR subject to NLT ≥ bound.

        The paper motivates both directions ("for an everyday ... monitoring
        application, achieving the longest possible battery lifetime is
        preferred"; "when a safety-critical node ... is part of the
        network, reliability becomes of utmost importance") but evaluates
        only the lifetime-primal form.  The dual reuses the same machinery
        mirrored: the lifetime bound maps to a power budget
        P_max = E_bat / NLT_min; the MILP enumerates power levels
        ascending, and every level with P_bl + slack·(P̄ − P_bl) ≤ P_max
        contributes its candidate pool.  The slack is a heuristic, not a
        certified bound: simulated radio power has measured as low as
        0.69 × Eq. 5 on star routing and 0.15 × on mesh (see
        CoarsePowerModel), so a deeper level could still hold a candidate
        within the budget.  The answer is the highest-PDR candidate whose
        *simulated* power meets the budget (ties broken toward lower
        power).
        """
        if not 0 < min_lifetime_days < math.inf:
            raise ValueError("lifetime bound must be positive and finite")
        start = time.perf_counter()
        battery = self.problem.scenario.battery
        baseline = self.problem.scenario.app.baseline_mw
        max_power_mw = battery.energy_mwh / (min_lifetime_days * 24.0)
        sims_before = self.oracle.simulations_run

        self.obs.event(
            "explorer.dual_start",
            min_lifetime_days=min_lifetime_days,
            max_power_mw=max_power_mw,
        )
        cuts: List[float] = []
        evaluations: List[EvaluationRecord] = []
        milp_solves = 0
        while True:
            status, candidates, p_star = self.formulation.enumerate_candidates(
                cuts, max_solutions=self.milp_max_solutions
            )
            milp_solves += 1
            if status is SolveStatus.INFEASIBLE or not candidates:
                break
            assert p_star is not None
            optimistic = baseline + power_slack * (p_star - baseline)
            if optimistic > max_power_mw:
                break  # no deeper level can simulate within the budget
            if self.candidate_cap is not None:
                candidates = candidates[: self.candidate_cap]
            self.obs.event(
                "explorer.dual_level",
                p_star_mw=p_star,
                num_candidates=len(candidates),
            )
            evaluations.extend(self.oracle.evaluate_many(candidates))
            cuts.append(p_star)

        within_budget = [
            e for e in evaluations if e.power_mw <= max_power_mw + 1e-12
        ]
        best = (
            max(within_budget, key=lambda e: (e.pdr, -e.power_mw))
            if within_budget
            else None
        )
        self.obs.event(
            "explorer.dual_done",
            best=best.config.label() if best else None,
            best_pdr=best.pdr if best else None,
            evaluated=len(evaluations),
            within_budget=len(within_budget),
        )
        return DualExplorationResult(
            min_lifetime_days=min_lifetime_days,
            max_power_mw=max_power_mw,
            best=best,
            evaluations=evaluations,
            simulations_run=self.oracle.simulations_run - sims_before,
            milp_solves=milp_solves,
            wall_seconds=time.perf_counter() - start,
        )


@dataclass
class DualExplorationResult:
    """Outcome of the reliability-maximizing dual exploration."""

    min_lifetime_days: float
    max_power_mw: float
    best: Optional[EvaluationRecord]
    evaluations: List[EvaluationRecord] = field(default_factory=list)
    simulations_run: int = 0
    milp_solves: int = 0
    wall_seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.best is not None

    def summary(self) -> str:
        if self.best is None:
            return (
                f"NLTmin={self.min_lifetime_days:.1f} d: infeasible "
                f"({self.simulations_run} simulations)"
            )
        b = self.best
        return (
            f"NLTmin={self.min_lifetime_days:.1f} d: {b.config.label()}  "
            f"PDR={b.pdr_percent:.1f}%  NLT={b.nlt_days:.1f} days  "
            f"({self.simulations_run} simulations)"
        )
