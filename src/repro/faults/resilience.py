"""Ensemble resilience evaluation: one configuration, many fault worlds.

:class:`EnsembleOracle` evaluates a candidate configuration under the
healthy scenario *and* under every member of a fault-scenario ensemble,
reducing the results to a :class:`ResilienceRecord`:

* **PDR under fault** — min / mean / lower-quantile of the network PDR
  across the ensemble.  The quantile feeds the chance-constrained accept
  test of :meth:`repro.core.explorer.HumanIntranetExplorer.explore_robust`
  (``quantile_q(PDR) ≥ PDR_min`` ⇒ at least a (1−q) fraction of fault
  worlds meets the reliability bound).
* **Recovery time** — per recoverable scenario, how long after the last
  applicable fault clears the time-resolved PDR climbs back to within a
  tolerance of the healthy PDR.
* **Lifetime degradation** — fractional network-lifetime loss of the
  worst fault world relative to healthy operation.

Execution reuses the whole oracle stack: one
:class:`repro.core.evaluator.SimulationOracle` per (scenario, fault
scenario) pair, all sharing a single :class:`repro.core.parallel.WorkerPool`
and one metrics registry.  Misses across the ensemble are fanned out over
the pool in a single ordered batch, with one scalar simulation per
distinct (configuration, effective fault world): a world whose faults
all miss the placement reuses the configuration's healthy run.  Every
sub-oracle keeps its own persistent cache file (the fault scenario is
part of the scenario fingerprint), so a warm cache replays a whole
campaign with zero new simulations — bit-identically at any ``--jobs``
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import batch_unsupported_reason, evaluate_batch
from repro.core.design_space import Configuration
from repro.core.evaluator import EvaluationRecord, SimulationOracle
from repro.core.parallel import WorkerPool, evaluate_configuration_task
from repro.core.problem import ScenarioParameters
from repro.faults.model import FaultScenario, FaultSpec
from repro.net.network import SimulationOutcome
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Instrumentation, get_active

#: How close (in absolute PDR) the time-resolved delivery ratio must get
#: to the healthy PDR to count as "recovered".
RECOVERY_TOLERANCE = 0.05

#: Default chance-constraint quantile: the accept test holds in at least
#: 75% of fault worlds.
DEFAULT_QUANTILE = 0.25


def pdr_quantile(values: Sequence[float], q: float) -> float:
    """Lower nearest-rank quantile (deterministic, no interpolation).

    ``q = 0`` is the minimum, ``q = 1`` the maximum; the result is always
    one of ``values``, so the chance constraint is evaluated against an
    actually observed fault world rather than an interpolated fiction.
    """
    if not values:
        raise ValueError("quantile of an empty ensemble")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _copy_outcome(outcome: SimulationOutcome) -> SimulationOutcome:
    """An equal outcome owning its own dicts, so a shared run's records
    never alias each other's mutable fields."""
    return replace(
        outcome,
        node_pdrs=dict(outcome.node_pdrs),
        node_powers_mw=dict(outcome.node_powers_mw),
        totals=dict(outcome.totals),
    )


@dataclass(frozen=True)
class ResilienceRecord:
    """One configuration's healthy + under-fault evaluation results."""

    config: Configuration
    healthy: EvaluationRecord
    #: ``((fault_scenario, record), ...)`` in ensemble order.
    faulted: Tuple[Tuple[FaultScenario, EvaluationRecord], ...]
    recovery_tolerance: float = RECOVERY_TOLERANCE

    @property
    def power_mw(self) -> float:
        """Healthy power: the objective robust exploration minimizes."""
        return self.healthy.power_mw

    @property
    def fault_pdrs(self) -> Tuple[float, ...]:
        return tuple(record.pdr for _scenario, record in self.faulted)

    @property
    def pdr_min_fault(self) -> float:
        return min(self.fault_pdrs)

    @property
    def pdr_mean_fault(self) -> float:
        pdrs = self.fault_pdrs
        return sum(pdrs) / len(pdrs)

    def pdr_quantile(self, q: float) -> float:
        """Lower ``q``-quantile of PDR over the fault ensemble."""
        return pdr_quantile(self.fault_pdrs, q)

    # -- recovery ---------------------------------------------------------------

    def recovery_times_s(self) -> Dict[str, Optional[float]]:
        """Per-scenario recovery time after the last recoverable fault
        clears; ``None`` for scenarios with no recoverable fault on this
        placement or whose PDR never returns within tolerance."""
        out: Dict[str, Optional[float]] = {}
        target = self.healthy.pdr - self.recovery_tolerance
        for scenario, record in self.faulted:
            clear = scenario.clear_time_s(self.config.placement)
            if clear is None:
                out[scenario.name] = None
                continue
            recovered = None
            for t_end, ratio in record.outcome.windowed_pdr:
                if t_end <= clear:
                    continue
                if ratio is not None and ratio >= target:
                    recovered = t_end - clear
                    break
            out[scenario.name] = recovered
        return out

    @property
    def worst_recovery_s(self) -> Optional[float]:
        """Slowest measured recovery across the ensemble (``None`` when
        no scenario has a measurable recovery)."""
        measured = [t for t in self.recovery_times_s().values() if t is not None]
        return max(measured) if measured else None

    # -- lifetime ---------------------------------------------------------------

    @property
    def lifetime_degradation(self) -> float:
        """Fractional NLT loss of the worst fault world vs. healthy
        (0 = no loss, 0.5 = half the lifetime gone)."""
        if self.healthy.nlt_days <= 0:
            return 0.0
        worst = min(record.nlt_days for _s, record in self.faulted)
        return max(0.0, 1.0 - worst / self.healthy.nlt_days)

    def to_dict(self) -> dict:
        return {
            "config": self.config.label(),
            "healthy_pdr": self.healthy.pdr,
            "healthy_power_mw": self.healthy.power_mw,
            "healthy_nlt_days": self.healthy.nlt_days,
            "fault_pdrs": {
                scenario.name: record.pdr for scenario, record in self.faulted
            },
            "pdr_min_fault": self.pdr_min_fault,
            "pdr_mean_fault": self.pdr_mean_fault,
            "recovery_times_s": self.recovery_times_s(),
            "worst_recovery_s": self.worst_recovery_s,
            "lifetime_degradation": self.lifetime_degradation,
        }


class EnsembleOracle:
    """Resilience evaluator bound to one scenario and one fault ensemble.

    Parameters mirror :class:`~repro.core.evaluator.SimulationOracle`; the
    ensemble is a sequence of :class:`FaultScenario`.  The base scenario's
    own ``fault_scenario`` field must be ``None`` — the ensemble defines
    the fault worlds.
    """

    def __init__(
        self,
        scenario: ScenarioParameters,
        ensemble: Sequence[FaultScenario],
        n_jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        obs: Optional[Instrumentation] = None,
        recovery_tolerance: float = RECOVERY_TOLERANCE,
    ) -> None:
        if scenario.fault_scenario is not None:
            raise ValueError(
                "the base scenario must be healthy; the ensemble supplies "
                "the fault scenarios"
            )
        ensemble = tuple(ensemble)
        if not ensemble:
            raise ValueError("the fault ensemble cannot be empty")
        names = [fs.name for fs in ensemble]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in ensemble: {names}")
        self.scenario = scenario
        self.ensemble = ensemble
        self.recovery_tolerance = recovery_tolerance
        requested = n_jobs if n_jobs is not None else getattr(scenario, "n_jobs", 1)
        self._pool = WorkerPool(requested)
        self.n_jobs = self._pool.n_jobs
        # One shared registry: every sub-oracle feeds the same `oracle.*`
        # instruments, so stats() aggregates for free.
        self.obs = obs if obs is not None else Instrumentation(
            MetricsRegistry(), get_active().tracer
        )
        kwargs = dict(cache_dir=cache_dir, obs=self.obs, pool=self._pool)
        self._oracles: List[SimulationOracle] = [
            SimulationOracle(scenario, **kwargs)
        ]
        for fault_scenario in ensemble:
            self._oracles.append(
                SimulationOracle(
                    replace(scenario, fault_scenario=fault_scenario), **kwargs
                )
            )
        self._c_elapsed = self.obs.counter("oracle.elapsed_seconds")
        self._c_evals = self.obs.counter("faults.ensemble_evaluations")
        #: Scalar cells answered by another cell's run (same config, same
        #: effective fault world) instead of a simulation of their own.
        self._c_shared = self.obs.counter("oracle.shared_evaluations")

    @property
    def healthy_oracle(self) -> SimulationOracle:
        return self._oracles[0]

    @property
    def simulations_run(self) -> int:
        """Simulations across every fault world: the sub-oracles share
        one metrics registry, so any one of them counts them all."""
        return self.healthy_oracle.simulations_run

    # -- journal replay (checkpoint/resume, DESIGN.md §9) ------------------------

    def preload_journal(self, payloads: Sequence[dict]) -> None:
        """Stage journaled robust candidates into the sub-oracles.

        Each payload is one ``robust_candidate`` journal entry: a healthy
        record plus per-fault-world records keyed by scenario name.  Each
        record is routed to the sub-oracle owning that fault world, where
        its first request is adopted as-if-simulated (see
        :meth:`SimulationOracle.preload_journal`), so a resumed robust
        run replays the journaled prefix with zero re-simulation.
        Payloads naming fault worlds outside this ensemble are rejected —
        that is a journal/arguments mismatch, not recoverable drift.
        """
        from repro.core.result_cache import record_from_dict

        by_name = {
            fs.name: self._oracles[oi + 1]
            for oi, fs in enumerate(self.ensemble)
        }
        healthy_records = []
        world_records: Dict[str, List[EvaluationRecord]] = {
            name: [] for name in by_name
        }
        for payload in payloads:
            healthy_records.append(record_from_dict(payload["healthy"]))
            for name, record_dict in payload["faulted"]:
                if name not in world_records:
                    raise ValueError(
                        f"journaled fault world {name!r} is not in this "
                        f"ensemble ({sorted(by_name)}); the journal "
                        "belongs to a different campaign"
                    )
                world_records[name].append(record_from_dict(record_dict))
        self.healthy_oracle.preload_journal(healthy_records)
        for name, oracle in by_name.items():
            oracle.preload_journal(world_records[name])

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, config: Configuration) -> ResilienceRecord:
        return self.evaluate_many([config])[0]

    def evaluate_many(
        self, configs: Sequence[Configuration]
    ) -> List[ResilienceRecord]:
        """Evaluate each configuration across the whole ensemble.

        All cache misses — across configurations *and* fault worlds — are
        dispatched to the shared pool as one ordered batch, then handed
        back to the owning sub-oracle for storage.  Because every task's
        outcome is a pure function of its configuration and effective
        fault world, the result is bit-identical to the serial loop at any
        worker count.
        """
        configs = list(configs)
        with self.obs.span(
            "faults.ensemble_evaluate",
            n=len(configs),
            scenarios=len(self.ensemble),
        ):
            grid: Dict[Tuple[int, int], EvaluationRecord] = {}
            pending: List[Tuple[int, int]] = []
            for ci, config in enumerate(configs):
                for oi, oracle in enumerate(self._oracles):
                    record = oracle.lookup(config)
                    if record is None:
                        pending.append((ci, oi))
                    else:
                        grid[(ci, oi)] = record
            if pending and getattr(self.scenario, "batch_mode", "auto") != "off":
                pending = self._dispatch_batched(configs, pending, grid)
            if pending:
                self._dispatch_scalar(configs, pending, grid)

            records = []
            for ci, config in enumerate(configs):
                record = ResilienceRecord(
                    config=config,
                    healthy=grid[(ci, 0)],
                    faulted=tuple(
                        (fault_scenario, grid[(ci, oi + 1)])
                        for oi, fault_scenario in enumerate(self.ensemble)
                    ),
                    recovery_tolerance=self.recovery_tolerance,
                )
                records.append(record)
                self._c_evals.inc()
                if self.obs.tracing:
                    self.obs.event(
                        "faults.resilience",
                        config=config.label(),
                        healthy_pdr=record.healthy.pdr,
                        pdr_min_fault=record.pdr_min_fault,
                        pdr_mean_fault=record.pdr_mean_fault,
                        worst_recovery_s=record.worst_recovery_s,
                        lifetime_degradation=record.lifetime_degradation,
                    )
            return records

    # -- scalar dispatch (one DES run per effective world, DESIGN.md §7) ---------

    def _dispatch_scalar(
        self,
        configs: List[Configuration],
        pending: List[Tuple[int, int]],
        grid: Dict[Tuple[int, int], EvaluationRecord],
    ) -> None:
        """Evaluate ``(config, fault world)`` cells on the scalar path,
        one simulation per distinct ``(config, effective world)``.

        A cell's effective world is the tuple of its faults that apply to
        the placement (the healthy cell's is ``()``).  The network attaches
        and schedules exactly that tuple, so cells resolving to the same
        one would run the same simulation: the first runs, the rest share
        a copy of its outcome with a wall time of 0.0.  Every cell is
        still handed to its sub-oracle via ``record_outcome`` in
        ``pending`` order, so records, journals, disk caches, counters and
        trace milestones match one run per cell.
        """
        run_of: Dict[Tuple[int, Tuple[FaultSpec, ...]], int] = {}
        tasks = []
        cells = []
        for ci, oi in pending:
            effective = (
                () if oi == 0
                else self.ensemble[oi - 1].applicable(configs[ci].placement)
            )
            run = run_of.setdefault((ci, effective), len(tasks))
            shared = run < len(tasks)
            if not shared:
                tasks.append((self._oracles[oi].scenario, configs[ci]))
            cells.append((ci, oi, run, shared))
        start = time.perf_counter()
        results = self._pool.map_ordered(evaluate_configuration_task, tasks)
        self._c_elapsed.inc(time.perf_counter() - start)
        self.obs.counter("oracle.scalar_evaluations").inc(len(tasks))
        self._c_shared.inc(len(pending) - len(tasks))
        for ci, oi, run, shared in cells:
            outcome, wall = results[run]
            if shared:
                outcome, wall = _copy_outcome(outcome), 0.0
            grid[(ci, oi)] = self._oracles[oi].record_outcome(
                configs[ci], outcome, wall
            )

    # -- batched dispatch (repro.core.batch, DESIGN.md §10) ----------------------

    def _dispatch_batched(
        self,
        configs: List[Configuration],
        pending: List[Tuple[int, int]],
        grid: Dict[Tuple[int, int], EvaluationRecord],
    ) -> List[Tuple[int, int]]:
        """Evaluate batchable ``(config, fault world)`` cells through the
        batched kernel; returns the cells left for the pool.

        Configurations sharing a topology *and* missing the same world
        set merge into one kernel call — their lanes differ only in TX
        power and fault masks, exactly the sharing the kernel exploits.
        Each produced outcome is handed to the sub-oracle owning its
        world via ``record_outcome``, so journal order, persistence, and
        counters match the pool path cell for cell.
        """
        mode = getattr(self.scenario, "batch_mode", "auto")
        min_lanes = 1 if mode == "on" else 2
        by_ci: Dict[int, List[int]] = {}
        for ci, oi in pending:
            by_ci.setdefault(ci, []).append(oi)
        merged: Dict[Tuple, List[int]] = {}
        leftovers: List[Tuple[int, int]] = []
        for ci, ois in by_ci.items():
            config = configs[ci]
            if batch_unsupported_reason(self.scenario, config) is not None:
                leftovers.extend((ci, oi) for oi in ois)
                continue
            key = (
                config.placement,
                config.mac,
                config.routing,
                tuple(sorted(ois)),
            )
            merged.setdefault(key, []).append(ci)
        for (_placement, _mac, _routing, ois), cis in merged.items():
            lanes = len(cis) * len(ois)
            if lanes < min_lanes:
                leftovers.extend((ci, oi) for ci in cis for oi in ois)
                continue
            worlds = [
                None if oi == 0 else self.ensemble[oi - 1] for oi in ois
            ]
            start = time.perf_counter()
            outcomes = evaluate_batch(
                self.scenario, [configs[ci] for ci in cis], worlds
            )
            wall = time.perf_counter() - start
            self._c_elapsed.inc(wall)
            self.obs.counter("oracle.batch_calls").inc()
            self.obs.counter("oracle.batched_evaluations").inc(lanes)
            self.obs.counter("oracle.batched_lanes").inc(
                lanes * self.scenario.replicates
            )
            share = wall / lanes
            for bi, ci in enumerate(cis):
                for wi, oi in enumerate(ois):
                    grid[(ci, oi)] = self._oracles[oi].record_outcome(
                        configs[ci], outcomes[(bi, wi)], share
                    )
            if self.obs.tracing:
                self.obs.event(
                    "oracle.batch",
                    configs=len(cis),
                    worlds=len(ois),
                    lanes=lanes,
                    wall_s=round(wall, 6),
                )
        return leftovers

    # -- telemetry / lifecycle ---------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate telemetry over all sub-oracles.  They share one
        metrics registry, so any sub-oracle's ``stats()`` already reports
        ensemble-wide totals; this adds the ensemble shape."""
        out = self.healthy_oracle.stats()
        out["ensemble_size"] = len(self.ensemble)
        out["ensemble_evaluations"] = int(self._c_evals.value)
        out["shared_evaluations"] = int(self._c_shared.value)
        out["n_jobs"] = self.n_jobs
        return out

    def close(self) -> None:
        """Shut down the shared pool (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "EnsembleOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
