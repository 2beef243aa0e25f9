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
and one metrics registry, driven by the nominal oracle's own evaluation
path (:func:`repro.core.evaluator.evaluate_cells`) — a nominal run is an
ensemble of one world.  That path runs one simulation per distinct
(configuration, effective fault world), so a world whose faults all miss
the placement reuses the configuration's healthy run; every other world
branches off the healthy run just before its first fault, so each
configuration simulates its pre-fault prefix once per replicate.  It
commits each sub-oracle's cells in request order.  Every sub-oracle
keeps its own persistent cache file (the fault scenario is part of the
scenario fingerprint), so a warm cache replays a whole campaign with zero
new simulations — bit-identically at any ``--jobs`` count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.design_space import Configuration
from repro.core.evaluator import (
    EvaluationRecord,
    SimulationOracle,
    evaluate_cells,
)
from repro.core.parallel import WorkerPool
from repro.core.problem import ScenarioParameters
from repro.faults.model import FaultScenario
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
        self._c_evals = self.obs.counter("faults.ensemble_evaluations")
        #: Scalar cells answered by another cell's run (same config, same
        #: effective fault world) instead of a simulation of their own.
        self._c_shared = self.obs.counter("oracle.shared_evaluations")
        #: Scalar fault-world runs that started from a snapshot of the
        #: configuration's healthy run, paused before their first fault.
        self._c_branched = self.obs.counter("oracle.branched_evaluations")

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

        One :func:`repro.core.evaluator.evaluate_cells` call covers every
        ``(configuration, fault world)`` cell: misses across
        configurations *and* worlds share the batched kernel and the
        pool, and each sub-oracle commits its cells in request order, so
        the result is bit-identical to the one-at-a-time loop at any
        worker count.
        """
        configs = list(configs)
        with self.obs.span(
            "faults.ensemble_evaluate",
            n=len(configs),
            scenarios=len(self.ensemble),
        ):
            records = []
            cells = evaluate_cells(self._oracles, configs)
            for config, (healthy, *faulted) in zip(configs, cells):
                record = ResilienceRecord(
                    config=config,
                    healthy=healthy,
                    faulted=tuple(zip(self.ensemble, faulted)),
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

    # -- telemetry / lifecycle ---------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate telemetry over all sub-oracles.  They share one
        metrics registry, so any sub-oracle's ``stats()`` already reports
        ensemble-wide totals; this adds the ensemble shape."""
        out = self.healthy_oracle.stats()
        out["ensemble_size"] = len(self.ensemble)
        out["ensemble_evaluations"] = int(self._c_evals.value)
        out["shared_evaluations"] = int(self._c_shared.value)
        out["branched_evaluations"] = int(self._c_branched.value)
        out["n_jobs"] = self.n_jobs
        return out

    def close(self) -> None:
        """Shut down the shared pool (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "EnsembleOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
