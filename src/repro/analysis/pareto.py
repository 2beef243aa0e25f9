"""Pareto-front extraction over the lifetime/reliability trade-off.

The design problem (Eq. 8) optimizes lifetime under a reliability bound;
sweeping the bound traces the Pareto front of the bi-objective problem
(maximize NLT, maximize PDR).  This module extracts that front directly
from a set of evaluated configurations — the upper-right envelope of the
Figure 3 scatter — which is useful both for reporting and for validating
that Algorithm 1's per-bound optima actually lie on the front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.evaluator import EvaluationRecord


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the (NLT, PDR) front with its originating record."""

    nlt_days: float
    pdr: float
    record: EvaluationRecord

    @property
    def label(self) -> str:
        return self.record.config.label()


def dominates(a: EvaluationRecord, b: EvaluationRecord, tol: float = 1e-12) -> bool:
    """True when ``a`` is at least as good as ``b`` in both objectives and
    strictly better in at least one (maximizing NLT and PDR)."""
    ge_nlt = a.nlt_days >= b.nlt_days - tol
    ge_pdr = a.pdr >= b.pdr - tol
    gt_any = a.nlt_days > b.nlt_days + tol or a.pdr > b.pdr + tol
    return ge_nlt and ge_pdr and gt_any


def pareto_front(
    records: Iterable[EvaluationRecord], tol: float = 1e-12
) -> List[ParetoPoint]:
    """Non-dominated subset, sorted by descending lifetime.

    Standard sweep: sort by NLT descending (ties: PDR descending), then
    keep every record whose PDR strictly exceeds the best PDR seen so far.
    O(n log n); duplicate-objective records are collapsed to one point.

    Tolerances match :func:`dominates`: a record whose NLT is within
    ``tol`` of an earlier front member but whose PDR is higher *replaces*
    that member (they tie on lifetime, so the higher-PDR one dominates)
    — otherwise sub-``tol`` lifetime noise could seat two points on the
    front that ``dominates`` considers ordered.
    """
    pool: Sequence[EvaluationRecord] = sorted(
        records, key=lambda r: (-r.nlt_days, -r.pdr)
    )
    front: List[ParetoPoint] = []
    best_pdr = -1.0
    for record in pool:
        if record.pdr > best_pdr + tol:
            while front and front[-1].nlt_days <= record.nlt_days + tol:
                front.pop()  # lifetime tie with lower PDR: dominated
            front.append(
                ParetoPoint(nlt_days=record.nlt_days, pdr=record.pdr,
                            record=record)
            )
            best_pdr = record.pdr
    return front


@dataclass(frozen=True)
class _AtlasConfig:
    """Label-only stand-in for :class:`Configuration` on atlas points."""

    text: str

    def label(self) -> str:
        return self.text

    def key(self):
        return ("atlas", self.text)


@dataclass(frozen=True)
class AtlasRecord:
    """A record rebuilt from serialized campaign results (no outcome
    payload — just the two objectives plus identity), duck-compatible
    with :class:`EvaluationRecord` for the front sweep."""

    nlt_days: float
    pdr: float
    config: _AtlasConfig
    wearer_id: str = ""


def front_from_points(points: Iterable[dict], tol: float = 1e-12) -> List[ParetoPoint]:
    """Pareto front over plain-dict points (campaign aggregation path).

    Each point needs ``nlt_days``, ``pdr``, and ``label``; ``wearer_id``
    is carried through so fleet atlases can attribute every front point
    to the wearer whose design produced it.
    """
    records = [
        AtlasRecord(
            nlt_days=float(p["nlt_days"]),
            pdr=float(p["pdr"]),
            config=_AtlasConfig(str(p["label"])),
            wearer_id=str(p.get("wearer_id", "")),
        )
        for p in points
    ]
    return pareto_front(records, tol=tol)


def is_on_front(
    record: EvaluationRecord, records: Iterable[EvaluationRecord]
) -> bool:
    """Whether ``record`` is non-dominated within ``records``."""
    return not any(
        dominates(other, record)
        for other in records
        if other.config.key() != record.config.key()
    )


def front_summary(front: Sequence[ParetoPoint]) -> str:
    """Human-readable rendering of a front."""
    lines = [f"Pareto front ({len(front)} points):"]
    for point in front:
        lines.append(
            f"  NLT={point.nlt_days:6.1f} d  PDR={100 * point.pdr:6.2f}%  "
            f"{point.label}"
        )
    return "\n".join(lines)
