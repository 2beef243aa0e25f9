"""ε-bounded performance estimation via sequential replication.

Sec. 2.2 of the paper: "the duration of a simulation run T_sim is selected
to guarantee that the error between (6) and the desired probability is
bounded by a positive tolerance ε", and Sec. 4 fixes T_sim = 600 s × 3
runs as sufficient for 0.5% relative error.  This module provides the
adaptive version of that protocol: keep adding independent replicates
until the confidence interval of the PDR estimate is narrower than the
tolerance (or a replicate budget runs out), reporting the achieved
half-width either way.

The stopping rule uses the normal approximation on the replicate means
with the t-distribution's small-sample correction, which is the standard
sequential procedure for terminating stochastic simulations (Law &
Kelton).  For bounded [0, 1] quantities like PDR this is conservative
enough at the 3-10 replicate scale the protocol operates at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class AdaptiveEstimate:
    """Result of a sequential estimation run."""

    mean: float
    half_width: float
    replicates: int
    converged: bool
    samples: List[float] = field(default_factory=list)

    @property
    def interval(self) -> tuple:
        return (self.mean - self.half_width, self.mean + self.half_width)


def interval_half_width(samples: List[float], confidence: float = 0.95) -> float:
    """Half-width of the t-distribution confidence interval on the mean.

    Public because the parallel replicate protocol
    (:mod:`repro.core.parallel`) applies the same stopping rule to sample
    *prefixes*: the replicate count the sequential procedure selects is the
    smallest ``n`` with ``interval_half_width(samples[:n]) <= epsilon``,
    which is how wave-dispatched parallel replication reproduces the serial
    result bit for bit.
    """
    n = len(samples)
    if n < 2:
        return math.inf
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    if var == 0.0:
        return 0.0
    # scipy is imported here, not at module top: campaign, serve and worker
    # processes import this module through campaign.aggregate and never
    # compute a quantile, and scipy.stats is most of their start-up.
    from scipy import stats as scipy_stats

    t = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
    return float(t * math.sqrt(var / n))


def estimate_pdr_with_tolerance(
    run_replicate: Callable[[int], float],
    epsilon: float = 0.005,
    confidence: float = 0.95,
    min_replicates: int = 2,
    max_replicates: int = 10,
) -> AdaptiveEstimate:
    """Estimate a PDR by adding replicates until the CI is ε-narrow.

    Parameters
    ----------
    run_replicate:
        Callable mapping a replicate index to one PDR observation (each
        index must use disjoint randomness — exactly what
        :class:`repro.des.rng.RngStreams` replicates provide).
    epsilon:
        Target half-width of the confidence interval (the paper's 0.5%
        relative error at PDR near 1 corresponds to ε = 0.005 absolute).
    confidence:
        Confidence level of the interval.
    min_replicates, max_replicates:
        Replication bounds; the paper's fixed protocol is 3 replicates,
        which this procedure reproduces when the estimator converges
        quickly and exceeds when it does not.

    Returns
    -------
    AdaptiveEstimate with ``converged`` False when the budget ran out
    before the tolerance was met.
    """
    if epsilon <= 0:
        raise ValueError("tolerance must be positive")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    if min_replicates < 2:
        raise ValueError("need at least two replicates for an interval")
    if max_replicates < min_replicates:
        raise ValueError("replicate budget below the minimum")

    samples: List[float] = []
    for index in range(max_replicates):
        samples.append(float(run_replicate(index)))
        if len(samples) < min_replicates:
            continue
        half = interval_half_width(samples, confidence)
        if half <= epsilon:
            return AdaptiveEstimate(
                mean=sum(samples) / len(samples),
                half_width=half,
                replicates=len(samples),
                converged=True,
                samples=samples,
            )
    return AdaptiveEstimate(
        mean=sum(samples) / len(samples),
        half_width=interval_half_width(samples, confidence),
        replicates=len(samples),
        converged=False,
        samples=samples,
    )


def replicates_needed(
    observed_std: float, epsilon: float, confidence: float = 0.95
) -> int:
    """Planning helper: replicates needed for a target half-width given an
    observed replicate standard deviation (normal approximation)."""
    if epsilon <= 0:
        raise ValueError("tolerance must be positive")
    if observed_std <= 0:
        return 2
    from scipy import stats as scipy_stats

    z = scipy_stats.norm.ppf(0.5 + confidence / 2.0)
    return max(2, math.ceil((z * observed_std / epsilon) ** 2))
