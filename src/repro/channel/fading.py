"""Temporal variation of the body channel: δPL(t) in Eq. 1.

The paper models the instantaneous path loss as
``PL(i,j,t) = PL̄(i,j) + δPL(i,j,t)`` where the density of ``δPL(t)``
depends on the previously observed value ``δPL(t−Δt)`` and on the elapsed
time ``Δt`` — if little time has passed the channel has not changed much
(Smith et al.'s conditional-probability link model).  The empirical
densities are not distributable, so we use the canonical continuous-time
process with exactly that conditional structure: a stationary
Ornstein-Uhlenbeck (OU) process in dB,

    δPL(t) | δPL(t−Δt) = v  ~  Normal( v·ρ,  σ²·(1 − ρ²) ),
    ρ = exp(−Δt/τ)

whose stationary distribution is Normal(0, σ²).  σ controls fade depth
(default 6 dB — deep fades of 12–18 dB occur with realistic probability)
and τ the coherence time of body-movement shadowing (default 1.0 s, so
consecutive 100 ms packets see correlated channels while packets seconds
apart are nearly independent).

Fades are clipped at ±``clip_db`` to keep extreme tail draws physical.
Each unordered link pair carries an independent process with its own RNG
stream; the channel is reciprocal (δPL(i,j) = δPL(j,i)) as in narrowband
on-body measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.des.rng import RngStreams


@dataclass(frozen=True)
class FadingParameters:
    """Temporal-variation parameters: OU fading plus node shadowing.

    The OU component models fast, link-independent multipath variation.
    The *node shadowing* component models the dominant on-body outage
    mechanism measured in WBAN campaigns: a posture change (arm behind the
    back, lying on a sensor) occludes one node's antenna from the whole
    network for on the order of a second, attenuating **all** of that
    node's links simultaneously.  This correlated outage is what limits
    mesh redundancy in practice — without it, two disjoint relay paths
    would virtually never fail together and every mesh configuration would
    measure a perfect PDR, contrary to the paper's Fig. 3.

    Shadowing is a two-state continuous-time Markov chain per node:
    occluded a ``shadow_fraction`` of the time in episodes of mean length
    ``shadow_dwell_s``, adding ``shadow_depth_db`` to every link of the
    affected node while active.
    """

    sigma_db: float = 6.0
    coherence_time_s: float = 1.0
    clip_db: float = 25.0
    shadow_fraction: float = 0.05
    shadow_dwell_s: float = 1.2
    shadow_depth_db: float = 16.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("sigma must be non-negative")
        if self.coherence_time_s <= 0:
            raise ValueError("coherence time must be positive")
        if self.clip_db <= 0:
            raise ValueError("clip must be positive")
        if not 0.0 <= self.shadow_fraction < 1.0:
            raise ValueError("shadow fraction must lie in [0, 1)")
        if self.shadow_dwell_s <= 0:
            raise ValueError("shadow dwell must be positive")
        if self.shadow_depth_db < 0:
            raise ValueError("shadow depth cannot be negative")


class OrnsteinUhlenbeckFading:
    """Per-link OU fading with lazy conditional sampling.

    The process is only sampled when a link is actually used, at the times
    packets traverse it; the conditional update is exact for any Δt, so
    irregular sampling (bursty traffic, idle periods) is handled without
    discretization error.
    """

    def __init__(self, params: FadingParameters, rng: RngStreams) -> None:
        self.params = params
        self.rng = rng
        # Per-link state: [draws, last_time, last_value], where draws is
        # the link stream's RawDraws chunk.  The chunk lives in the state
        # record so the hot path never pays the f-string + registry lookup
        # again after a link's first use, but it belongs to the stream: a
        # reset drops the record, never the prefetched draws.  A list
        # (not a tuple) so updates are in place.
        self._state: Dict[Tuple[int, int], list] = {}
        # Hot-path constants hoisted out of the frozen-dataclass attribute
        # chain (sample() runs once per link per transmission).
        self._sigma = params.sigma_db
        self._clip_limit = params.clip_db
        self._tau = params.coherence_time_s

    def sample(self, i: int, j: int, t: float) -> float:
        """Draw δPL(i,j,t) in dB, conditioned on the link's history.

        Queries must be non-decreasing in time per link (the simulator only
        moves forward); a repeated query at the same time returns the same
        value, so both endpoints of one transmission see one channel.
        """
        key = (i, j) if i <= j else (j, i)
        state = self._state.get(key)
        sigma = self._sigma
        if state is None:
            draws = self.rng.normals(f"fading/{key[0]}-{key[1]}")
            # numpy's normal(0, σ) is 0.0 + σ·z, computed on the same z.
            value = 0.0 + sigma * draws.take() if sigma > 0 else 0.0
            value = _clip(value, self._clip_limit)
            self._state[key] = [draws, t, value]
            return value
        last_t = state[1]
        dt = t - last_t
        if dt <= 0.0:
            if dt < -1e-12:
                raise ValueError(
                    f"fading sampled backwards in time on link {key}: "
                    f"{t} < {last_t}"
                )
            return state[2]
        if sigma == 0:
            value = 0.0
        else:
            rho = math.exp(-dt / self._tau)
            mean = state[2] * rho
            std = sigma * math.sqrt(max(0.0, 1.0 - rho * rho))
            # numpy's scalar normal(mean, std) is exactly
            # mean + std*standard_normal() (same draw, same IEEE ops).
            value = mean + std * state[0].take()
            limit = self._clip_limit
            if value > limit:
                value = limit
            elif value < -limit:
                value = -limit
        state[1] = t
        state[2] = value
        return value

    def peek(self, i: int, j: int) -> float:
        """Last sampled value without advancing the process (0 if unused)."""
        key = (i, j) if i <= j else (j, i)
        state = self._state.get(key)
        return 0.0 if state is None else state[2]

    def reset(self) -> None:
        """Forget all link histories (used between replicate runs)."""
        self._state.clear()


class NodeShadowing:
    """Per-node two-state occlusion process (see FadingParameters).

    The chain has stationary occluded probability π = ``shadow_fraction``
    and mean occluded dwell τ_on = ``shadow_dwell_s``; with exit rate
    b = 1/τ_on and entry rate a = b·π/(1−π), the exact transition
    probabilities over any elapsed Δt are

        P(on | was on)  = π + (1−π)·e^{−(a+b)Δt}
        P(on | was off) = π·(1 − e^{−(a+b)Δt})

    which allows the same lazy, irregular sampling as the OU process.
    """

    def __init__(self, params: FadingParameters, rng: RngStreams) -> None:
        self.params = params
        self.rng = rng
        # Per-node state: [draws, last_time, occluded?] — the node
        # stream's chunk, cached as in OrnsteinUhlenbeckFading.
        self._state: Dict[int, list] = {}
        p = params
        if p.shadow_fraction > 0:
            self._exit_rate = 1.0 / p.shadow_dwell_s
            self._entry_rate = self._exit_rate * p.shadow_fraction / (
                1.0 - p.shadow_fraction
            )
            self._relax = self._exit_rate + self._entry_rate
        else:
            self._exit_rate = self._entry_rate = self._relax = 0.0
        # Hot-path constants (is_occluded runs twice per link sample).
        self._pi = p.shadow_fraction
        self._enabled = p.shadow_fraction > 0 and p.shadow_depth_db > 0

    def is_occluded(self, node: int, t: float) -> bool:
        """Sample the node's occlusion state at time t (non-decreasing per
        node; repeated queries at the same time agree)."""
        if not self._enabled:
            return False
        state = self._state.get(node)
        pi = self._pi
        if state is None:
            draws = self.rng.uniforms(f"shadow/{node}")
            occluded = draws.take() < pi
            self._state[node] = [draws, t, occluded]
            return occluded
        dt = t - state[1]
        if dt <= 0.0:
            if dt < -1e-12:
                raise ValueError(
                    f"shadowing sampled backwards in time for node {node}"
                )
            return state[2]
        decay = math.exp(-self._relax * dt)
        if state[2]:
            p_on = pi + (1.0 - pi) * decay
        else:
            p_on = pi * (1.0 - decay)
        occluded = state[0].take() < p_on
        state[1] = t
        state[2] = occluded
        return occluded

    def extra_loss_db(self, i: int, j: int, t: float) -> float:
        """Additional path loss on link (i, j) from either endpoint being
        occluded at time t."""
        depth = self.params.shadow_depth_db
        if depth <= 0:
            return 0.0
        loss = 0.0
        if self.is_occluded(i, t):
            loss += depth
        if self.is_occluded(j, t):
            loss += depth
        return loss

    def reset(self) -> None:
        self._state.clear()


def _clip(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))
