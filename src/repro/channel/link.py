"""The composite channel and the link-budget reception test.

:class:`Channel` is what the network stack talks to: it combines the mean
path-loss model and the temporal fading process into the instantaneous
``PL(i,j,t)`` of Eq. 1 and answers the two questions the PHY layer asks —
"at what power does a transmission from i arrive at j right now?" and "does
that close the link?" (Sec. 2.1.2: successful reception requires
``Tx_dBm ≥ Rx_sensitivity_dBm + PL(i,j,t)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.channel.fading import (
    FadingParameters,
    NodeShadowing,
    OrnsteinUhlenbeckFading,
)
from repro.channel.pathloss import MeanPathLossModel, PathLossParameters
from repro.channel.body import BodyModel, STANDARD_BODY
from repro.des.rng import RngStreams


@dataclass(frozen=True)
class LinkBudget:
    """Static link-budget summary for one (tx power, link) combination."""

    tx_power_dbm: float
    sensitivity_dbm: float
    mean_path_loss_db: float

    @property
    def margin_db(self) -> float:
        """Fading margin: how much extra loss the link tolerates on
        average before reception fails."""
        return self.tx_power_dbm - self.sensitivity_dbm - self.mean_path_loss_db

    @property
    def closes_on_average(self) -> bool:
        return self.margin_db >= 0.0


class Channel:
    """Instantaneous body-channel model shared by all nodes of a network.

    Parameters
    ----------
    body:
        Body geometry (defaults to the paper's ten locations).
    pathloss_params, fading_params:
        Model parameters; see the respective modules for calibration notes.
    rng:
        Random-stream factory for the fading processes.  Passing streams
        from the enclosing simulation run keeps replicates independent.
    measured:
        Optional per-pair mean path-loss overrides (measurement data).
    posture_params:
        Optional :class:`repro.channel.posture.PostureParameters`
        enabling minute-scale posture regimes on top of the fast fading
        (off by default — the calibrated Figure 3 channel excludes it).
    """

    def __init__(
        self,
        rng: RngStreams,
        body: Optional[BodyModel] = None,
        pathloss_params: Optional[PathLossParameters] = None,
        fading_params: Optional[FadingParameters] = None,
        measured=None,
        posture_params=None,
    ) -> None:
        self.body = body or STANDARD_BODY
        self.mean_model = MeanPathLossModel(self.body, pathloss_params, measured)
        params = fading_params or FadingParameters()
        self.fading = OrnsteinUhlenbeckFading(params, rng)
        self.shadowing = NodeShadowing(params, rng)
        if posture_params is not None:
            from repro.channel.posture import PostureProcess

            self.posture: Optional[PostureProcess] = PostureProcess(
                posture_params, rng
            )
        else:
            self.posture = None

    def path_loss(self, i: int, j: int, t: float) -> float:
        """Instantaneous path loss PL(i,j,t) in dB (Eq. 1): mean + OU
        variation + node-shadowing episodes + (optional) posture regime."""
        total = (
            self.mean_model.mean_path_loss(i, j)
            + self.fading.sample(i, j, t)
            + self.shadowing.extra_loss_db(i, j, t)
        )
        if self.posture is not None:
            total += self.posture.extra_loss_db(
                self.body.is_occluded(i, j), t
            )
        return total

    def received_power_dbm(self, tx_dbm: float, i: int, j: int, t: float) -> float:
        """Power arriving at location j from a transmitter at i."""
        return tx_dbm - self.path_loss(i, j, t)

    def link_closes(
        self, tx_dbm: float, sensitivity_dbm: float, i: int, j: int, t: float
    ) -> bool:
        """The paper's reception condition at time t."""
        return self.received_power_dbm(tx_dbm, i, j, t) >= sensitivity_dbm

    def max_fade_gain_db(self) -> float:
        """Largest amount by which the instantaneous path loss can fall
        *below* the mean: the OU fade is clipped at ±``clip_db`` and both
        shadowing and posture only ever add loss.  This bounds the best
        case a link can ever see — the basis for the dead-pair skip."""
        p = self.fading.params
        return p.clip_db if p.sigma_db > 0 else 0.0

    def fanout_powers(
        self,
        sender: int,
        tx_dbm: float,
        entries: Sequence[Tuple[int, float, bool, Tuple[int, int]]],
        t: float,
        blocked=None,
    ) -> Dict[int, float]:
        """Received power at every receiver of one broadcast, keyed by
        receiver in ``entries`` order, bit-identical to calling
        :meth:`received_power_dbm` per receiver in order.

        ``entries`` is the precomputed fan-out plan: ``(receiver,
        mean_path_loss, skip, pair_key)`` tuples where ``mean_path_loss``
        is the precomputed ``PL̄(sender, receiver)`` (hoisting the
        per-packet model lookup out of the hot loop), ``pair_key`` the
        unordered pair ``(min, max)`` that keys the pair's OU state, and
        ``skip`` marks a pair whose best-case power (``tx − PL̄ +
        max_fade_gain_db()``) is unobservable in *both* directions — such
        a pair's OU draw is never consulted by any reception, capture, or
        carrier-sense decision, so the sample is skipped and −inf
        returned.  The node shadowing chains of both endpoints are still
        advanced (they are shared with the node's other links), so every
        other draw in the run is unchanged.  ``blocked`` is the fault-layer
        pair predicate; blocked receivers get −inf with *no* sampling at
        all, exactly like the pre-fast-path reception loop.

        Skips are disabled at plan-build time when the posture process is
        active (posture draws are time-keyed and shared across pairs);
        that path falls back to the generic per-receiver computation.
        """
        out: Dict[int, float] = {}
        if self.posture is not None:
            for loc, _mean, _skip, _key in entries:
                if blocked is not None and blocked(sender, loc):
                    out[loc] = -math.inf
                else:
                    out[loc] = tx_dbm - self.path_loss(sender, loc, t)
            return out
        fading = self.fading
        fading_sample = fading.sample
        fading_state = fading._state
        sigma = fading._sigma
        clip_limit = fading._clip_limit
        tau = fading._tau
        shadow = self.shadowing
        params = shadow.params
        depth = params.shadow_depth_db
        shadow_on = depth > 0 and params.shadow_fraction > 0
        is_occ = shadow.is_occluded
        shadow_state = shadow._state
        pi = shadow._pi
        relax = shadow._relax
        exp = math.exp
        sqrt = math.sqrt

        # The warm-state update of both processes (a state record exists
        # and time strictly advanced — by far the common case on the
        # per-packet fan-out) is inlined below with the exact arithmetic
        # of OrnsteinUhlenbeckFading.sample / NodeShadowing.is_occluded;
        # cold starts, repeated timestamps, and backwards-time errors
        # delegate to those methods, which remain the single source of
        # truth for the non-hot branches.  Draws come from each stream's
        # RawDraws chunk (``pop()`` while it holds values, ``take()`` to
        # refill), the same values as numpy's scalar ``uniform()`` /
        # ``standard_normal()``; ``mean + std*z`` is what ``normal(mean,
        # std)`` computes.  The channel-unit tests assert bit-equality of
        # this loop against the generic path.
        #
        # The sender's occlusion state is the same for every receiver at
        # this timestamp, so its chain ticks once, first.  Each node's
        # chain has its own stream, so the order in which chains advance
        # changes no draw; what matters is that the sender's chain is not
        # touched at all when every receiver is fault-blocked, as in the
        # generic path.
        sender_loss = 0.0
        if shadow_on and entries and (
            blocked is None
            or not all(blocked(sender, entry[0]) for entry in entries)
        ):
            state = shadow_state.get(sender)
            if state is not None and t > state[1]:
                decay = exp(-relax * (t - state[1]))
                if state[2]:
                    p_on = pi + (1.0 - pi) * decay
                else:
                    p_on = pi * (1.0 - decay)
                draws = state[0]
                occluded = (draws.pop() if draws else draws.take()) < p_on
                state[1] = t
                state[2] = occluded
            else:
                occluded = is_occ(sender, t)
            if occluded:
                sender_loss = depth
        # Grouping note: the generic path computes the loss as
        # ``(mean + fading) + extra`` with ``extra`` summed sender first
        # from 0.0, and the power as ``tx − loss``; the same association
        # is kept here (``0.0 + depth`` is ``depth``), so every float is
        # bit-identical.
        for loc, mean_pl, skip, key in entries:
            if blocked is not None and blocked(sender, loc):
                out[loc] = -math.inf
                continue
            if skip:
                # Unobservable pair: keep the receiver's shadowing chain
                # in step but leave the pair's private OU stream
                # untouched.
                if shadow_on:
                    is_occ(loc, t)
                out[loc] = -math.inf
                continue
            state = fading_state.get(key)
            if state is not None and t > state[1]:
                if sigma == 0:
                    value = 0.0
                else:
                    rho = exp(-(t - state[1]) / tau)
                    var = 1.0 - rho * rho
                    draws = state[0]
                    value = state[2] * rho + sigma * sqrt(
                        var if var > 0.0 else 0.0
                    ) * (draws.pop() if draws else draws.take())
                    if value > clip_limit:
                        value = clip_limit
                    elif value < -clip_limit:
                        value = -clip_limit
                state[1] = t
                state[2] = value
            else:
                value = fading_sample(sender, loc, t)
            if shadow_on:
                # Receiver shadow tick, inlined (the same warm branch as
                # NodeShadowing.is_occluded): it runs for every receiver
                # of every packet.
                state = shadow_state.get(loc)
                if state is not None and t > state[1]:
                    decay = exp(-relax * (t - state[1]))
                    if state[2]:
                        p_on = pi + (1.0 - pi) * decay
                    else:
                        p_on = pi * (1.0 - decay)
                    draws = state[0]
                    occluded = (draws.pop() if draws else draws.take()) < p_on
                    state[1] = t
                    state[2] = occluded
                else:
                    occluded = is_occ(loc, t)
                extra = sender_loss + depth if occluded else sender_loss
                out[loc] = tx_dbm - ((mean_pl + value) + extra)
            else:
                out[loc] = tx_dbm - ((mean_pl + value) + 0.0)
        return out

    def budget(self, tx_dbm: float, sensitivity_dbm: float, i: int, j: int) -> LinkBudget:
        """Static (mean) link budget for planning and diagnostics."""
        return LinkBudget(
            tx_power_dbm=tx_dbm,
            sensitivity_dbm=sensitivity_dbm,
            mean_path_loss_db=self.mean_model.mean_path_loss(i, j),
        )

    def reset_fading(self) -> None:
        """Clear fading, shadowing, and posture history (fresh state)."""
        self.fading.reset()
        self.shadowing.reset()
        if self.posture is not None:
            self.posture.reset()
