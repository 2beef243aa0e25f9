"""The coarse analytical power and lifetime model (Eqs. 3, 4, 5, 9).

This is the model the MILP optimizes.  It assumes every transmission
succeeds and every node hears every packet — optimistic on reliability,
which is exactly why Algorithm 1 cross-checks candidates in the simulator
and why the α factor is needed for a sound termination criterion.

Key expressions (Sec. 2.1.2 and 2.3):

* Tpkt = 8·L/BR — packet airtime;
* Eq. 5 — radio power of a non-coordinator node:
  star:  P_rd = φ·Tpkt·(Tx_mW + 2(N−1)·Rx_mW)
  mesh:  P_rd = φ·Tpkt·N_reTx·(Tx_mW + (N−1)·Rx_mW)
* Eq. 9 — P̄ = P_bl + P_rd, the MILP's objective;
* Eq. 4 — NLT = E_bat / P̄ for the worst battery-limited node;
* α — the ratio P̄ / P̄_lb where P̄_lb is the least power consistent with
  the PDR bound: a node that delivers only a PDR fraction of traffic spends
  proportionally less on the radio, so
  P̄_lb = P_bl + PDR_min · (P̄ − P_bl).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.library.batteries import BatterySpec
from repro.library.mac_options import RoutingKind, RoutingOptions
from repro.library.radios import RadioSpec, TxMode
from repro.net.app import AppParameters


@dataclass(frozen=True)
class CoarsePowerModel:
    """Analytical per-node power model for one scenario.

    Parameters are the scenario-wide constants; configuration-dependent
    quantities (routing, node count, TX mode) are method arguments so one
    model instance serves the whole design space.
    """

    radio: RadioSpec
    app: AppParameters
    battery: BatterySpec

    @property
    def packet_airtime_s(self) -> float:
        """Tpkt = 8L/BR."""
        return self.radio.packet_airtime_s(self.app.packet_bytes)

    def radio_power_mw(
        self, routing: RoutingOptions, num_nodes: int, tx_mode: TxMode
    ) -> float:
        """Eq. 5: average radio power of a non-coordinator node."""
        if num_nodes < 2:
            raise ValueError("the model needs at least two nodes")
        phi = self.app.throughput_pps
        tpkt = self.packet_airtime_s
        rx = self.radio.rx_power_mw
        if routing.kind is RoutingKind.STAR:
            return phi * tpkt * (tx_mode.power_mw + 2 * (num_nodes - 1) * rx)
        nretx = routing.retx_count(num_nodes)
        return phi * tpkt * nretx * (tx_mode.power_mw + (num_nodes - 1) * rx)

    def node_power_mw(
        self, routing: RoutingOptions, num_nodes: int, tx_mode: TxMode
    ) -> float:
        """Eq. 9: P̄ = P_bl + P_rd."""
        return self.app.baseline_mw + self.radio_power_mw(routing, num_nodes, tx_mode)

    def lifetime_days(
        self, routing: RoutingOptions, num_nodes: int, tx_mode: TxMode
    ) -> float:
        """Eq. 4 under the equal-power assumption of Sec. 3."""
        return self.battery.lifetime_days(
            self.node_power_mw(routing, num_nodes, tx_mode)
        )

    # -- α correction (Sec. 3, termination criterion) -----------------------------

    def power_lower_bound_mw(
        self, p_bar_mw: float, pdr_min: float, model_slack: float = 1.0
    ) -> float:
        """P̄_lb: least simulated power consistent with delivering a PDR_min
        fraction of the traffic the analytical model assumes.

        ``model_slack`` multiplies the radio term to absorb Eq. 5's known
        systematic overcounts (e.g. the star branch assumes each node hears
        2(N−1) packets per round, while the protocol actually delivers at
        most 2N−3: the coordinator's own traffic is never relayed and
        packets addressed to the coordinator need no relay).  The paper's α
        ignores this bias (slack = 1, the default).  No constant slack is a
        certified lower bound: the smallest ratio of simulated radio power
        to PDR × Eq. 5 radio power measured on ``smoke`` seeds 0–2 at
        −20/−10/0 dBm is 0.69/0.69/0.77 for star routing and 0.15/0.29/0.43
        for mesh, because receptions below sensitivity cost nothing and a
        flooding mesh has the most of them.  A smaller slack only makes
        termination more conservative, at the price of extra simulated
        levels.
        """
        if not 0.0 <= pdr_min <= 1.0:
            raise ValueError("PDR bound must lie in [0, 1]")
        if not 0.0 < model_slack <= 1.0:
            raise ValueError("model slack must lie in (0, 1]")
        radio_part = max(0.0, p_bar_mw - self.app.baseline_mw)
        return self.app.baseline_mw + pdr_min * model_slack * radio_part

    def alpha(
        self, p_bar_mw: float, pdr_min: float, model_slack: float = 1.0
    ) -> float:
        """α = P̄ / P̄_lb ≥ 1 (Sec. 3)."""
        lb = self.power_lower_bound_mw(p_bar_mw, pdr_min, model_slack)
        if lb <= 0:
            raise ValueError("power lower bound must be positive")
        return p_bar_mw / lb
