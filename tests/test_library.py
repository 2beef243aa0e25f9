"""Tests for the component library: radios (Table 1), batteries, options."""

import math

import pytest

from repro.library.batteries import (
    BATTERY_CATALOG,
    COORDINATOR_PACK,
    CR2032,
    battery_by_name,
)
from repro.library.locations import DESIGN_EXAMPLE_ROLES, describe_placement
from repro.library.mac_options import (
    CsmaAccessMode,
    MacKind,
    MacOptions,
    RoutingKind,
    RoutingOptions,
)
from repro.library.radios import CC2650, RADIO_CATALOG, radio_by_name


class TestTable1Transcription:
    """The CC2650 entry must match the paper's Table 1 exactly."""

    def test_carrier_and_bitrate(self):
        assert CC2650.carrier_hz == 2.4e9
        assert CC2650.bit_rate_bps == 1024e3

    def test_receiver(self):
        assert CC2650.sensitivity_dbm == -97.0
        assert CC2650.rx_power_mw == 17.7

    def test_tx_modes(self):
        expected = {"p1": (-20.0, 9.55), "p2": (-10.0, 11.56), "p3": (0.0, 18.3)}
        assert len(CC2650.tx_modes) == 3
        for mode in CC2650.tx_modes:
            dbm, mw = expected[mode.name]
            assert mode.output_dbm == dbm
            assert mode.power_mw == mw

    def test_packet_airtime_matches_section41(self):
        # 100-byte packets at 1024 kbps: Tpkt = 800/1024e3 ~ 0.78 ms,
        # which must fit the 1 ms TDMA slot of the design example.
        tpkt = CC2650.packet_airtime_s(100)
        assert tpkt == pytest.approx(800 / 1024e3)
        assert tpkt < 1e-3

    def test_tx_mode_lookup(self):
        assert CC2650.tx_mode("p2").output_dbm == -10.0
        assert CC2650.tx_mode_by_dbm(0.0).name == "p3"
        with pytest.raises(KeyError):
            CC2650.tx_mode("p9")
        with pytest.raises(KeyError):
            CC2650.tx_mode_by_dbm(5.0)

    def test_zero_length_packet_rejected(self):
        with pytest.raises(ValueError):
            CC2650.packet_airtime_s(0)

    def test_catalog_lookup(self):
        assert radio_by_name("CC2650") is CC2650
        assert len(RADIO_CATALOG) >= 3
        with pytest.raises(KeyError, match="unknown radio"):
            radio_by_name("nRF9999")


class TestBatteries:
    def test_cr2032_energy(self):
        # 225 mAh at 3 V = 675 mWh = 2430 J.
        assert CR2032.energy_mwh == pytest.approx(675.0)
        assert CR2032.energy_j == pytest.approx(2430.0)

    def test_lifetime_days(self):
        # 675 mWh at 1 mW -> 675 h ~ 28.1 days.
        assert CR2032.lifetime_days(1.0) == pytest.approx(675.0 / 24.0)

    def test_lifetime_seconds_consistent(self):
        assert CR2032.lifetime_s(2.0) == pytest.approx(
            CR2032.lifetime_days(2.0) * 86400.0
        )

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            CR2032.lifetime_days(0.0)

    def test_coordinator_pack_dwarfs_cr2032(self):
        assert COORDINATOR_PACK.energy_mwh > 20 * CR2032.energy_mwh

    def test_catalog(self):
        assert battery_by_name("CR2032") is CR2032
        assert "CR2032" in BATTERY_CATALOG
        with pytest.raises(KeyError):
            battery_by_name("AAA")


class TestHarvestingLifetime:
    def test_income_extends_lifetime(self):
        plain = CR2032.lifetime_days(1.0)
        harvested = CR2032.lifetime_days(1.0, harvest_mw=0.5)
        assert harvested == pytest.approx(2 * plain)

    def test_energy_neutral_is_infinite(self):
        assert math.isinf(CR2032.lifetime_days(0.8, harvest_mw=0.8))
        assert math.isinf(CR2032.lifetime_days(0.8, harvest_mw=1.2))

    def test_negative_income_rejected(self):
        with pytest.raises(ValueError):
            CR2032.lifetime_days(1.0, harvest_mw=-0.1)

    def test_lifetime_seconds_consistent_with_harvest(self):
        assert CR2032.lifetime_s(1.0, 0.5) == pytest.approx(
            CR2032.lifetime_days(1.0, 0.5) * 86400.0
        )


class TestMacOptions:
    def test_defaults_match_design_example(self):
        opts = MacOptions(kind=MacKind.TDMA)
        assert opts.slot_s == 1e-3
        assert opts.access_mode is CsmaAccessMode.NON_PERSISTENT

    def test_validation(self):
        with pytest.raises(ValueError):
            MacOptions(kind=MacKind.CSMA, buffer_size=0)
        with pytest.raises(ValueError):
            MacOptions(kind=MacKind.TDMA, slot_s=0.0)
        with pytest.raises(ValueError):
            MacOptions(
                kind=MacKind.CSMA,
                csma_backoff_min_s=5e-3,
                csma_backoff_max_s=1e-3,
            )


class TestRoutingOptions:
    def test_prt_encoding(self):
        assert RoutingKind.STAR.prt == 0
        assert RoutingKind.MESH.prt == 1

    def test_retx_star_is_one(self):
        opts = RoutingOptions(kind=RoutingKind.STAR)
        assert opts.retx_count(4) == 1
        assert opts.retx_count(6) == 1

    def test_retx_two_hop_matches_paper_formula(self):
        """Sec. 4.1: for a two-hop configuration NreTx = N^2 - 4N + 5."""
        opts = RoutingOptions(kind=RoutingKind.MESH, max_hops=2)
        for n in range(4, 8):
            assert opts.retx_count(n) == n * n - 4 * n + 5

    def test_retx_one_hop_single_relay_ring(self):
        # N_hops = 1: the origin transmits, every node except origin and
        # destination relays once -> 1 + (N - 2) = N - 1.
        opts = RoutingOptions(kind=RoutingKind.MESH, max_hops=1)
        for n in range(4, 8):
            assert opts.retx_count(n) == n - 1

    def test_retx_grows_with_hops(self):
        two = RoutingOptions(kind=RoutingKind.MESH, max_hops=2)
        three = RoutingOptions(kind=RoutingKind.MESH, max_hops=3)
        assert three.retx_count(5) > two.retx_count(5)

    def test_hop_validation(self):
        with pytest.raises(ValueError):
            RoutingOptions(kind=RoutingKind.MESH, max_hops=0)


class TestLocations:
    def test_roles_cover_section41(self):
        names = {r.name for r in DESIGN_EXAMPLE_ROLES}
        assert names == {"respiration", "gait_hip", "gait_foot", "vitals_wrist"}

    def test_describe_placement(self):
        assert describe_placement((0, 1, 3, 6)) == "[chest,hipL,ankL,wriR]"

    def test_describe_placement_sorts(self):
        assert describe_placement((6, 0)) == "[chest,wriR]"
