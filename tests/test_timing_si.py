"""Tests for crosstalk (SI) guardbanding."""

import pytest

from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.block_router import route_block_with_router
from repro.timing import si
from repro.timing.si import coupling_factor, derate_routing
from repro.timing.sta import TimingConfig, run_sta
from tests.conftest import fresh_block


class TestCouplingFactor:
    def test_quiet_corridor_no_penalty(self):
        assert coupling_factor(0.0) == pytest.approx(1.0)

    def test_monotone_in_utilization(self):
        assert coupling_factor(0.2) < coupling_factor(0.8) < \
            coupling_factor(1.2)

    def test_clipped_above(self):
        assert coupling_factor(5.0) == coupling_factor(1.5)

    def test_worst_case_bound(self, monkeypatch):
        # full coupling, always-switching aggressors, Miller 2.0
        monkeypatch.setattr(si, "COUPLING_FRACTION", 1.0)
        monkeypatch.setattr(si, "MILLER_FACTOR", 2.0)
        monkeypatch.setattr(si, "AGGRESSOR_ACTIVITY", 1.0)
        assert coupling_factor(1.0) == pytest.approx(2.0)


class TestDerateRouting:
    @pytest.fixture(scope="class")
    def routed(self, library, process):
        gb = fresh_block("l2t", library, seed=6)
        result = place_block_2d(gb.netlist, PlacementConfig(seed=6))
        routing, congestion, router = route_block_with_router(
            gb.netlist, process.metal_stack, result.outline)
        return gb, routing, router

    def test_all_nets_derated(self, routed):
        gb, routing, router = routed
        si_routing, report = derate_routing(gb.netlist, routing, router)
        assert report.nets_derated == len(routing.nets)
        assert set(si_routing.nets) == set(routing.nets)

    def test_factors_physical(self, routed):
        gb, routing, router = routed
        _, report = derate_routing(gb.netlist, routing, router)
        assert 1.0 <= report.mean_factor <= report.worst_factor < 2.0

    def test_caps_never_shrink(self, routed):
        gb, routing, router = routed
        si_routing, _ = derate_routing(gb.netlist, routing, router)
        for nid, base in routing.nets.items():
            assert si_routing.nets[nid].wire_cap_ff >= \
                base.wire_cap_ff - 1e-9

    def test_si_sta_pessimistic(self, routed, process):
        gb, routing, router = routed
        si_routing, _ = derate_routing(gb.netlist, routing, router)
        cfg = TimingConfig("cpu_clk")
        base = run_sta(gb.netlist, routing, process, cfg)
        si = run_sta(gb.netlist, si_routing, process, cfg)
        assert si.wns_ps <= base.wns_ps + 1e-9
