"""Tests for the capacity-tracked block router."""

import pytest

from repro.place.grid import Rect
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.block_router import (BlockRouter, _mst_edges,
                                      route_block_detailed)
from repro.route.estimate import route_block
from repro.tech.cells import make_28nm_library
from repro.tech.layers import make_28nm_stack
from tests.conftest import fresh_block


@pytest.fixture(scope="module")
def stack():
    return make_28nm_stack()


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


class TestMst:
    def test_star(self):
        pins = [(0, 0), (10, 0), (0, 10), (-10, 0)]
        edges = _mst_edges(pins)
        assert len(edges) == 3
        touched = {i for e in edges for i in e}
        assert touched == {0, 1, 2, 3}

    def test_degenerate(self):
        assert _mst_edges([(0, 0)]) == []
        assert _mst_edges([]) == []


class TestBlockRouter:
    def test_capacity_from_stack(self, stack):
        r = BlockRouter(Rect(0, 0, 480, 480), stack, max_metal=9)
        assert r.capacity[0] > 0
        assert r.capacity[2] > 0
        r7 = BlockRouter(Rect(0, 0, 480, 480), stack, max_metal=7)
        assert r7.capacity[2] < r.capacity[2]

    def test_straight_segment_length(self, stack):
        r = BlockRouter(Rect(0, 0, 480, 480), stack)
        length = r.route_segment((10, 10), (250, 10), cls=1)
        assert length == pytest.approx(240.0, rel=0.2)

    def test_usage_committed(self, stack):
        r = BlockRouter(Rect(0, 0, 480, 480), stack)
        r.route_segment((10, 240), (470, 240), cls=1)
        assert r.usage[1].sum() > 0
        assert r.usage[0].sum() == 0  # other classes untouched

    def test_congestion_forces_detours(self, stack):
        r = BlockRouter(Rect(0, 0, 480, 480), stack, gcell_um=24.0)
        # hammer one horizontal corridor way past capacity
        for _ in range(int(r.capacity[1] * 3) + 20):
            r.route_segment((10, 240), (470, 240), cls=1)
        rep = r.congestion()
        assert rep.max_utilization > 1.0 or rep.detoured_segments > 0
        assert rep.total_segments > 0

    def test_maze_usable(self, stack):
        r = BlockRouter(Rect(0, 0, 480, 480), stack)
        path = r._maze(r.gcell(10, 10), r.gcell(400, 400), cls=1)
        assert path is not None
        assert path[0] == r.gcell(10, 10)
        assert path[-1] == r.gcell(400, 400)


class TestRouteBlockDetailed:
    @pytest.fixture(scope="class")
    def routed(self, library, process):
        gb = fresh_block("l2t", library, seed=4)
        result = place_block_2d(gb.netlist, PlacementConfig(seed=4))
        est = route_block(gb.netlist, process.metal_stack)
        detailed, congestion = route_block_detailed(
            gb.netlist, process.metal_stack, result.outline)
        return gb, est, detailed, congestion

    def test_all_nets_routed(self, routed):
        gb, est, detailed, _ = routed
        assert set(detailed.nets) == set(est.nets)

    def test_routed_lengths_close_to_estimates(self, routed):
        _, est, detailed, _ = routed
        ratio = detailed.total_wirelength_um / est.total_wirelength_um
        # global routing detours a little, never shrinks dramatically
        assert 0.9 < ratio < 1.6

    def test_sink_paths_populated(self, routed):
        gb, _, detailed, _ = routed
        for routed_net in list(detailed.nets.values())[:50]:
            net = gb.netlist.nets[routed_net.net_id]
            assert len(routed_net.sinks) == len(net.sinks)
            for s in routed_net.sinks:
                assert s.path_len_um >= 0

    def test_congestion_report(self, routed):
        _, _, _, congestion = routed
        assert congestion.total_segments > 500
        assert 0 <= congestion.overflow_fraction < 0.3
        assert congestion.max_utilization >= 0

    def test_sta_runs_on_detailed_routing(self, routed, process):
        from repro.timing.sta import TimingConfig, run_sta
        gb, _, detailed, _ = routed
        sta = run_sta(gb.netlist, detailed, process,
                      TimingConfig("cpu_clk"))
        assert sta.slack
