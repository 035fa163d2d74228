"""Edge cases and failure injection across modules."""

import pytest

from repro.netlist.core import INPUT, Netlist, PinRef
from repro.place.grid import Rect
from repro.tech.cells import make_28nm_library


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


class TestRoutingEdgeCases:
    def test_port_only_net(self, lib, process):
        from repro.route.estimate import route_net
        nl = Netlist("p")
        nl.add_port("a", INPUT)
        nl.add_port("b", "out")
        nl.ports["a"].x, nl.ports["a"].y = 0.0, 0.0
        nl.ports["b"].x, nl.ports["b"].y = 100.0, 0.0
        net = nl.add_net("feed", PinRef(port="a"), [PinRef(port="b")])
        routed = route_net(nl, net, process.metal_stack)
        assert routed.length_um == pytest.approx(100.0)
        assert routed.sinks[0].pin_cap_ff > 0

    def test_single_pin_net_zero_length(self, lib, process):
        from repro.route.estimate import route_net
        nl = Netlist("s")
        a = nl.add_instance("a", lib.master("INV_X1"))
        b = nl.add_instance("b", lib.master("INV_X1"))
        net = nl.add_net("n", PinRef(inst=a.id), [PinRef(inst=b.id,
                                                         pin=0)])
        routed = route_net(nl, net, process.metal_stack)
        assert routed.length_um == 0.0
        assert not routed.is_long

    def test_routing_result_missing_net(self, process):
        from repro.route.estimate import RoutingResult
        result = RoutingResult()
        with pytest.raises(KeyError):
            result.of(42)


class TestPlacementEdgeCases:
    def test_tiny_block_places(self, lib, process):
        from repro.place.placer2d import PlacementConfig, place_block_2d
        nl = Netlist("tiny")
        a = nl.add_instance("a", lib.master("INV_X1"))
        b = nl.add_instance("b", lib.master("INV_X1"))
        nl.add_port("in", INPUT)
        nl.add_net("n0", PinRef(port="in"), [PinRef(inst=a.id, pin=0)])
        nl.add_net("n1", PinRef(inst=a.id), [PinRef(inst=b.id, pin=0)])
        result = place_block_2d(nl, PlacementConfig(seed=0))
        assert result.outline.area > 0
        for inst in (a, b):
            assert result.outline.contains(inst.x, inst.y)

    def test_macro_only_block(self, lib, process):
        from repro.place.placer2d import PlacementConfig, place_block_2d
        from repro.tech.macros import sram_macro
        nl = Netlist("mac")
        nl.add_instance("ram", sram_macro(2))
        result = place_block_2d(nl, PlacementConfig(seed=0))
        assert len(result.grid.obstructions) == 1

    def test_fold_everything_one_die(self, lib, process):
        from repro.place.placer2d import PlacementConfig
        from repro.place.placer3d import fold_place_3d
        from tests.conftest import fresh_block
        gb = fresh_block("ncu", lib, seed=33)
        assignment = {i.id: 0 for i in gb.netlist.instances.values()}
        res = fold_place_3d(gb.netlist, process, assignment, "F2B",
                            PlacementConfig(seed=33))
        assert res.n_vias == 0
        assert res.vias == []


class TestFlowEdgeCases:
    def test_unknown_block_raises(self, process):
        from repro.core.flow import FlowConfig, run_block_flow
        with pytest.raises(KeyError):
            run_block_flow("gpu", FlowConfig(), process)

    def test_invalid_bonding_rejected(self, process):
        from repro.core.flow import FlowConfig, run_block_flow
        from repro.core.folding import FoldSpec
        with pytest.raises(ValueError):
            run_block_flow("ncu", FlowConfig(
                fold=FoldSpec(mode="mincut"), bonding="GLUE"), process)

    def test_zero_scale_rejected(self, process):
        from repro.core.flow import FlowConfig, run_block_flow
        with pytest.raises(ValueError):
            run_block_flow("ncu", FlowConfig(scale=0.0), process)


class TestFloorplanEdgeCases:
    def test_anneal_single_block(self):
        from repro.floorplan.seqpair import FPBlock, anneal_floorplan
        res = anneal_floorplan([FPBlock("only", 10, 20)])
        assert res.area == pytest.approx(200.0)
        assert res.positions["only"][2:] == (10, 20)

    def test_pack_deterministic(self):
        from repro.floorplan.seqpair import FPBlock, pack
        blocks = [FPBlock(f"b{i}", 10 + i, 5 + i) for i in range(5)]
        a = pack(blocks, [2, 0, 1, 4, 3], [1, 3, 0, 2, 4])
        b = pack(blocks, [2, 0, 1, 4, 3], [1, 3, 0, 2, 4])
        assert a.positions == b.positions


class TestReportEdgeCases:
    def test_empty_rows_table(self):
        from repro.analysis.report import MetricRow, format_table
        text = format_table("empty", ["a"], [MetricRow("x", [1.0])])
        assert "empty" in text

    def test_design_metric_rows_chip_kind(self, process):
        from repro.analysis.report import design_metric_rows
        from repro.core import ChipConfig, build_chip
        chip = build_chip(ChipConfig(style="2d", scale=0.25), process)
        rows = design_metric_rows([chip], kind="chip")
        labels = [r.label for r in rows]
        assert "# TSV/F2F via" in labels


class TestGlobalRouterEdgeCases:
    def test_zero_capacity_still_routes(self):
        from repro.route.global_router import GlobalRouter
        gr = GlobalRouter(Rect(0, 0, 1000, 1000), n_gcells=8,
                          capacity_per_gcell=0.0)
        path = gr.route((50, 50), (950, 950))
        assert path.length_um > 0

    def test_overflow_metric(self):
        from repro.route.global_router import GlobalRouter
        gr = GlobalRouter(Rect(0, 0, 1000, 1000), n_gcells=8,
                          capacity_per_gcell=1.0)
        for _ in range(5):
            gr.route((50, 500), (950, 500), n_wires=10)
        assert gr.overflow() > 0.0
