"""Tests for per-net routing estimation and parasitics."""

import pytest

from repro.netlist.core import INPUT, Netlist, PinRef
from repro.route.estimate import (layer_class, route_block, route_net)
from repro.tech.cells import make_28nm_library
from repro.tech.layers import make_28nm_stack
from repro.tech.interconnect3d import make_tsv


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


@pytest.fixture(scope="module")
def stack():
    return make_28nm_stack()


def two_cell_net(lib, dx=100.0, die_b=0):
    nl = Netlist("pair")
    a = nl.add_instance("a", lib.master("INV_X2"), x=0.0, y=0.0)
    b = nl.add_instance("b", lib.master("INV_X2"), x=dx, y=0.0, die=die_b)
    net = nl.add_net("n", PinRef(inst=a.id), [PinRef(inst=b.id, pin=0)])
    return nl, net, a, b


class TestLayerClass:
    def test_short_nets_on_local_metal(self, stack):
        r_short, _ = layer_class(10.0, stack, 7)
        r_long, _ = layer_class(500.0, stack, 7)
        assert r_long < r_short

    def test_max_metal_caps_promotion(self, stack):
        r7, _ = layer_class(500.0, stack, 7)
        r9, _ = layer_class(500.0, stack, 9)
        assert r9 < r7


class TestRouteNet:
    def test_two_pin_length(self, lib, stack):
        nl, net, a, b = two_cell_net(lib, dx=200.0)
        routed = route_net(nl, net, stack)
        assert routed.length_um == pytest.approx(200.0)
        assert routed.wire_cap_ff == pytest.approx(
            routed.c_per_um * 200.0)
        assert len(routed.sinks) == 1
        assert routed.sinks[0].path_len_um == pytest.approx(200.0)

    def test_total_cap_includes_pins(self, lib, stack):
        nl, net, a, b = two_cell_net(lib)
        routed = route_net(nl, net, stack)
        assert routed.total_cap_ff == pytest.approx(
            routed.wire_cap_ff + b.master.input_cap_ff)

    def test_long_wire_flag(self, lib, stack):
        nl, net, *_ = two_cell_net(lib, dx=200.0)
        assert route_net(nl, net, stack, long_wire_um=120.0).is_long
        nl, net, *_ = two_cell_net(lib, dx=50.0)
        assert not route_net(nl, net, stack, long_wire_um=120.0).is_long

    def test_detour_factor_scales(self, lib, stack):
        nl, net, *_ = two_cell_net(lib, dx=100.0)
        base = route_net(nl, net, stack)
        detoured = route_net(nl, net, stack, detour_factor=1.5)
        assert detoured.length_um == pytest.approx(1.5 * base.length_um)

    def test_sink_delay_grows_with_length(self, lib, stack):
        nl1, n1, *_ = two_cell_net(lib, dx=50.0)
        nl2, n2, *_ = two_cell_net(lib, dx=400.0)
        r1 = route_net(nl1, n1, stack)
        r2 = route_net(nl2, n2, stack)
        assert r2.sink_wire_delay_ps(r2.sinks[0]) > \
            r1.sink_wire_delay_ps(r1.sinks[0])

    def test_crossing_net_uses_via(self, lib, stack):
        tsv = make_tsv()
        nl, net, a, b = two_cell_net(lib, dx=100.0, die_b=1)
        routed = route_net(nl, net, stack, via=tsv, via_xy=(50.0, 0.0))
        assert routed.via is tsv
        assert routed.sinks[0].through_via
        assert routed.total_cap_ff > routed.wire_cap_ff + \
            b.master.input_cap_ff  # via cap added
        flat = route_net(nl, net, stack)
        assert routed.sink_wire_delay_ps(routed.sinks[0]) > \
            flat.sink_wire_delay_ps(flat.sinks[0])

    def test_via_detour_lengthens_route(self, lib, stack):
        tsv = make_tsv()
        nl, net, *_ = two_cell_net(lib, dx=100.0, die_b=1)
        direct = route_net(nl, net, stack, via=tsv, via_xy=(50.0, 0.0))
        offset = route_net(nl, net, stack, via=tsv, via_xy=(50.0, 80.0))
        assert offset.length_um > direct.length_um


class TestRouteBlock:
    def test_routes_all_nonclock_nets(self, lib, stack):
        nl = Netlist("b")
        a = nl.add_instance("a", lib.master("INV_X2"))
        f = nl.add_instance("f", lib.master("DFF_X1"))
        nl.add_port("clk", INPUT)
        nl.add_net("d", PinRef(inst=a.id), [PinRef(inst=f.id, pin=0)])
        nl.add_net("clk", PinRef(port="clk"),
                   [PinRef(inst=f.id, pin=1)], is_clock=True)
        result = route_block(nl, stack)
        assert len(result.nets) == 1  # clock excluded

    def test_aggregate_stats(self, lib, stack):
        nl, net, *_ = two_cell_net(lib, dx=300.0)
        result = route_block(nl, stack)
        assert result.total_wirelength_um == pytest.approx(300.0)
        assert result.long_wire_count == 1
        assert result.of(net.id).net_id == net.id


class TestUpdateInstances:
    """Master swaps re-read only the pin caps of sinks on swapped
    cells; a net rewired since it was routed raises, naming the net."""

    @staticmethod
    def fanout(lib):
        nl = Netlist("fan")
        cells = [nl.add_instance(name, lib.master("INV_X2"), x=40.0 * i)
                 for i, name in enumerate("abcde")]
        a, b, c = cells[:3]
        net = nl.add_net("n", PinRef(inst=a.id), [PinRef(inst=b.id),
                                                  PinRef(inst=c.id)])
        return nl, net, cells

    def test_swap_refreshes_the_swapped_sinks_cap(self, lib, stack):
        nl, net, (a, b, *_) = self.fanout(lib)
        routing = route_block(nl, stack)
        nl.replace_master(a.id, lib.master("INV_X4"))
        assert routing.update_instances(nl, [a.id]) == []
        nl.replace_master(b.id, lib.master("INV_X4"))
        assert routing.update_instances(nl, [b.id]) == [net.id]
        assert routing.of(net.id).sinks[0].pin_cap_ff == \
            lib.master("INV_X4").input_cap_ff
        assert routing == route_block(nl, stack)

    @pytest.mark.parametrize("rewire", ["driver", "sink"])
    def test_rewired_net_raises_naming_it(self, lib, stack, rewire):
        nl, net, (a, b, c, d, e) = self.fanout(lib)
        routing = route_block(nl, stack)
        if rewire == "driver":
            nl.rewire_driver(net.id, PinRef(inst=d.id))
        else:
            # same sink count, one endpoint replaced
            nl.remove_sink(net.id, PinRef(inst=c.id))
            nl.add_sink(net.id, PinRef(inst=e.id))
        nl.replace_master(b.id, lib.master("INV_X4"))
        with pytest.raises(ValueError, match="net 'n' changed topology"):
            routing.update_instances(nl, [b.id])
