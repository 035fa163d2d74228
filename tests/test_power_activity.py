"""Tests for probabilistic activity propagation."""

import pytest

from repro.netlist.core import INPUT, Netlist, PinRef
from repro.power.activity import (_gate_output, apply_activity,
                                  propagate_activity)
from repro.power.analysis import analyze_power
from repro.route.estimate import route_block
from repro.tech.process import CPU_CLOCK, make_process


@pytest.fixture(scope="module")
def proc():
    return make_process()


@pytest.fixture(scope="module")
def lib(proc):
    return proc.library


class TestGateFunctions:
    def test_inverter_preserves_activity(self):
        prob, act = _gate_output("INV", [(0.3, 0.2)])
        assert prob == pytest.approx(0.7)
        assert act == pytest.approx(0.2)

    def test_and_probability(self):
        prob, act = _gate_output("AND2", [(0.5, 0.2), (0.5, 0.2)])
        assert prob == pytest.approx(0.25)
        # each input sensitized with probability of the other being 1
        assert act == pytest.approx(0.2 * 0.5 + 0.2 * 0.5)

    def test_nand_complements_and(self):
        p_and, a_and = _gate_output("AND2", [(0.4, 0.1), (0.6, 0.3)])
        p_nand, a_nand = _gate_output("NAND2", [(0.4, 0.1), (0.6, 0.3)])
        assert p_nand == pytest.approx(1 - p_and)
        assert a_nand == pytest.approx(a_and)

    def test_xor_toggle_composition(self):
        prob, act = _gate_output("XOR2", [(0.5, 0.1), (0.5, 0.2)])
        assert prob == pytest.approx(0.5)
        # exactly-one-input-toggles: 0.1*0.8 + 0.2*0.9
        assert act == pytest.approx(0.26)

    def test_mux_select_mixing(self):
        prob, _ = _gate_output("MUX2", [(1.0, 0.0), (0.0, 0.0),
                                        (0.5, 0.0)])
        assert prob == pytest.approx(0.5)

    def test_xor_zero_delay_toggle(self):
        _, act = _gate_output("XOR2", [(0.5, 0.9), (0.5, 0.9)])
        # both inputs flipping cancels: 0.9*0.1 + 0.9*0.1
        assert act == pytest.approx(0.18)


class TestPropagation:
    def chain(self, lib, n, function="INV"):
        nl = Netlist("chain")
        nl.add_port("in", INPUT)
        prev = PinRef(port="in")
        last = None
        for i in range(n):
            c = nl.add_instance(f"c{i}", lib.master(f"{function}_X1"))
            nl.add_net(f"n{i}", prev, [PinRef(inst=c.id, pin=0)])
            prev = PinRef(inst=c.id)
            last = c
        f = nl.add_instance("f", lib.master("DFF_X1"))
        nl.add_net("nD", prev, [PinRef(inst=f.id, pin=0)])
        nl.add_port("clk", INPUT)
        nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
                   is_clock=True)
        return nl

    def test_inverter_chain_keeps_activity(self, lib):
        nl = self.chain(lib, 5)
        sig = propagate_activity(nl, input_activity=0.25)
        acts = {nl.nets[n].name: s[1] for n, s in sig.items()}
        assert acts["nD"] == pytest.approx(0.25)

    def test_and_tree_attenuates_activity(self, lib):
        nl = Netlist("tree")
        refs = []
        for i in range(4):
            nl.add_port(f"in{i}", INPUT)
            refs.append(PinRef(port=f"in{i}"))
        g1 = nl.add_instance("g1", lib.master("AND2_X1"))
        g2 = nl.add_instance("g2", lib.master("AND2_X1"))
        g3 = nl.add_instance("g3", lib.master("AND2_X1"))
        nl.add_net("a", refs[0], [PinRef(inst=g1.id, pin=0)])
        nl.add_net("b", refs[1], [PinRef(inst=g1.id, pin=1)])
        nl.add_net("c", refs[2], [PinRef(inst=g2.id, pin=0)])
        nl.add_net("d", refs[3], [PinRef(inst=g2.id, pin=1)])
        nl.add_net("e", PinRef(inst=g1.id), [PinRef(inst=g3.id, pin=0)])
        nl.add_net("f", PinRef(inst=g2.id), [PinRef(inst=g3.id, pin=1)])
        out = nl.add_instance("cap", lib.master("DFF_X1"))
        nl.add_net("y", PinRef(inst=g3.id), [PinRef(inst=out.id, pin=0)])
        sig = propagate_activity(nl, input_activity=0.3)
        by_name = {nl.nets[n].name: s for n, s in sig.items()}
        assert by_name["y"][0] == pytest.approx(0.5 ** 4)
        assert by_name["y"][1] < 0.3

    def test_generated_block_converges(self, lib):
        from tests.conftest import fresh_block
        gb = fresh_block("ncu", lib, seed=30)
        sig = propagate_activity(gb.netlist)
        non_clock = [n for n in gb.netlist.nets.values()
                     if not n.is_clock]
        assert len(sig) == len(non_clock)
        for prob, act in sig.values():
            assert 0.0 <= prob <= 1.0
            assert 0.0 <= act <= 1.0

    def test_apply_activity_and_power_shift(self, lib, proc):
        from tests.conftest import fresh_block
        from repro.place.placer2d import PlacementConfig, place_block_2d
        gb = fresh_block("ncu", lib, seed=31)
        place_block_2d(gb.netlist, PlacementConfig(seed=31))
        routing = route_block(gb.netlist, proc.metal_stack)
        flat = analyze_power(gb.netlist, routing, proc, CPU_CLOCK)
        sig = propagate_activity(gb.netlist, input_activity=0.15)
        updated = apply_activity(gb.netlist, sig)
        assert updated == len(sig)
        propagated = analyze_power(gb.netlist, routing, proc, CPU_CLOCK)
        # function-dependent activities shift net power away from the
        # flat assumption but stay in a physical band
        assert propagated.net_uw != pytest.approx(flat.net_uw, rel=0.02)
        assert 0.3 * flat.net_uw < propagated.net_uw < 3.0 * flat.net_uw
        per_net = [n.activity for n in gb.netlist.nets.values()
                   if n.activity is not None]
        assert min(per_net) < 0.05  # attenuated control cones exist
        assert max(per_net) > 0.3   # XOR datapath nets switch more
