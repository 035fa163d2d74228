"""Tests for hold-time analysis and fixing."""

import pytest

from repro.cts.tree import synthesize_clock_tree
from repro.netlist.core import INPUT, Netlist, PinRef
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.estimate import route_block
from repro.tech.process import make_process
from repro.timing.hold import fix_hold, run_hold_analysis
from repro.timing.sta import HOLD_PS, TimingConfig
from tests.conftest import fresh_block


@pytest.fixture(scope="module")
def proc():
    return make_process()


def flop_to_flop(lib, n_stages=0, spacing=5.0):
    """ff0 -> [inv stages] -> ff1 with tiny wires (hold-risky)."""
    nl = Netlist("hold")
    dff = lib.master("DFF_X1")
    ff0 = nl.add_instance("ff0", dff, x=0, y=0)
    prev = PinRef(inst=ff0.id)
    for i in range(n_stages):
        c = nl.add_instance(f"i{i}", lib.master("INV_X2"),
                            x=(i + 1) * spacing, y=0)
        nl.add_net(f"n{i}", prev, [PinRef(inst=c.id, pin=0)])
        prev = PinRef(inst=c.id)
    ff1 = nl.add_instance("ff1", dff, x=(n_stages + 1) * spacing, y=0)
    nl.add_net("nD", prev, [PinRef(inst=ff1.id, pin=0)])
    nl.add_port("clk", INPUT)
    nl.add_net("clk", PinRef(port="clk"),
               [PinRef(inst=ff0.id, pin=1), PinRef(inst=ff1.id, pin=1)],
               is_clock=True)
    return nl, ff1


def analyze(nl, proc, hold_ps=HOLD_PS):
    routing = route_block(nl, proc.metal_stack)
    return run_hold_analysis(nl, routing, proc,
                             TimingConfig("cpu_clk"),
                             hold_ps=hold_ps), routing


def test_direct_flop_to_flop_meets_default_hold(proc):
    lib = proc.library
    nl, ff1 = flop_to_flop(lib)
    hold, _ = analyze(nl, proc)
    # clk->q (~50ps) beats the 15ps hold window
    assert hold.slack[ff1.id] > 0
    assert hold.met


def test_large_hold_requirement_violates(proc):
    lib = proc.library
    nl, ff1 = flop_to_flop(lib)
    hold, _ = analyze(nl, proc, hold_ps=400.0)
    assert hold.slack[ff1.id] < 0
    assert hold.violations == 1
    assert not hold.met


def test_logic_stages_add_min_delay(proc):
    lib = proc.library
    fast, _ = analyze(flop_to_flop(lib, n_stages=0)[0], proc)
    slow, _ = analyze(flop_to_flop(lib, n_stages=4)[0], proc)
    assert min(slow.slack.values()) > min(fast.slack.values())


def test_skew_tightens_hold(proc):
    lib = proc.library
    nl, ff1 = flop_to_flop(lib)
    routing = route_block(nl, proc.metal_stack)
    from repro.cts.tree import CTSResult
    skewed = CTSResult(n_buffers=1, wirelength_um=0, sink_pin_cap_ff=0,
                       buffer_master=lib.buffer(), n_sinks=2, levels=1,
                       skew_ps=40.0)
    base = run_hold_analysis(nl, routing, proc, TimingConfig("cpu_clk"))
    tight = run_hold_analysis(nl, routing, proc, TimingConfig("cpu_clk"),
                              cts=skewed)
    assert tight.slack[ff1.id] == pytest.approx(
        base.slack[ff1.id] - 40.0)


def test_fix_hold_pads_violators(proc):
    lib = proc.library
    nl, ff1 = flop_to_flop(lib)
    hold, routing = analyze(nl, proc, hold_ps=200.0)
    assert hold.slack[ff1.id] < 0
    added = fix_hold(nl, routing, hold, proc)
    assert added >= 1
    assert nl.validate() == []
    hold2, _ = analyze(nl, proc, hold_ps=200.0)
    assert hold2.slack[ff1.id] > hold.slack[ff1.id]


def test_generated_block_hold_clean(library, proc):
    gb = fresh_block("ncu", library, seed=17)
    place_block_2d(gb.netlist, PlacementConfig(seed=17))
    routing = route_block(gb.netlist, proc.metal_stack)
    cts = synthesize_clock_tree(gb.netlist, proc)
    hold = run_hold_analysis(gb.netlist, routing, proc,
                             TimingConfig("cpu_clk"), cts=cts)
    assert hold.slack
    # generated blocks have >= 1 logic stage on register paths, so the
    # default hold window with measured skew is comfortably met
    assert hold.whs_ps > -50.0
