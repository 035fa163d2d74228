"""Tests for the STA engine, mostly against hand-computed netlists."""

import pytest

from repro.netlist.core import INPUT, OUTPUT, Netlist, PinRef
from repro.route.estimate import route_block
from repro.tech.process import CPU_CLOCK, make_process
from repro.timing.sta import (MACRO_SETUP_PS, SETUP_PS, TimingConfig,
                              run_sta)


@pytest.fixture(scope="module")
def lib():
    return make_process().library


def build_pipeline(lib, n_stages=3, spacing=50.0):
    """ff0 -> inv x n_stages -> ff1, all at known positions."""
    nl = Netlist("pipe")
    dff = lib.master("DFF_X1")
    inv = lib.master("INV_X2")
    ff0 = nl.add_instance("ff0", dff, x=0.0, y=0.0)
    prev = ff0
    insts = [ff0]
    for i in range(n_stages):
        c = nl.add_instance(f"i{i}", inv, x=(i + 1) * spacing, y=0.0)
        nl.add_net(f"n{i}", PinRef(inst=prev.id), [PinRef(inst=c.id, pin=0)])
        insts.append(c)
        prev = c
    ff1 = nl.add_instance("ff1", dff, x=(n_stages + 1) * spacing, y=0.0)
    nl.add_net("nD", PinRef(inst=prev.id), [PinRef(inst=ff1.id, pin=0)])
    nl.add_port("clk", INPUT)
    nl.add_net("clk", PinRef(port="clk"),
               [PinRef(inst=ff0.id, pin=1), PinRef(inst=ff1.id, pin=1)],
               is_clock=True)
    insts.append(ff1)
    return nl, insts


def run(nl, process, **cfg):
    routing = route_block(nl, process.metal_stack)
    timing = TimingConfig(clock_domain=CPU_CLOCK, **cfg)
    return run_sta(nl, routing, process, timing), routing


def test_pipeline_arrival_is_sum_of_stage_delays(lib, process):
    nl, insts = build_pipeline(lib, n_stages=2)
    sta, routing = run(nl, process)
    # recompute by hand
    expected = 0.0
    for inst in insts[:-1]:
        net = nl.output_net_of(inst.id)
        routed = routing.of(net.id)
        load = routed.total_cap_ff
        expected += inst.master.delay_ps(load)
        expected += routed.sink_wire_delay_ps(routed.sinks[0])
    last_driver = insts[-2]
    assert sta.arrival[last_driver.id] + \
        routing.of(nl.output_net_of(last_driver.id).id).sink_wire_delay_ps(
            routing.of(nl.output_net_of(last_driver.id).id).sinks[0]) == \
        pytest.approx(expected)


def test_slack_equals_period_minus_setup_minus_arrival(lib, process):
    nl, insts = build_pipeline(lib, n_stages=2)
    sta, routing = run(nl, process)
    last = insts[-2]  # drives ff1's D pin
    net = nl.output_net_of(last.id)
    wire = routing.of(net.id).sink_wire_delay_ps(routing.of(net.id).sinks[0])
    period = process.clock_period_ps(CPU_CLOCK)
    expected_slack = (period - SETUP_PS - wire) - sta.arrival[last.id]
    assert sta.slack[last.id] == pytest.approx(expected_slack)


def test_deeper_pipeline_has_less_slack(lib, process):
    nl3, _ = build_pipeline(lib, n_stages=3)
    nl8, _ = build_pipeline(lib, n_stages=8)
    s3, _ = run(nl3, process)
    s8, _ = run(nl8, process)
    assert s8.wns_ps < s3.wns_ps


def test_longer_wires_reduce_slack(lib, process):
    near, _ = build_pipeline(lib, spacing=20.0)
    far, _ = build_pipeline(lib, spacing=400.0)
    s_near, _ = run(near, process)
    s_far, _ = run(far, process)
    assert s_far.wns_ps < s_near.wns_ps


def test_io_budget_tightens_output_paths(lib, process):
    nl = Netlist("io")
    inv = lib.master("INV_X2")
    a = nl.add_instance("a", inv, x=0, y=0)
    f = nl.add_instance("f", lib.master("DFF_X1"), x=0, y=0)
    nl.add_port("out", OUTPUT)
    nl.add_port("clk", INPUT)
    nl.add_net("q", PinRef(inst=f.id), [PinRef(inst=a.id, pin=0)])
    nl.add_net("o", PinRef(inst=a.id), [PinRef(port="out")])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
               is_clock=True)
    loose, _ = run(nl, process, default_io_delay_ps=0.0)
    tight, _ = run(nl, process, default_io_delay_ps=400.0)
    assert tight.slack[a.id] == pytest.approx(
        loose.slack[a.id] - 400.0)


def test_io_budget_delays_input_arrivals(lib, process):
    nl = Netlist("io2")
    a = nl.add_instance("a", lib.master("INV_X2"), x=0, y=0)
    f = nl.add_instance("f", lib.master("DFF_X1"), x=0, y=0)
    nl.add_port("in", INPUT)
    nl.add_port("clk", INPUT)
    nl.add_net("i", PinRef(port="in"), [PinRef(inst=a.id, pin=0)])
    nl.add_net("d", PinRef(inst=a.id), [PinRef(inst=f.id, pin=0)])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
               is_clock=True)
    loose, _ = run(nl, process, default_io_delay_ps=0.0)
    tight, _ = run(nl, process, default_io_delay_ps=300.0)
    assert tight.arrival[a.id] == pytest.approx(
        loose.arrival[a.id] + 300.0)


def test_per_port_io_delays_override_default(lib, process):
    nl = Netlist("io3")
    a = nl.add_instance("a", lib.master("INV_X2"))
    f = nl.add_instance("f", lib.master("DFF_X1"))
    nl.add_port("in", INPUT)
    nl.add_port("clk", INPUT)
    nl.add_net("i", PinRef(port="in"), [PinRef(inst=a.id, pin=0)])
    nl.add_net("d", PinRef(inst=a.id), [PinRef(inst=f.id, pin=0)])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
               is_clock=True)
    routing = route_block(nl, process.metal_stack)
    base = run_sta(nl, routing, process,
                   TimingConfig(CPU_CLOCK, io_delays={"in": 0.0},
                                default_io_delay_ps=500.0))
    assert base.arrival[a.id] < 500.0


def test_macro_launches_at_access_time(lib, process):
    from repro.tech.macros import sram_macro
    nl = Netlist("mac")
    ram = sram_macro(2)
    m = nl.add_instance("ram", ram, x=0, y=0)
    a = nl.add_instance("a", lib.master("INV_X2"), x=10, y=0)
    f = nl.add_instance("f", lib.master("DFF_X1"), x=20, y=0)
    nl.add_port("clk", INPUT)
    nl.add_net("q", PinRef(inst=m.id, pin=0), [PinRef(inst=a.id, pin=0)])
    nl.add_net("d", PinRef(inst=a.id), [PinRef(inst=f.id, pin=0)])
    nl.add_net("clk", PinRef(port="clk"),
               [PinRef(inst=f.id, pin=1), PinRef(inst=m.id, pin=ram.n_io)],
               is_clock=True)
    sta, _ = run(nl, process)
    assert sta.arrival[m.id] == pytest.approx(ram.intrinsic_delay_ps)
    assert sta.arrival[a.id] > ram.intrinsic_delay_ps


def test_macro_input_capture_uses_macro_setup(lib, process):
    from repro.tech.macros import sram_macro
    nl = Netlist("mac2")
    ram = sram_macro(2)
    m = nl.add_instance("ram", ram, x=0, y=0)
    a = nl.add_instance("a", lib.master("INV_X2"), x=0, y=0)
    f = nl.add_instance("f", lib.master("DFF_X1"), x=0, y=0)
    nl.add_port("clk", INPUT)
    nl.add_net("q", PinRef(inst=f.id), [PinRef(inst=a.id, pin=0)])
    nl.add_net("w", PinRef(inst=a.id), [PinRef(inst=m.id, pin=1000)])
    nl.add_net("clk", PinRef(port="clk"),
               [PinRef(inst=f.id, pin=1), PinRef(inst=m.id, pin=ram.n_io)],
               is_clock=True)
    sta, routing = run(nl, process)
    period = process.clock_period_ps(CPU_CLOCK)
    net = nl.output_net_of(a.id)
    wire = routing.of(net.id).sink_wire_delay_ps(routing.of(net.id).sinks[0])
    assert sta.required[a.id] == pytest.approx(
        period - MACRO_SETUP_PS - wire)


def test_met_property(lib, process):
    nl, _ = build_pipeline(lib, n_stages=1)
    sta, _ = run(nl, process)
    assert sta.met
    assert sta.tns_ps == 0.0


def test_generated_block_sta_runs(library, process):
    from tests.conftest import fresh_block
    from repro.place.placer2d import PlacementConfig, place_block_2d
    gb = fresh_block("ncu", library, seed=11)
    place_block_2d(gb.netlist, PlacementConfig(seed=11))
    routing = route_block(gb.netlist, process.metal_stack)
    sta = run_sta(gb.netlist, routing, process, TimingConfig(CPU_CLOCK))
    assert sta.slack  # nonempty
    assert all(s > -10000 for s in sta.slack.values())
