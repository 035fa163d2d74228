"""Tests for the power analysis, including hand-computed checks."""

import pytest

from repro.cts.tree import CTSResult
from repro.netlist.core import Netlist, PinRef
from repro.power.analysis import MACRO_ACTIVITY, PowerReport, analyze_power
from repro.route.estimate import route_block
from repro.tech.process import CPU_CLOCK, IO_CLOCK, make_process


@pytest.fixture(scope="module")
def proc():
    return make_process()


@pytest.fixture(scope="module")
def lib(proc):
    return proc.library


def pair_netlist(lib, dx=100.0):
    nl = Netlist("p")
    a = nl.add_instance("a", lib.master("INV_X2"), x=0, y=0)
    b = nl.add_instance("b", lib.master("INV_X2"), x=dx, y=0)
    nl.add_net("n", PinRef(inst=a.id), [PinRef(inst=b.id, pin=0)])
    return nl, a, b


def test_net_power_hand_check(proc, lib):
    nl, a, b = pair_netlist(lib, dx=100.0)
    routing = route_block(nl, proc.metal_stack)
    report = analyze_power(nl, routing, proc, CPU_CLOCK, activity=0.2)
    routed = next(iter(routing.nets.values()))
    f = proc.clock_freq_ghz[CPU_CLOCK]
    v2 = proc.vdd ** 2
    expected_wire = 0.2 * routed.wire_cap_ff * v2 * f
    expected_pin = 0.2 * b.master.input_cap_ff * v2 * f
    assert report.wire_uw == pytest.approx(expected_wire)
    assert report.pin_uw == pytest.approx(expected_pin)
    assert report.net_uw == pytest.approx(expected_wire + expected_pin)


def test_cell_power_hand_check(proc, lib):
    nl, a, b = pair_netlist(lib)
    routing = route_block(nl, proc.metal_stack)
    report = analyze_power(nl, routing, proc, CPU_CLOCK, activity=0.2)
    f = proc.clock_freq_ghz[CPU_CLOCK]
    expected = 2 * 0.2 * a.master.internal_energy_fj * f
    assert report.cell_uw == pytest.approx(expected)
    assert report.leakage_uw == pytest.approx(2 * a.master.leakage_uw)


def test_flops_switch_at_full_activity(proc, lib):
    nl = Netlist("f")
    f0 = nl.add_instance("f0", lib.master("DFF_X1"))
    c = nl.add_instance("c", lib.master("INV_X2"))
    nl.add_net("q", PinRef(inst=f0.id), [PinRef(inst=c.id, pin=0)])
    routing = route_block(nl, proc.metal_stack)
    r = analyze_power(nl, routing, proc, CPU_CLOCK, activity=0.1)
    f = proc.clock_freq_ghz[CPU_CLOCK]
    expected = (1.0 * f0.master.internal_energy_fj +
                0.1 * c.master.internal_energy_fj) * f
    assert r.cell_uw == pytest.approx(expected)


def test_macro_power_terms(proc, lib):
    from repro.tech.macros import sram_macro
    nl = Netlist("m")
    ram = sram_macro(4)
    m = nl.add_instance("ram", ram)
    c = nl.add_instance("c", lib.master("INV_X2"))
    nl.add_net("q", PinRef(inst=m.id, pin=0), [PinRef(inst=c.id, pin=0)])
    routing = route_block(nl, proc.metal_stack)
    r = analyze_power(nl, routing, proc, CPU_CLOCK)
    f = proc.clock_freq_ghz[CPU_CLOCK]
    assert r.macro_uw == pytest.approx(
        MACRO_ACTIVITY * ram.access_energy_fj * f + ram.leakage_uw)
    assert r.leakage_uw >= ram.leakage_uw


def test_io_clock_halves_dynamic_power(proc, lib):
    nl1, *_ = pair_netlist(lib)
    routing1 = route_block(nl1, proc.metal_stack)
    cpu = analyze_power(nl1, routing1, proc, CPU_CLOCK)
    io = analyze_power(nl1, routing1, proc, IO_CLOCK)
    assert io.net_uw == pytest.approx(cpu.net_uw / 2)
    assert io.cell_uw == pytest.approx(cpu.cell_uw / 2)
    assert io.leakage_uw == pytest.approx(cpu.leakage_uw)


def test_per_net_activity_override(proc, lib):
    nl, a, b = pair_netlist(lib)
    net = nl.output_net_of(a.id)
    net.activity = 0.5
    routing = route_block(nl, proc.metal_stack)
    low = analyze_power(nl, routing, proc, CPU_CLOCK, activity=0.1)
    net.activity = None
    base = analyze_power(nl, routing, proc, CPU_CLOCK, activity=0.1)
    assert low.net_uw == pytest.approx(5 * base.net_uw)


def test_clock_tree_power_added(proc, lib):
    nl, a, b = pair_netlist(lib)
    routing = route_block(nl, proc.metal_stack)
    cts = CTSResult(n_buffers=10, wirelength_um=1000.0,
                    sink_pin_cap_ff=50.0,
                    buffer_master=lib.buffer(8), n_sinks=60, levels=3)
    with_cts = analyze_power(nl, routing, proc, CPU_CLOCK, cts=cts)
    without = analyze_power(nl, routing, proc, CPU_CLOCK)
    assert with_cts.total_uw > without.total_uw
    assert with_cts.clock_uw > 0
    f = proc.clock_freq_ghz[CPU_CLOCK]
    v2 = proc.vdd ** 2
    expected_clock_net = (cts.wire_cap_ff + 50.0) * v2 * f
    assert with_cts.net_uw - without.net_uw == pytest.approx(
        expected_clock_net)


def test_report_algebra():
    a = PowerReport(cell_uw=10, net_uw=20, leakage_uw=5)
    b = PowerReport(cell_uw=1, net_uw=2, leakage_uw=3)
    s = a.plus(b)
    assert s.total_uw == pytest.approx(41)
    k = a.scaled(3)
    assert k.cell_uw == 30 and k.total_uw == pytest.approx(105)
    assert a.net_fraction == pytest.approx(20 / 35)
    assert PowerReport().net_fraction == 0.0
