"""Tests for repeater insertion."""

import pytest

from repro.netlist.core import INPUT, Netlist, PinRef
from repro.opt import buffering
from repro.opt.buffering import (apply_buffer_plan, optimal_spacing_um,
                                 plan_buffers)
from repro.route.estimate import route_block
from repro.tech.cells import make_28nm_library
from repro.tech.layers import make_28nm_stack
from repro.timing.incremental import IncrementalSTA
from repro.timing.sta import TimingConfig


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


@pytest.fixture(scope="module")
def stack():
    return make_28nm_stack()


def buffer_pass(nl, routing, lib, process):
    """One buffering pass planned on a live view, then committed;
    returns the buffers added."""
    view = IncrementalSTA(nl, routing, process, TimingConfig("cpu_clk"))
    return apply_buffer_plan(nl, plan_buffers(nl, view, lib)).added


def long_net(lib, length=2000.0):
    nl = Netlist("long")
    a = nl.add_instance("a", lib.master("INV_X2"), x=0, y=0)
    b = nl.add_instance("b", lib.master("INV_X2"), x=length, y=0)
    net = nl.add_net("n", PinRef(inst=a.id), [PinRef(inst=b.id, pin=0)])
    return nl, net, a, b


def fanout_net(lib, n_sinks=40):
    nl = Netlist("fan")
    a = nl.add_instance("a", lib.master("INV_X2"), x=0, y=0)
    sinks = []
    for i in range(n_sinks):
        # keep the spread small so the cap trigger (not the long-wire
        # chain trigger) fires
        c = nl.add_instance(f"s{i}", lib.master("INV_X2"),
                            x=(i % 8) * 10.0, y=(i // 8) * 10.0)
        sinks.append(PinRef(inst=c.id, pin=0))
    net = nl.add_net("n", PinRef(inst=a.id), sinks)
    return nl, net, a


def test_optimal_spacing_positive(lib, stack):
    r, c = stack.effective_rc(4, 6)
    sp = optimal_spacing_um(lib.buffer(4), r, c)
    assert 30.0 < sp < 400.0


def test_long_net_gets_chain(lib, stack, process):
    nl, net, a, b = long_net(lib)
    routing = route_block(nl, stack)
    added = buffer_pass(nl, routing, lib, process)
    assert added >= 3
    assert nl.num_buffers == 2 + added  # a and b are INVs (repeaters)
    assert nl.validate() == []
    # the original net id survives, driven by the last chain buffer
    assert net.id in nl.nets
    assert nl.instances[net.driver.inst].master.function == "BUF"


def test_chain_shortens_sink_paths(lib, stack, process):
    nl, net, a, b = long_net(lib)
    routing = route_block(nl, stack)
    buffer_pass(nl, routing, lib, process)
    rerouted = route_block(nl, stack)
    worst = max(max((s.path_len_um for s in r.sinks), default=0)
                for r in rerouted.nets.values())
    assert worst < 2000.0


def test_short_net_untouched(lib, stack, process):
    nl, net, a, b = long_net(lib, length=30.0)
    routing = route_block(nl, stack)
    assert buffer_pass(nl, routing, lib, process) == 0
    assert nl.num_cells == 2


def test_fanout_net_gets_groups(lib, stack, process, monkeypatch):
    nl, net, a = fanout_net(lib)
    routing = route_block(nl, stack)
    monkeypatch.setattr(buffering, "CAP_LIMIT_FF", 30.0)
    monkeypatch.setattr(buffering, "GROUP_SIZE", 8)
    added = buffer_pass(nl, routing, lib, process)
    assert added >= 4
    # the original net now drives only buffers
    for s in net.sinks:
        assert nl.instances[s.inst].master.function == "BUF"
    assert nl.validate() == []


def test_fanout_groups_preserve_sink_count(lib, stack, process,
                                           monkeypatch):
    nl, net, a = fanout_net(lib, n_sinks=30)
    routing = route_block(nl, stack)
    monkeypatch.setattr(buffering, "CAP_LIMIT_FF", 30.0)
    monkeypatch.setattr(buffering, "GROUP_SIZE", 10)
    buffer_pass(nl, routing, lib, process)
    # every original sink still driven by exactly one net
    sink_nets = 0
    for n in nl.nets.values():
        for s in n.sinks:
            if not s.is_port and nl.instances[s.inst].name.startswith("s"):
                sink_nets += 1
    assert sink_nets == 30


def test_clock_nets_never_buffered(lib, stack, process):
    nl = Netlist("clk")
    nl.add_port("clk", INPUT)
    sinks = [PinRef(inst=nl.add_instance(
        f"f{i}", lib.master("DFF_X1"), x=i * 500.0, y=0).id, pin=1)
        for i in range(10)]
    nl.add_net("clk", PinRef(port="clk"), sinks, is_clock=True)
    routing = route_block(nl, stack)
    assert buffer_pass(nl, routing, lib, process) == 0


def test_max_buffers_cap(lib, stack, process, monkeypatch):
    nl = Netlist("many")
    for k in range(30):
        a = nl.add_instance(f"a{k}", lib.master("INV_X2"), x=0, y=k * 20)
        b = nl.add_instance(f"b{k}", lib.master("INV_X2"), x=3000,
                            y=k * 20)
        nl.add_net(f"n{k}", PinRef(inst=a.id), [PinRef(inst=b.id, pin=0)])
    routing = route_block(nl, stack)
    monkeypatch.setattr(buffering, "MAX_NEW_BUFFERS_PER_PASS", 10)
    added = buffer_pass(nl, routing, lib, process)
    assert added <= 10 + 8  # cap checked per net batch


def test_crossing_net_chain_stays_on_driver_die(lib, stack, process):
    nl, net, a, b = long_net(lib)
    b.die = 1
    routing = route_block(nl, stack, via=process.tsv,
                          via_sites={net.id: (1000.0, 0.0)})
    buffer_pass(nl, routing, lib, process)
    for inst in nl.instances.values():
        if inst.name.startswith("rep_"):
            assert inst.die == 0
