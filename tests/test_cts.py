"""Tests for clock tree synthesis."""

import pytest

from repro.cts.tree import clock_sinks, synthesize_clock_tree
from repro.netlist.core import INPUT, Netlist, PinRef
from repro.place.placer2d import PlacementConfig, place_block_2d
from tests.conftest import fresh_block


def grid_of_flops(lib, n=64, pitch=100.0, die=0):
    nl = Netlist("flops")
    dff = lib.master("DFF_X1")
    sinks = []
    side = int(n ** 0.5)
    for i in range(n):
        f = nl.add_instance(f"f{i}", dff, x=(i % side) * pitch,
                            y=(i // side) * pitch, die=die)
        sinks.append(PinRef(inst=f.id, pin=1))
    nl.add_port("clk", INPUT)
    nl.add_net("clk", PinRef(port="clk"), sinks, is_clock=True)
    return nl


def test_all_sinks_collected(library):
    nl = grid_of_flops(library)
    sinks = clock_sinks(nl)
    assert len(sinks[0]) == 64
    assert len(sinks[1]) == 0


def test_tree_covers_all_sinks(library, process):
    nl = grid_of_flops(library)
    cts = synthesize_clock_tree(nl, process)
    assert cts.n_sinks == 64
    assert cts.n_buffers >= 64 // 12
    assert cts.levels >= 3
    assert cts.wirelength_um > 0
    assert cts.via_crossings == 0


def test_sink_cap_sums_clock_pins(library, process):
    nl = grid_of_flops(library, n=16)
    cts = synthesize_clock_tree(nl, process)
    per_pin = library.flop().clock_pin_cap_ff
    assert cts.sink_pin_cap_ff == pytest.approx(16 * per_pin)


def test_bigger_footprint_longer_clock_tree(library, process):
    near = synthesize_clock_tree(grid_of_flops(library, pitch=50.0),
                                 process)
    far = synthesize_clock_tree(grid_of_flops(library, pitch=200.0),
                                process)
    assert far.wirelength_um > 2 * near.wirelength_um
    assert far.n_buffers == near.n_buffers  # same sink count


def test_folded_block_crosses_once(library, process):
    nl = grid_of_flops(library, n=32, die=0)
    # move half the flops to die 1
    for i, inst in enumerate(nl.instances.values()):
        if i % 2:
            inst.die = 1
    cts = synthesize_clock_tree(nl, process)
    assert cts.via_crossings == 1


def test_empty_netlist(library, process):
    nl = Netlist("empty")
    cts = synthesize_clock_tree(nl, process)
    assert cts.n_sinks == 0
    assert cts.n_buffers == 0


def test_merge_results(library, process):
    a = synthesize_clock_tree(grid_of_flops(library, n=16), process)
    b = synthesize_clock_tree(grid_of_flops(library, n=16), process)
    m = a.merged_with(b)
    assert m.n_buffers == a.n_buffers + b.n_buffers
    assert m.n_sinks == 32
    assert m.wirelength_um == pytest.approx(
        a.wirelength_um + b.wirelength_um)


def test_generated_block_cts(library, process):
    gb = fresh_block("l2t", library, seed=2)
    place_block_2d(gb.netlist, PlacementConfig(seed=2))
    cts = synthesize_clock_tree(gb.netlist, process)
    flops = sum(1 for i in gb.netlist.instances.values()
                if i.is_sequential)
    assert cts.n_sinks >= flops  # flops + macro clock pins
