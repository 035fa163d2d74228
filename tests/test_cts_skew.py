"""Tests for CTS skew and insertion-delay analysis."""

from repro.cts.tree import synthesize_clock_tree
from repro.netlist.core import INPUT, Netlist, PinRef
from tests.conftest import fresh_block


def grid_of_flops(lib, n=64, pitch=100.0, jitter=0.0, seed=0):
    import numpy as np
    rng = np.random.default_rng(seed)
    nl = Netlist("flops")
    dff = lib.master("DFF_X1")
    sinks = []
    side = int(n ** 0.5)
    for i in range(n):
        x = (i % side) * pitch + float(rng.uniform(-jitter, jitter))
        y = (i // side) * pitch + float(rng.uniform(-jitter, jitter))
        f = nl.add_instance(f"f{i}", dff, x=x, y=y)
        sinks.append(PinRef(inst=f.id, pin=1))
    nl.add_port("clk", INPUT)
    nl.add_net("clk", PinRef(port="clk"), sinks, is_clock=True)
    return nl


def test_skew_nonnegative_and_below_insertion(library, process):
    nl = grid_of_flops(library, jitter=40.0, seed=1)
    cts = synthesize_clock_tree(nl, process)
    assert cts.max_insertion_ps > 0
    assert 0.0 <= cts.skew_ps <= cts.max_insertion_ps


def test_regular_grid_has_low_skew(library, process):
    regular = synthesize_clock_tree(grid_of_flops(library), process)
    ragged = synthesize_clock_tree(
        grid_of_flops(library, jitter=150.0, seed=2), process)
    assert regular.skew_ps <= ragged.skew_ps + 1e-9


def test_bigger_footprint_more_insertion_delay(library, process):
    near = synthesize_clock_tree(grid_of_flops(library, pitch=50.0),
                                 process)
    far = synthesize_clock_tree(grid_of_flops(library, pitch=400.0),
                                process)
    assert far.max_insertion_ps > near.max_insertion_ps


def test_two_tier_tree_tracks_insertion_gap(library, process):
    nl = grid_of_flops(library, n=32)
    for i, inst in enumerate(nl.instances.values()):
        inst.die = i % 2
    cts = synthesize_clock_tree(nl, process)
    assert cts.via_crossings == 1
    assert cts.skew_ps >= 0.0


def test_folded_block_skew_finite(library, process):
    from repro.place.partition import fm_bipartition
    from repro.place.placer2d import PlacementConfig
    from repro.place.placer3d import fold_place_3d
    gb = fresh_block("l2t", library, seed=9)
    part = fm_bipartition(gb.netlist, seed=0)
    fold_place_3d(gb.netlist, process, part.assignment, "F2F",
                  PlacementConfig(seed=9))
    cts = synthesize_clock_tree(gb.netlist, process)
    assert cts.skew_ps < cts.max_insertion_ps
    assert cts.max_insertion_ps < 1000.0
