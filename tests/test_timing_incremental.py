"""Incremental STA must agree exactly with from-scratch STA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.estimate import route_block
from repro.timing.incremental import IncrementalSTA
from repro.timing.sta import TimingConfig, run_sta
from tests.conftest import fresh_block


@pytest.fixture()
def setup(library, process):
    gb = fresh_block("ncu", library, seed=23)
    place_block_2d(gb.netlist, PlacementConfig(seed=23))
    routing = route_block(gb.netlist, process.metal_stack)
    config = TimingConfig("cpu_clk", default_io_delay_ps=50.0)
    return gb.netlist, routing, config


def assert_same(snap, full):
    """Values AND dict key order (downstream consumers iterate them)."""
    assert snap.period_ps == full.period_ps
    for fld in ("arrival", "required", "slack"):
        assert list(getattr(snap, fld).items()) == \
            list(getattr(full, fld).items()), fld
    assert snap.wns_ps == full.wns_ps
    assert snap.tns_ps == full.tns_ps


def assert_exact(inc, netlist, process, config):
    """to_result() must equal run_sta over a *fresh* route exactly."""
    fresh_routing = route_block(netlist, process.metal_stack)
    assert_same(inc.to_result(),
                run_sta(netlist, fresh_routing, process, config))


def variant_for(library, master, kind):
    """A resized or re-Vth'd master for ``kind`` in 0..3 (or None)."""
    if kind == 0:
        return library.upsize(master)
    if kind == 1:
        return library.downsize(master)
    if kind == 2:
        return library.variant(master, vth="HVT")
    return library.variant(master, vth="RVT")


def test_initial_state_matches(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    inc.to_result().arrival.clear()   # a snapshot is the caller's copy
    assert_exact(inc, netlist, process, config)


def test_single_upsize_matches(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    cell = next(c for c in netlist.cells
                if not c.is_sequential and c.master.drive == 2)
    inc.swap_masters([(cell.id, process.library.upsize(cell.master))])
    assert_exact(inc, netlist, process, config)


def test_vth_swap_matches(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    cell = next(c for c in netlist.cells if not c.is_sequential)
    hvt = process.library.variant(cell.master, vth="HVT")
    inc.swap_masters([(cell.id, hvt)])
    assert_exact(inc, netlist, process, config)


def test_many_random_swaps_match(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    rng = np.random.default_rng(0)
    cells = [c for c in netlist.cells if not c.is_sequential]
    for _ in range(40):
        cell = cells[int(rng.integers(0, len(cells)))]
        if rng.random() < 0.5:
            new = process.library.upsize(cell.master) or \
                process.library.downsize(cell.master)
        else:
            new = process.library.downsize(cell.master) or \
                process.library.upsize(cell.master)
        if new is not None:
            inc.swap_masters([(cell.id, new)])
    assert_exact(inc, netlist, process, config)


def test_noop_swap_is_stable(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    before = inc.to_result()
    cell = next(iter(netlist.cells))
    assert inc.swap_masters([(cell.id, cell.master)]) == 0
    assert_same(inc.to_result(), before)
    assert_exact(inc, netlist, process, config)


def test_batched_swaps_match_exactly(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    cells = [c for c in netlist.cells if not c.is_sequential]
    moves = []
    for kind, cell in enumerate(cells[:60]):
        new = variant_for(process.library, cell.master, kind % 3)
        if new is not None and new is not cell.master:
            moves.append((cell.id, new))
    applied = inc.swap_masters(moves)
    assert applied == len(moves)
    assert_exact(inc, netlist, process, config)


def test_apply_routing_update_matches_exactly(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    # mutate masters and parasitics behind the view's back
    cells = [c for c in netlist.cells if not c.is_sequential][:20]
    for cell in cells:
        new = process.library.downsize(cell.master) or \
            process.library.upsize(cell.master)
        netlist.replace_master(cell.id, new)
    routing.update_instances(netlist, [c.id for c in cells])
    inc.apply_routing_update()
    assert_exact(inc, netlist, process, config)


def test_try_swap_accepts_and_reverts_exactly(setup, process):
    netlist, routing, config = setup
    inc = IncrementalSTA(netlist, routing, process, config)
    base = inc.to_result()
    cell = max((netlist.instances[i] for i in base.slack
                if not netlist.instances[i].is_macro
                and process.library.downsize(
                    netlist.instances[i].master) is not None),
               key=lambda c: base.slack[c.id])
    smaller = process.library.downsize(cell.master)
    # a huge margin forces a revert; state must be restored exactly
    assert not inc.try_swap(cell.id, smaller, min_slack_ps=1e12)
    assert netlist.instances[cell.id].master is cell.master
    assert_same(inc.to_result(), base)
    assert_exact(inc, netlist, process, config)
    # an impossible-to-miss margin accepts, and the view stays exact
    assert inc.try_swap(cell.id, smaller, min_slack_ps=-1e12)
    assert netlist.instances[cell.id].master is smaller
    assert_exact(inc, netlist, process, config)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_property_random_move_batches_exact(library, process, data):
    """Random upsize/downsize/HVT batches: exact equality after each."""
    gb = fresh_block("ncu", library, seed=23)
    place_block_2d(gb.netlist, PlacementConfig(seed=23))
    netlist = gb.netlist
    routing = route_block(netlist, process.metal_stack)
    config = TimingConfig("cpu_clk", default_io_delay_ps=50.0)
    inc = IncrementalSTA(netlist, routing, process, config)
    cells = [c.id for c in netlist.cells if not c.is_sequential]
    n_batches = data.draw(st.integers(1, 3), label="batches")
    for _ in range(n_batches):
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, len(cells) - 1),
                               st.integers(0, 3)),
                     min_size=1, max_size=25), label="moves")
        moves = []
        for idx, kind in picks:
            iid = cells[idx]
            new = variant_for(library, netlist.instances[iid].master,
                              kind)
            if new is not None:
                moves.append((iid, new))
        inc.swap_masters(moves)
        assert_exact(inc, netlist, process, config)
