"""The array planners equal the per-candidate oracles, and no timing
graph outlives the view that owns it."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

import repro.opt.flow as opt_flow
from repro.core.flow import FlowConfig, run_block_flow
from repro.eco import EcoConfig, EcoSession, derive_design
from repro.opt.buffering import plan_buffers
from repro.opt.dualvth import plan_hvt_swaps
from repro.opt.flow import optimize_block
from repro.opt.sizing import plan_downsizes
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.estimate import NetArrays, RouteContext
from repro.tech.process import CPU_CLOCK
from repro.timing.graph import TimingGraph
from repro.timing.sta import TimingConfig
from tests.conftest import folded_ctx, fresh_block
from tests.oracles import opt_scalar


def assert_same_moves(got, want):
    """Same ``(instance id, master)`` list: order, and masters by ``is``."""
    assert [iid for iid, _ in got] == [iid for iid, _ in want]
    assert all(a is b for (_, a), (_, b) in zip(got, want))


def checked_planners(monkeypatch, calls):
    """Swap the optimizer's planners for ones that also run the oracle
    on ``view.to_result()`` and assert both plan the same moves."""

    def buffers(netlist, view, library):
        got = plan_buffers(netlist, view, library)
        assert got == opt_scalar.plan_buffers(netlist, view.routing,
                                              library)
        assert all(a.buf is b.buf for a, b in zip(
            got, opt_scalar.plan_buffers(netlist, view.routing, library)))
        calls["buffers"] += 1
        calls["buffer plans"] += len(got)
        return got

    def downsizes(netlist, view, library):
        got = plan_downsizes(netlist, view, library)
        assert_same_moves(got, opt_scalar.plan_downsizes(
            netlist, view.routing, view.to_result(), library))
        calls["downsizes"] += 1
        calls["downsize moves"] += len(got)
        return got

    def hvt(netlist, view, library):
        got = plan_hvt_swaps(netlist, view, library)
        assert_same_moves(got, opt_scalar.plan_hvt_swaps(
            netlist, view.routing, view.to_result(), library))
        calls["hvt"] += 1
        calls["hvt moves"] += len(got)
        return got

    monkeypatch.setattr(opt_flow, "plan_buffers", buffers)
    monkeypatch.setattr(opt_flow, "plan_downsizes", downsizes)
    monkeypatch.setattr(opt_flow, "plan_hvt_swaps", hvt)


@pytest.mark.parametrize("bonding", [None, "F2F", "F2B"],
                         ids=["2d", "F2F", "F2B"])
def test_array_planners_match_the_oracles_at_every_chunk(
        library, process, monkeypatch, bonding):
    """Every planner call of a dual-Vth ``optimize_block`` on l2t (which
    carries SRAM macros the planners must mask), in 2D and on min-cut
    F2F / F2B folds."""
    gb = fresh_block("l2t", library, seed=27)
    assert gb.netlist.macros
    if bonding is None:
        place_block_2d(gb.netlist, PlacementConfig(seed=27))
        ctx = RouteContext(stack=process.metal_stack)
    else:
        ctx = folded_ctx(gb, process, bonding, seed=27)
    calls: Counter = Counter()
    checked_planners(monkeypatch, calls)
    res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK), ctx,
                         dual_vth=True)
    assert calls["buffers"] and calls["downsizes"] and calls["hvt"]
    assert calls["downsize moves"] == res.downsized > 0
    assert calls["hvt moves"] >= res.hvt_swaps > 0


def test_planners_on_an_adopted_snapshot_match_the_oracles(process):
    """A derived session's view builds its graph on the planner's first
    read and plans what the oracles plan on the adopted STA."""
    base = run_block_flow("l2t", FlowConfig(scale=0.12, seed=7),
                          process)
    session = EcoSession.from_design(base, process)
    lib = process.library
    netlist, view = session.netlist, session.view
    assert view._graph is None
    assert_same_moves(plan_hvt_swaps(netlist, view, lib),
                      opt_scalar.plan_hvt_swaps(netlist, session.routing,
                                                base.sta, lib))
    assert_same_moves(plan_downsizes(netlist, view, lib),
                      opt_scalar.plan_downsizes(netlist, session.routing,
                                                base.sta, lib))
    assert session.stats["sta_full_rebuilds"] == 0


def live_graphs():
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, (TimingGraph, NetArrays))]


def test_no_graph_outlives_its_view(library, process, monkeypatch):
    """Finished and derived designs hold no timing graph or net arrays,
    and an optimizer session's graph dies when ``optimize_block``
    returns."""
    before = live_graphs()

    def born_since():
        return [o for o in live_graphs()
                if not any(o is b for b in before)]

    base = run_block_flow("l2t", FlowConfig(scale=0.12, seed=7),
                          process)
    assert born_since() == []
    derived, _ = derive_design(
        base, replace(base.config, io_budget_ps=90.0, dual_vth=True,
                      eco=EcoConfig()), process)
    assert derived.sta.slack
    assert born_since() == []

    graphs = []

    class Recording(EcoSession):
        def sta(self):
            graphs.append(weakref.ref(self.view.graph))
            return super().sta()

    monkeypatch.setattr(opt_flow, "EcoSession", Recording)
    gb = fresh_block("ncu", library, seed=21)
    place_block_2d(gb.netlist, PlacementConfig(seed=21))
    res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                         RouteContext(stack=process.metal_stack))
    assert res.sta.slack and graphs
    assert graphs[-1]() is None
    assert born_since() == []
