"""Incremental STA must agree exactly with from-scratch STA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eco import Displace, EcoSession
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.names import CTR_STA_GRAPH_BUILDS, SPAN_STA_RETIME
from repro.opt import buffering
from repro.opt.buffering import plan_buffers
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.route.estimate import RouteContext, route_block
from repro.timing.incremental import IncrementalSTA
from repro.timing.sta import TimingConfig, run_sta
from tests.conftest import folded_ctx, fresh_block


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


@pytest.fixture(scope="module", params=[None, "F2F", "F2B"],
                ids=["2d", "F2F", "F2B"])
def placed(request, library, process):
    """ncu placed in 2D, or min-cut folded with F2F or F2B vias, and
    the route context of its flow (read-only: examples clone it)."""
    gb = fresh_block("ncu", library, seed=23)
    if request.param is None:
        place_block_2d(gb.netlist, PlacementConfig(seed=23))
        ctx = RouteContext(stack=process.metal_stack)
    else:
        ctx = folded_ctx(gb, process, request.param, seed=23)
        routing = ctx.route_block(gb.netlist)
        assert any(r.via is not None and any(s.through_via
                                             for s in r.sinks)
                   for r in routing.nets.values())
    return gb.netlist, ctx


def assert_exact_on(view, ctx, process):
    """The view equals run_sta over a fresh route from ``ctx``."""
    fresh = ctx.route_block(view.netlist)
    assert_same(view.to_result(),
                run_sta(view.netlist, fresh, process, view.config))


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


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_property_random_edit_interleavings_exact(placed, library,
                                                  process, data):
    """Random interleavings of every edit kind on one live view: swap
    batches and swap-backs, rejected and accepted ``try_swap``,
    committed buffers, displacements and retargets, in 2D and on F2F /
    F2B folds (whose through-via sinks carry the via RC term).  The
    view must equal a fresh route + ``run_sta`` after each edit."""
    base, ctx = placed
    netlist = base.clone()
    session = EcoSession(netlist, ctx.route_block(netlist), process,
                         TimingConfig("cpu_clk", default_io_delay_ps=50.0),
                         ctx)
    view = session.view
    cells = [c.id for c in netlist.cells if not c.is_sequential]
    last: list = []
    for _ in range(data.draw(st.integers(1, 6), label="edits")):
        kind = data.draw(st.sampled_from(
            ["swaps", "swap_back", "try_reject", "try_accept",
             "buffers", "displace", "retarget"]), label="kind")
        if kind == "swaps":
            picks = data.draw(
                st.lists(st.tuples(st.integers(0, len(cells) - 1),
                                   st.integers(0, 3)),
                         min_size=1, max_size=25), label="moves")
            moves, last = [], []
            for idx, k in picks:
                inst = netlist.instances[cells[idx]]
                new = variant_for(library, inst.master, k)
                if new is not None:
                    last.append((inst.id, inst.master))
                    moves.append((inst.id, new))
            view.swap_masters(moves)
        elif kind == "swap_back":
            view.swap_masters(last[::-1])
            last = []
        elif kind in ("try_reject", "try_accept"):
            iid = cells[data.draw(st.integers(0, len(cells) - 1),
                                  label="cell")]
            master = netlist.instances[iid].master
            new = library.downsize(master) or library.upsize(master)
            before = view.to_result()
            kept = view.try_swap(iid, new, min_slack_ps=(
                1e12 if kind == "try_reject" else -1e12))
            assert kept == (kind == "try_accept")
            if not kept:
                assert netlist.instances[iid].master is master
                assert_same(view.to_result(), before)
        elif kind == "buffers":
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(buffering, "CAP_LIMIT_FF", 0.0)
                mp.setattr(buffering, "GROUP_SIZE", 2)
                mp.setattr(buffering, "MAX_NEW_BUFFERS_PER_PASS", 2)
                plans = plan_buffers(netlist, view, library)
            session.commit_buffers(plans)
            cells = [c.id for c in netlist.cells if not c.is_sequential]
        elif kind == "displace":
            iid = cells[data.draw(st.integers(0, len(cells) - 1),
                                  label="cell")]
            inst = netlist.instances[iid]
            session.apply([Displace(inst_id=iid, x=inst.x + 30.0,
                                    y=inst.y - 20.0)])
        else:
            session.retarget(TimingConfig("cpu_clk", default_io_delay_ps=(
                data.draw(st.sampled_from([0.0, 80.0, 200.0]),
                          label="io"))))
        assert session.view is view
        assert_exact_on(view, ctx, process)


def test_constructor_builds_one_graph(setup, process):
    """A new view times the block in one ``build`` re-time."""
    netlist, routing, config = setup
    registry, tracer = MetricsRegistry(), trace.Tracer()
    with use_registry(registry), trace.use_tracer(tracer):
        view = IncrementalSTA(netlist, routing, process, config)
    assert [(sp.name, sp.attrs) for sp in tracer.spans] == \
        [(SPAN_STA_RETIME, {"kind": "build"})]
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 1
    assert_exact(view, netlist, process, config)


def test_swap_batch_patches_and_topology_rebuilds(setup, process):
    """A swap batch re-times in one ``sta.retime`` span of kind
    ``swap`` and builds no graph; ``patch_topology`` builds one."""
    netlist, routing, config = setup
    view = IncrementalSTA(netlist, routing, process, config)
    cells = [c for c in netlist.cells if not c.is_sequential][:30]
    moves = [(c.id, process.library.variant(c.master, vth="HVT"))
             for c in cells]
    registry, tracer = MetricsRegistry(), trace.Tracer()
    with use_registry(registry), trace.use_tracer(tracer):
        assert view.swap_masters(moves) == len(moves)
    assert [(sp.name, sp.attrs) for sp in tracer.spans] == \
        [(SPAN_STA_RETIME, {"kind": "swap"})]
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 0
    registry, tracer = MetricsRegistry(), trace.Tracer()
    with use_registry(registry), trace.use_tracer(tracer):
        view.patch_topology()
    assert [(sp.name, sp.attrs) for sp in tracer.spans] == \
        [(SPAN_STA_RETIME, {"kind": "topology"})]
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 1
    assert_exact(view, netlist, process, config)


def test_swap_that_changes_a_cell_class_rebuilds(setup, process):
    """A swap that turns a combinational cell into a flop re-seeds the
    levelization, so the view rebuilds its graph instead of patching."""
    netlist, routing, config = setup
    view = IncrementalSTA(netlist, routing, process, config)
    cell = next(c for c in netlist.cells if c.master.function == "INV")
    registry = MetricsRegistry()
    with use_registry(registry):
        view.swap_masters([(cell.id, process.library.flop())])
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 1
    assert view.graph.is_seq[view.graph.iids == cell.id].all()
    assert_exact(view, netlist, process, config)


def test_snapshot_view_builds_on_first_use(setup, process):
    """An adopted snapshot builds no graph until an edit or an array
    read needs one, and then times exactly."""
    netlist, routing, config = setup
    snapshot = run_sta(netlist, routing, process, config)
    registry = MetricsRegistry()
    with use_registry(registry):
        view = IncrementalSTA.from_snapshot(netlist, routing, process,
                                            config, snapshot)
        assert_same(view.to_result(), snapshot)
        assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 0
        nodes, slack = view.slacks()
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 1
    assert view.graph.iids[nodes].tolist() == list(snapshot.slack)
    assert slack.tolist() == list(snapshot.slack.values())
    assert_exact(view, netlist, process, config)


def test_rejected_try_swap_on_a_snapshot_builds_once(setup, process):
    """On an adopted snapshot the swap builds the graph and the revert
    patches it: one build, and the prior result comes back."""
    netlist, routing, config = setup
    snapshot = run_sta(netlist, routing, process, config)
    view = IncrementalSTA.from_snapshot(netlist, routing, process,
                                        config, snapshot)
    lib = process.library
    cell = next(c for c in netlist.cells if not c.is_sequential
                and lib.variant(c.master, vth="HVT") is not c.master)
    registry, tracer = MetricsRegistry(), trace.Tracer()
    with use_registry(registry), trace.use_tracer(tracer):
        assert not view.try_swap(cell.id, lib.variant(cell.master,
                                                      vth="HVT"),
                                 min_slack_ps=1e12)
    assert [sp.attrs["kind"] for sp in tracer.spans] == ["swap", "swap"]
    assert registry.counter(CTR_STA_GRAPH_BUILDS).value == 1
    assert_same(view.to_result(), snapshot)
    assert_exact(view, netlist, process, config)
