"""Parity harness: levelized array timing engine vs the scalar oracle.

The vectorized STA/hold/SI/extraction kernels are gated by this suite:
the legacy per-net / per-instance walks live on verbatim in
:mod:`tests.oracles.timing_scalar`, and every case here runs both on
the same placed design and demands
*bit-exact* equality -- not just the float values but the emission
order of every result dict (``arrival`` / ``required`` / hold ``slack``
are ordered the way the legacy Kahn walk produced them, and downstream
consumers iterate them).

Coverage: the five standard blocks in 2D, both bonding styles on a
folded block (F2B via TSV sites, F2F via the via planner), SI derating
from a detailed router's usage maps, the cache-invalidation seams
(``rev`` / ``mrev``), hypothesis properties over timing configs and
master swaps, the engine counters, and the inputs the engine rejects.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.folding import FoldSpec, make_partition
from repro.netlist.core import INPUT, Netlist, PinRef
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.names import (CTR_ROUTE_NETS_EXTRACTED_BATCH,
                             CTR_STA_LEVELS, CTR_STA_VECTOR_PASSES)
from repro.place import PlacementConfig, fold_place_3d, place_block_2d
from repro.route import route_block
from repro.route.block_router import route_block_with_router
from repro.timing import TimingConfig, run_sta
from repro.timing.graph import graph_for
from repro.timing.hold import run_hold_analysis
from repro.timing.paths import io_path_delays
from repro.timing.si import derate_routing
from tests.conftest import fresh_block
from tests.oracles import timing_scalar as oracle

BLOCKS = ["spc", "l2d", "l2t", "l2b", "ccx"]


def assert_sta_equal(vec, ref):
    """Values AND dict emission order must match the scalar walk."""
    assert vec.period_ps == ref.period_ps
    for fld in ("arrival", "required", "slack"):
        va, ra = getattr(vec, fld), getattr(ref, fld)
        assert list(va.items()) == list(ra.items()), fld
    assert vec.wns_ps == ref.wns_ps
    assert vec.tns_ps == ref.tns_ps


def assert_routing_equal(vec, ref):
    assert list(vec.nets.keys()) == list(ref.nets.keys())
    for nid, routed in vec.nets.items():
        assert routed == ref.nets[nid], f"net {nid}"


def analysis_sweep(nl, routing, process, cfg, hold_ps=15.0, engine=None):
    """setup + hold + I/O halves through the library or ``engine``."""
    if engine is None:
        return (run_sta(nl, routing, process, cfg),
                run_hold_analysis(nl, routing, process, cfg,
                                  hold_ps=hold_ps),
                io_path_delays(nl, routing, process, cfg))
    return (engine.run_sta(nl, routing, process, cfg),
            engine.run_hold_analysis(nl, routing, process, cfg,
                                     hold_ps=hold_ps),
            engine.io_path_delays(nl, routing, process, cfg))


def assert_both_paths_match(nl, process, cfg, max_metal=7, via=None,
                            via_sites=None):
    """Route + full analysis sweep through both engines, bit-exact."""
    r_vec = route_block(nl, process.metal_stack, max_metal=max_metal,
                        via=via, via_sites=via_sites)
    sweep_vec = analysis_sweep(nl, r_vec, process, cfg)
    r_ref = oracle.route_block(nl, process.metal_stack,
                               max_metal=max_metal, via=via,
                               via_sites=via_sites)
    sweep_ref = analysis_sweep(nl, r_ref, process, cfg, engine=oracle)

    assert_routing_equal(r_vec, r_ref)
    assert_sta_equal(sweep_vec[0], sweep_ref[0])
    assert (list(sweep_vec[1].slack.items()) ==
            list(sweep_ref[1].slack.items()))
    assert sweep_vec[1].whs_ps == sweep_ref[1].whs_ps
    assert sweep_vec[1].violations == sweep_ref[1].violations
    assert sweep_vec[2] == sweep_ref[2]


class TestFlatBlockParity:
    @pytest.mark.parametrize("name", BLOCKS)
    def test_route_sta_hold_io_bit_exact(self, library, process, name):
        gb = fresh_block(name, library, seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        cfg = TimingConfig("cpu_clk")
        assert_both_paths_match(gb.netlist, process, cfg)

    def test_io_delays_and_false_paths(self, library, process):
        gb = fresh_block("ccx", library, seed=2)
        nl = gb.netlist
        place_block_2d(nl, PlacementConfig(seed=2))
        ports = list(nl.ports.values())
        inp = next(p for p in ports if p.direction == "in")
        out = next(p for p in ports if p.direction == "out")
        out.false_path = True
        cfg = TimingConfig("cpu_clk", io_delays={inp.name: 120.0},
                           default_io_delay_ps=35.0)
        assert_both_paths_match(nl, process, cfg)

    def test_engine_counters_on_l2t(self, library, process):
        reg = MetricsRegistry()
        with use_registry(reg):
            gb = fresh_block("l2t", library, seed=1)
            place_block_2d(gb.netlist, PlacementConfig(seed=1))
            routing = route_block(gb.netlist, process.metal_stack)
            analysis_sweep(gb.netlist, routing, process,
                           TimingConfig("cpu_clk"))
        counters = reg.snapshot()["counters"]
        assert counters.get(CTR_STA_LEVELS, 0) > 0
        assert counters.get(CTR_STA_VECTOR_PASSES, 0) > 0
        assert counters.get(CTR_ROUTE_NETS_EXTRACTED_BATCH, 0) > 0


class TestFoldedBlockParity:
    def folded(self, library, process, bonding):
        gb = fresh_block("ccx", library, seed=1)
        assignment = make_partition(gb, FoldSpec(mode="mincut"))
        fres = fold_place_3d(gb.netlist, process, assignment, bonding,
                             PlacementConfig(seed=1))
        via = process.via_for(bonding)
        if bonding == "F2F":
            from repro.route.route3d import place_f2f_vias
            plan = place_f2f_vias(gb.netlist, fres.outline, process)
            sites, max_metal = dict(plan.sites), 9
        else:
            sites = {v.net_id: (v.x, v.y) for v in fres.vias}
            max_metal = 7
        return gb.netlist, via, sites, max_metal

    @pytest.mark.parametrize("bonding", ["F2B", "F2F"])
    def test_bonding_style_bit_exact(self, library, process, bonding):
        nl, via, sites, max_metal = self.folded(library, process,
                                                bonding)
        cfg = TimingConfig("cpu_clk")
        assert_both_paths_match(nl, process, cfg, max_metal=max_metal,
                                via=via, via_sites=sites)


class TestSiParity:
    def test_derate_bit_exact(self, library, process):
        gb = fresh_block("ncu", library, seed=1)
        nl = gb.netlist
        outline = place_block_2d(nl, PlacementConfig(seed=1)).outline
        routing, _, router = route_block_with_router(
            nl, process.metal_stack, outline)
        d_vec, rep_vec = derate_routing(nl, routing, router)
        d_ref, rep_ref = oracle.derate_routing(nl, routing, router)
        assert_routing_equal(d_vec, d_ref)
        assert rep_vec == rep_ref


class TestCopyAndCaches:
    def routed_ncu(self, library, process):
        gb = fresh_block("ncu", library, seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        return gb.netlist, route_block(gb.netlist, process.metal_stack)

    def test_routed_net_copy_covers_every_field(self, library, process):
        nl, routing = self.routed_ncu(library, process)
        routed = next(iter(routing.nets.values()))
        dup = routed.copy()
        assert dup == routed and dup is not routed
        assert dup.sinks is not routed.sinks
        # dataclass equality walks every field, but guard the deep part:
        # sink mutations must not leak back into the original
        if dup.sinks:
            assert dup.sinks[0] is not routed.sinks[0]
            dup.sinks[0].path_len_um += 1.0
            assert dup.sinks[0] != routed.sinks[0]
        assert {f.name for f in dataclasses.fields(dup)} == \
               {f.name for f in dataclasses.fields(routed)}

    def test_net_arrays_cached_until_netlist_rev_bumps(self, library,
                                                       process):
        nl, routing = self.routed_ncu(library, process)
        a1 = routing.net_arrays(nl)
        assert routing.net_arrays(nl) is a1
        buf = process.library.master("BUF_X1")
        nl.add_instance("parity_pad", buf, x=1.0, y=1.0)
        assert routing.net_arrays(nl) is not a1

    def test_refresh_invalidates_net_arrays(self, library, process):
        nl, routing = self.routed_ncu(library, process)
        a1 = routing.net_arrays(nl)
        some_inst = next(i.id for i in nl.cells)
        routing.update_instances(nl, [some_inst])
        assert routing.net_arrays(nl) is not a1

    def test_graph_cached_until_master_rev_bumps(self, library,
                                                 process):
        nl, routing = self.routed_ncu(library, process)
        g1 = graph_for(nl, routing)
        assert graph_for(nl, routing) is g1
        cell = next(c for c in nl.cells if not c.is_sequential)
        swap = (process.library.downsize(cell.master) or
                process.library.upsize(cell.master))
        assert swap is not None
        nl.replace_master(cell.id, swap)
        g2 = graph_for(nl, routing)
        assert g2 is not g1
        # and the rebuilt graph still matches the scalar walk
        cfg = TimingConfig("cpu_clk")
        assert_sta_equal(run_sta(nl, routing, process, cfg),
                         oracle.run_sta(nl, routing, process, cfg))


@pytest.fixture(scope="module")
def ncu_workload(library, process):
    gb = fresh_block("ncu", library, seed=1)
    place_block_2d(gb.netlist, PlacementConfig(seed=1))
    routing = route_block(gb.netlist, process.metal_stack)
    return gb.netlist, routing


class TestProperties:
    """Hypothesis sweeps over both engines."""

    @settings(max_examples=20, deadline=None)
    @given(default_io=st.floats(0.0, 400.0),
           io_delay=st.floats(0.0, 400.0),
           hold_ps=st.floats(0.0, 60.0),
           port_pick=st.integers(0, 31))
    def test_config_sweep_bit_exact(self, ncu_workload, process,
                                    default_io, io_delay, hold_ps,
                                    port_pick):
        nl, routing = ncu_workload
        ports = list(nl.ports.values())
        port = ports[port_pick % len(ports)]
        cfg = TimingConfig("cpu_clk",
                           io_delays={port.name: io_delay},
                           default_io_delay_ps=default_io)
        assert_sta_equal(run_sta(nl, routing, process, cfg),
                         oracle.run_sta(nl, routing, process, cfg))
        hv = run_hold_analysis(nl, routing, process, cfg, hold_ps=hold_ps)
        hr = oracle.run_hold_analysis(nl, routing, process, cfg,
                                      hold_ps=hold_ps)
        assert list(hv.slack.items()) == list(hr.slack.items())
        assert (hv.whs_ps, hv.violations) == (hr.whs_ps, hr.violations)
        assert (io_path_delays(nl, routing, process, cfg) ==
                oracle.io_path_delays(nl, routing, process, cfg))

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 10_000), min_size=1,
                          max_size=40))
    def test_master_swaps_stay_bit_exact(self, ncu_workload, process,
                                         picks):
        # cumulative sizing swaps: every mrev bump must rebuild the
        # cached graph into something that still mirrors the scalar walk
        nl, routing = ncu_workload
        lib = process.library
        cells = [c for c in nl.cells if not c.is_sequential]
        for p in picks:
            cell = cells[p % len(cells)]
            swap = lib.downsize(cell.master) or lib.upsize(cell.master)
            if swap is not None:
                nl.replace_master(cell.id, swap)
        cfg = TimingConfig("cpu_clk")
        assert_sta_equal(run_sta(nl, routing, process, cfg),
                         oracle.run_sta(nl, routing, process, cfg))


def loop_netlist(lib):
    """in -> a <-> b (a 2-cell combinational loop) -> flop."""
    nl = Netlist("loop")
    inv, dff = lib.master("INV_X2"), lib.master("DFF_X1")
    a = nl.add_instance("loop_a", inv, x=0.0, y=0.0)
    b = nl.add_instance("loop_b", inv, x=20.0, y=0.0)
    f = nl.add_instance("cap", dff, x=40.0, y=0.0)
    nl.add_port("in", INPUT)
    nl.add_port("clk", INPUT)
    nl.add_net("n_in", PinRef(port="in"), [PinRef(inst=a.id, pin=0)])
    nl.add_net("n_ab", PinRef(inst=a.id),
               [PinRef(inst=b.id, pin=0), PinRef(inst=f.id, pin=0)])
    nl.add_net("n_ba", PinRef(inst=b.id), [PinRef(inst=a.id, pin=1)])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
               is_clock=True)
    return nl


def routed_flop_to_inv(lib, process):
    """(netlist, routing, net ``n_q``, its inverter sink), routed."""
    nl = Netlist("flop_inv")
    f = nl.add_instance("launch", lib.master("DFF_X1"), x=0.0, y=0.0)
    a = nl.add_instance("sink", lib.master("INV_X2"), x=20.0, y=0.0)
    nl.add_port("clk", INPUT)
    q = nl.add_net("n_q", PinRef(inst=f.id), [PinRef(inst=a.id, pin=0)])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=f.id, pin=1)],
               is_clock=True)
    return nl, route_block(nl, process.metal_stack), q, a


class TestRejectedInputs:
    """Malformed snapshots fail loudly instead of changing engines."""

    @pytest.mark.parametrize("analysis", [run_sta, run_hold_analysis,
                                          io_path_delays],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", ["loop", "removed_sink"])
    def test_rejected_with_named_cells_or_net(self, library, process,
                                              analysis, case):
        if case == "loop":
            nl = loop_netlist(library)
            routing = route_block(nl, process.metal_stack)
            match = r"combinational cycle.*'loop_a', 'loop_b'"
        else:
            nl, routing, _, sink = routed_flop_to_inv(library, process)
            nl.instances.pop(sink.id)   # bypasses remove_instance's guard
            match = r"dangling endpoint.*'n_q'"
        with pytest.raises(ValueError, match=match):
            analysis(nl, routing, process, TimingConfig("cpu_clk"))

    def test_stale_routing_rejected_by_setup_sta_only(self, library,
                                                      process):
        nl, routing, net, _ = routed_flop_to_inv(library, process)
        late = nl.add_instance("late", library.master("INV_X2"), x=40.0)
        nl.add_sink(net.id, PinRef(inst=late.id, pin=0))
        cfg = TimingConfig("cpu_clk")
        with pytest.raises(ValueError, match=r"stale routing.*'n_q'"):
            run_sta(nl, routing, process, cfg)
        # hold walks the routed sinks, so the stale net is still usable
        assert run_hold_analysis(nl, routing, process, cfg).met
