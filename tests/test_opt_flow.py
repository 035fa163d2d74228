"""Tests for the staged optimization loop."""

import pytest

from repro.obs import trace
from repro.obs.metrics import metrics
from repro.obs.names import CTR_OPT_FULL_REROUTES, SPAN_STA_RETIME
from repro.opt import flow as opt_flow
from repro.opt import sizing
from repro.opt.flow import optimize_block
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.power.analysis import analyze_power
from repro.route.estimate import RouteContext
from repro.tech.process import CPU_CLOCK
from repro.timing.sta import TimingConfig
from tests.conftest import folded_ctx, fresh_block
from tests.oracles import timing_scalar
from tests.oracles.eco_full import use_oracle


def prepared(library, name="ncu", seed=21):
    gb = fresh_block(name, library, seed=seed)
    place_block_2d(gb.netlist, PlacementConfig(seed=seed))
    return gb


def ctx_for(process):
    return RouteContext(stack=process.metal_stack)


def test_optimization_closes_timing(library, process):
    gb = prepared(library)
    timing = TimingConfig(CPU_CLOCK)
    res = optimize_block(gb.netlist, process, timing, ctx_for(process))
    assert res.sta.wns_ps >= -20.0  # at worst a rounding sliver
    assert gb.netlist.validate() == []


def test_power_recovery_beats_timing_only_flow(library, process,
                                               monkeypatch):
    ctx = ctx_for(process)
    # a flow whose power stage is disabled (downsizing margin too high
    # to ever fire) vs the default staged flow on the same block
    timing_only = prepared(library, "l2t", seed=22)
    with monkeypatch.context() as mp:
        mp.setattr(sizing, "DOWNSIZE_MARGIN_PS", 1e9)
        res_t = optimize_block(timing_only.netlist, process,
                               TimingConfig(CPU_CLOCK), ctx)
    full = prepared(library, "l2t", seed=22)
    res_f = optimize_block(full.netlist, process, TimingConfig(CPU_CLOCK),
                           ctx)
    p_t = analyze_power(timing_only.netlist, res_t.routing, process,
                        CPU_CLOCK, cts=res_t.cts)
    p_f = analyze_power(full.netlist, res_f.routing, process, CPU_CLOCK,
                        cts=res_f.cts)
    assert res_t.downsized == 0 and res_f.downsized > 0
    assert p_f.total_uw < p_t.total_uw


def test_counters_populated(library, process):
    gb = prepared(library, "l2t", seed=23)
    res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                         ctx_for(process))
    assert res.downsized > 0
    assert res.buffers_added >= 0
    assert res.cts.n_sinks > 0


def test_dual_vth_flag(library, process):
    gb = prepared(library, seed=24)
    res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                         ctx_for(process), dual_vth=True)
    from repro.opt.dualvth import hvt_fraction
    assert res.hvt_swaps > 0
    assert hvt_fraction(gb.netlist) > 0.5
    assert res.sta.wns_ps >= -20.0


def test_rvt_only_run_has_no_swaps(library, process):
    gb = prepared(library, seed=25)
    res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                         ctx_for(process), dual_vth=False)
    assert res.hvt_swaps == 0
    from repro.opt.dualvth import hvt_fraction
    assert hvt_fraction(gb.netlist) == 0.0


def test_tight_budget_raises_power(library, process):
    loose = prepared(library, "l2t", seed=26)
    res_loose = optimize_block(loose.netlist, process,
                               TimingConfig(CPU_CLOCK),
                               ctx_for(process))
    tight = prepared(library, "l2t", seed=26)
    res_tight = optimize_block(
        tight.netlist, process,
        TimingConfig(CPU_CLOCK, default_io_delay_ps=300.0),
        ctx_for(process))
    p_loose = analyze_power(loose.netlist, res_loose.routing, process,
                            CPU_CLOCK, cts=res_loose.cts)
    p_tight = analyze_power(tight.netlist, res_tight.routing, process,
                            CPU_CLOCK, cts=res_tight.cts)
    # the paper's mechanism: tighter I/O budgets block downsizing
    assert p_tight.total_uw > p_loose.total_uw * 0.98

# --- live-edit session: parity, counters -------------------------------


def masters_equal(a, b):
    """Same master (by value) on every instance of two same-shape nets."""
    if set(a.instances) != set(b.instances):
        return False
    for iid, inst in a.instances.items():
        ma, mb = inst.master, b.instances[iid].master
        if ma is not mb and (ma.name, getattr(ma, "size", None),
                             getattr(ma, "vth", None)) != \
                (mb.name, getattr(mb, "size", None),
                 getattr(mb, "vth", None)):
            return False
    return True


@pytest.mark.parametrize("bonding", [None, "F2F", "F2B"],
                         ids=["2d", "F2F", "F2B"])
def test_incremental_matches_full_recompute(library, process, bonding,
                                            monkeypatch):
    """The incremental core and the full-recompute oracle agree
    bit-for-bit, on a 2D block and on min-cut folds whose crossing nets
    route through F2F or F2B via sites."""
    if bonding is None:
        inc = prepared(library, "l2t", seed=27)
        full = prepared(library, "l2t", seed=27)
        ctx_i = ctx_f = ctx_for(process)
    else:
        inc = fresh_block("l2t", library, seed=27)
        full = fresh_block("l2t", library, seed=27)
        ctx_i = folded_ctx(inc, process, bonding, seed=27)
        ctx_f = folded_ctx(full, process, bonding, seed=27)
        assert ctx_i == ctx_f
    timing = TimingConfig(CPU_CLOCK)
    m = metrics()
    before = m.counter(CTR_OPT_FULL_REROUTES).value
    res_i = optimize_block(inc.netlist, process, timing, ctx_i,
                           dual_vth=True)
    assert m.counter(CTR_OPT_FULL_REROUTES).value - before == 1
    with monkeypatch.context() as mp:
        oracles = use_oracle(mp, opt_flow)
        res_f = optimize_block(full.netlist, process, timing, ctx_f,
                               dual_vth=True)
    assert (res_i.buffers_added, res_i.upsized, res_i.downsized,
            res_i.hvt_swaps) == (res_f.buffers_added, res_f.upsized,
                                 res_f.downsized, res_f.hvt_swaps)
    assert masters_equal(inc.netlist, full.netlist)
    assert list(res_i.sta.arrival) == list(res_f.sta.arrival)
    assert res_i.sta.arrival == res_f.sta.arrival
    assert res_i.sta.required == res_f.sta.required
    assert res_i.sta.slack == res_f.sta.slack
    assert res_i.sta.wns_ps == res_f.sta.wns_ps
    assert res_i.sta.tns_ps == res_f.sta.tns_ps
    assert list(res_i.routing.nets) == list(res_f.routing.nets)
    assert res_i.routing == res_f.routing
    # the oracle's end state is the scalar STA oracle's on its routing
    # (on the folds, through-via sinks carry the via RC term)
    ref = timing_scalar.run_sta(full.netlist, res_f.routing, process,
                                timing)
    assert list(ref.arrival) == list(res_f.sta.arrival)
    assert ref == res_f.sta
    # the whole point: the incremental loop routes the block only once,
    # the oracle after every chunk
    assert len(oracles) == 1 and oracles[0].stats["full_reroutes"] > 0


def test_oracle_recomputes_every_edit(library, process, monkeypatch):
    """The full-recompute oracle routes the whole block after each
    edit and times every read on a view built from scratch: no swap
    patch, topology patch, routing update or retarget reaches a live
    view."""
    gb = prepared(library, "l2t", seed=27)
    routes = []
    route_block = RouteContext.route_block

    def counted(ctx, netlist):
        routes.append(netlist)
        return route_block(ctx, netlist)

    monkeypatch.setattr(RouteContext, "route_block", counted)
    tracer = trace.Tracer()
    with monkeypatch.context() as mp, trace.use_tracer(tracer):
        oracles = use_oracle(mp, opt_flow)
        res = optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                             ctx_for(process), dual_vth=True)
    assert res.downsized > 0 and res.hvt_swaps > 0
    stats = oracles[0].stats
    assert len(routes) == 1 + stats["full_reroutes"] > 2
    kinds = [sp.attrs["kind"] for sp in tracer.spans
             if sp.name == SPAN_STA_RETIME]
    assert set(kinds) == {"build"}
    assert len(kinds) == stats["sta_full_rebuilds"] > 2


def test_incremental_reuse_counters_visible(library, process):
    from repro.obs.names import CTR_ROUTE_NETS_REEXTRACTED
    m = metrics()
    before_nets = m.counter(CTR_ROUTE_NETS_REEXTRACTED).value
    before_routes = m.counter(CTR_OPT_FULL_REROUTES).value
    gb = prepared(library, seed=28)
    optimize_block(gb.netlist, process, TimingConfig(CPU_CLOCK),
                   ctx_for(process))
    assert m.counter(CTR_ROUTE_NETS_REEXTRACTED).value > before_nets
    assert m.counter(CTR_OPT_FULL_REROUTES).value - before_routes == 1
