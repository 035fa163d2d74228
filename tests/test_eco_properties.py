"""Property harness: the ECO engine is bit-exact, atomic and stable.

The central invariant: applying any random move batch through the
incremental session produces *byte-identical* state -- netlist,
routing (values and dict order), STA (values and dict order, TNS) and
clock tree -- to (a) the same batch through the full-recompute oracle
session (``tests/oracles/eco_full.py``) and (b) a from-scratch
re-route + re-STA of the mutated netlist.
Hypothesis drives random batches over the whole move vocabulary;
dedicated properties cover idempotent re-apply, the oscillation
detector and validation atomicity.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.eco.driver as eco_driver
from repro.core.flow import FlowConfig, run_block_flow
from repro.eco import (BufferInsert, BufferRemove, Displace, EcoConfig,
                       EcoError, EcoSession, Resize, VthSwap,
                       close_timing)
from repro.obs import trace
from repro.obs.names import SPAN_STA_RETIME
from repro.tech.cells import VTH_HVT, VTH_RVT
from repro.timing.sta import run_sta
from tests.oracles.eco_full import FullRecomputeSession

pytestmark = pytest.mark.filterwarnings(
    "ignore::hypothesis.errors.NonInteractiveExampleWarning")


@pytest.fixture(scope="module")
def base(process):
    """One finished block design shared (read-only!) by every example.

    Sessions are opened with ``clone=True``, so examples never mutate
    this design -- which is itself an invariant the atomicity test
    checks explicitly.
    """
    return run_block_flow(
        "l2t", FlowConfig(scale=0.12, seed=7, io_budget_ps=60.0),
        process)


def removable_buffers(netlist):
    """Buffers whose removal the session accepts (sorted, det.)."""
    out = []
    for inst in netlist.cells:
        if not inst.is_buffer:
            continue
        drives = netlist.output_net_of(inst.id)
        if drives is None or drives.is_clock:
            continue
        ins = [n for n in netlist.nets_of(inst.id)
               if n.id != drives.id]
        if len(ins) != 1 or ins[0].is_clock:
            continue
        sinks = ins[0].sinks
        if len(sinks) != 1 or sinks[0].is_port or \
                sinks[0].inst != inst.id:
            continue
        out.append(inst.id)
    return sorted(out)


def draw_batch(data, design, process):
    """A random, always-valid move batch against the base design."""
    nl = design.netlist
    cells = sorted(c.id for c in nl.cells)
    drives = [m.drive for m in process.library.sizes_of("BUF")]
    nets = sorted(design.routing.nets)
    removable = removable_buffers(nl)
    removed = set()
    moves = []
    for _ in range(data.draw(st.integers(1, 6), label="batch size")):
        kind = data.draw(st.sampled_from(
            ["resize", "vth", "displace", "buf_ins", "buf_rm"]),
            label="kind")
        if kind == "buf_rm":
            avail = [b for b in removable if b not in removed]
            if not avail:
                continue
            iid = data.draw(st.sampled_from(avail), label="buffer")
            removed.add(iid)
            moves.append(BufferRemove(inst_id=iid))
            continue
        if kind == "buf_ins":
            moves.append(BufferInsert(
                net_id=data.draw(st.sampled_from(nets), label="net"),
                drive=data.draw(st.sampled_from(drives), label="drive")))
            continue
        iid = data.draw(st.sampled_from(cells), label="cell")
        if iid in removed:
            continue
        if kind == "resize":
            moves.append(Resize(inst_id=iid, drive=data.draw(
                st.sampled_from(drives), label="drive")))
        elif kind == "vth":
            moves.append(VthSwap(inst_id=iid, vth=data.draw(
                st.sampled_from([VTH_RVT, VTH_HVT]), label="vth")))
        else:
            inst = nl.instances[iid]
            dx = data.draw(st.floats(-40.0, 40.0, allow_nan=False,
                                     allow_infinity=False), label="dx")
            dy = data.draw(st.floats(-40.0, 40.0, allow_nan=False,
                                     allow_infinity=False), label="dy")
            moves.append(Displace(inst_id=iid, x=inst.x + dx,
                                  y=inst.y + dy))
    return moves


def routing_fp(routing):
    """Byte-level fingerprint of a routing view, order included."""
    return [
        (nid, r.length_um, r.r_per_um, r.c_per_um, r.wire_cap_ff,
         r.is_long, r.via is None,
         tuple((s.ref.key(), s.path_len_um, s.through_via,
                s.pin_cap_ff) for s in r.sinks))
        for nid, r in routing.nets.items()
    ]


def netlist_fp(netlist):
    return (
        {i: inst.master.name for i, inst in netlist.instances.items()},
        {i: (inst.x, inst.y) for i, inst in netlist.instances.items()},
        {nid: (net.driver.key(), tuple(s.key() for s in net.sinks))
         for nid, net in netlist.nets.items()},
    )


def assert_sta_equal(a, b):
    assert list(a.arrival) == list(b.arrival)
    assert a.arrival == b.arrival
    assert a.required == b.required
    assert a.slack == b.slack
    assert a.wns_ps == b.wns_ps
    assert a.tns_ps == b.tns_ps


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_random_batch_incremental_equals_full_and_scratch(
        data, base, process):
    """The tentpole invariant, over the full move vocabulary."""
    batch = draw_batch(data, base, process)
    inc = EcoSession.from_design(base, process)
    full = FullRecomputeSession.from_design(base, process)
    rep_i = inc.apply(batch)
    rep_f = full.apply(batch)

    assert (rep_i.applied, rep_i.swaps, rep_i.buffers_added,
            rep_i.buffers_removed, rep_i.displaced) == \
           (rep_f.applied, rep_f.swaps, rep_f.buffers_added,
            rep_f.buffers_removed, rep_f.displaced)
    # the two modes converged on byte-identical designs
    assert netlist_fp(inc.netlist) == netlist_fp(full.netlist)
    assert routing_fp(inc.routing) == routing_fp(full.routing)
    assert_sta_equal(inc.sta(), full.sta())
    assert inc.cts_result() == full.cts_result()

    # ... and both equal a from-scratch rebuild of the mutated design
    scratch_routing = base.route_ctx.route_block(inc.netlist)
    assert routing_fp(scratch_routing) == routing_fp(inc.routing)
    scratch_sta = run_sta(inc.netlist, scratch_routing, process,
                          inc.timing)
    assert_sta_equal(scratch_sta, inc.sta())

    # the incremental engine adopted the design's STA snapshot
    assert inc.stats["sta_full_rebuilds"] == 0


def test_oracle_builds_its_view_instead_of_adopting(base, process):
    """The full-recompute oracle ignores the design's STA snapshot: its
    first read builds a view from scratch, where the session adopts."""
    tracer = trace.Tracer()
    inc = EcoSession.from_design(base, process)
    full = FullRecomputeSession.from_design(base, process)
    with trace.use_tracer(tracer):
        assert_sta_equal(inc.sta(), base.sta)
        assert tracer.spans == []
        assert_sta_equal(full.sta(), base.sta)
    assert [(sp.name, sp.attrs) for sp in tracer.spans] == \
        [(SPAN_STA_RETIME, {"kind": "build"})]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reapplying_a_swap_batch_is_idempotent(data, base, process):
    """Master swaps already in effect re-apply as no-ops."""
    session = EcoSession.from_design(base, process)
    cells = sorted(c.id for c in session.netlist.cells)
    drives = [m.drive for m in process.library.sizes_of("BUF")]
    # distinct targets: a batch that resizes one cell twice is *not*
    # idempotent (the second apply legitimately redoes the first swap)
    targets = data.draw(st.lists(st.sampled_from(cells), min_size=1,
                                 max_size=4, unique=True))
    batch = [
        Resize(inst_id=iid, drive=data.draw(st.sampled_from(drives)))
        for iid in targets
    ]
    session.apply(batch)
    before = session.sta()
    again = session.apply(batch)
    assert again.applied == 0
    assert_sta_equal(before, session.sta())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pick=st.integers(0, 10 ** 6))
def test_oscillation_detector_fires_on_repeated_plans(pick, base,
                                                      process):
    """A planner that re-plans the same batch is caught, not looped."""
    session = EcoSession.from_design(base, process)
    lib = process.library
    cands = [c for c in session.netlist.cells
             if lib.upsize(c.master) is not None]
    inst = sorted(cands, key=lambda c: c.id)[pick % len(cands)]
    batch = [Resize(inst_id=inst.id,
                    drive=lib.upsize(inst.master).drive)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eco_driver, "plan_timing_moves",
                   lambda s, sta, cfg: list(batch))
        report = close_timing(
            session, EcoConfig(target_wns_ps=1e9, max_rounds=6))
    assert report.status == "oscillating"
    # applied once, detected on the second plan -- not six rounds deep
    assert len(report.rounds) == 1


def test_planner_with_nothing_left_reports_exhausted(base, process,
                                                     monkeypatch):
    session = EcoSession.from_design(base, process)
    inst = next(iter(session.netlist.cells))
    noop = [Resize(inst_id=inst.id, drive=inst.master.drive)]
    monkeypatch.setattr(eco_driver, "plan_timing_moves",
                        lambda s, sta, cfg: list(noop))
    report = close_timing(
        session, EcoConfig(target_wns_ps=1e9, max_rounds=4))
    assert report.status == "exhausted"


def test_invalid_batch_is_rejected_atomically(base, process):
    """EcoError before any mutation: the session state is untouched."""
    session = EcoSession.from_design(base, process)
    victim = next(c for c in session.netlist.cells if not c.is_buffer)
    before_master = session.netlist.instances[victim.id].master
    before_sta = session.sta()
    before_fp = routing_fp(session.routing)
    up = process.library.upsize(victim.master)
    bad = [
        Resize(inst_id=victim.id,
               drive=(up or victim.master).drive),
        BufferRemove(inst_id=victim.id),  # not a buffer -> invalid
    ]
    with pytest.raises(EcoError):
        session.apply(bad)
    assert session.netlist.instances[victim.id].master is before_master
    assert routing_fp(session.routing) == before_fp
    assert_sta_equal(before_sta, session.sta())
    assert session.stats["moves_applied"] == 0


def test_sessions_clone_leaves_the_base_design_untouched(base, process):
    """What-if sessions must never leak mutations into the base."""
    fp_netlist = netlist_fp(base.netlist)
    fp_routing = routing_fp(base.routing)
    session = EcoSession.from_design(base, process)
    cand = next(c for c in session.netlist.cells
                if process.library.upsize(c.master) is not None)
    session.apply([
        Resize(inst_id=cand.id,
               drive=process.library.upsize(cand.master).drive),
        Displace(inst_id=cand.id, x=cand.x + 5.0, y=cand.y),
    ])
    assert netlist_fp(base.netlist) == fp_netlist
    assert routing_fp(base.routing) == fp_routing
