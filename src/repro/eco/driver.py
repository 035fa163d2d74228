"""Timing-closure ECO driver and neighboring-scenario derivation.

:func:`close_timing` iterates plan/apply ECO rounds against a live
:class:`repro.eco.session.EcoSession` until the slack target holds (or
the engine detects it is stuck): each round plans upsizes on the worst
negative-slack cells plus repeater insertion on failing long nets,
applies them, and re-times incrementally.  The loop fingerprints every
planned move set -- planning the *same* set twice means the engine is
undoing its own work (oscillation), and :data:`STALL_ROUNDS` rounds
without WNS improvement means the vocabulary is exhausted for this
design.

:func:`derive_design` is the scenario-sweep entry point: given a
finished :class:`BlockDesign` and a *neighboring* flow config (same
block, same folding/bonding/seed -- only the I/O budget, dual-Vth knob
or ECO knob may differ), it clones the design state, retargets the
incremental timing view, closes timing and replays the dual-Vth power
stage, returning a full sign-off design without re-running generation,
placement, routing or a from-scratch STA.  This is what lets the
experiment service sweep Fig. 8-style budget curves at a fraction of
the cost of independent flow runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from ..faults.inject import fault_point
from ..obs import trace
from ..obs.metrics import metrics
from ..opt.buffering import plan_net_buffering
from ..opt.dualvth import plan_hvt_swaps, plan_rvt_restores
from ..timing.sta import STAResult, TimingConfig
from .moves import BufferInsert, EcoMove, Resize, VthSwap, move_key
from .session import EcoError, EcoSession

#: upsizes planned per round
MAX_UPSIZES_PER_ROUND = 64
#: nets repeatered per round
MAX_BUFFER_NETS_PER_ROUND = 8
#: rounds without WNS improvement before declaring a stall
STALL_ROUNDS = 2


@dataclass(frozen=True)
class EcoConfig:
    """Knobs of the timing-closure ECO loop."""

    #: stop once WNS is at least this (ps)
    target_wns_ps: float = 0.0
    max_rounds: int = 4


@dataclass
class EcoRound:
    """One plan/apply round of the closure loop."""

    index: int
    planned: int
    applied: int
    wns_before_ps: float
    wns_after_ps: float


@dataclass
class EcoClosureReport:
    """Outcome of one :func:`close_timing` run.

    ``status`` is one of ``"met"`` (target reached), ``"oscillating"``
    (a planned move set repeated), ``"stalled"`` (no WNS improvement
    for :data:`STALL_ROUNDS` rounds), ``"exhausted"`` (nothing left to
    plan/apply) or ``"max_rounds"``.
    """

    status: str
    wns_ps: float
    target_wns_ps: float
    rounds: List[EcoRound] = field(default_factory=list)
    #: copy of the session's deterministic work tallies at return time
    #: (``nets_rerouted``, ``sta_full_rebuilds``, ...) -- what the
    #: reuse assertions in ``tests/test_eco_engine.py`` read
    session_stats: dict = field(default_factory=dict)

    @property
    def moves_applied(self) -> int:
        return sum(r.applied for r in self.rounds)


def plan_timing_moves(session: EcoSession, sta: STAResult,
                      config: "EcoConfig") -> List[EcoMove]:
    """The default round planner: worst-slack upsizes + net repeaters.

    Deterministic -- candidates sort on (slack, id) and the move caps
    are taken in that order, so identical session states always plan
    identical batches (which is what makes the oscillation fingerprint
    meaningful).
    """
    lib = session.process.library
    moves: List[EcoMove] = []
    cands = sorted(
        (s, iid) for iid, s in sta.slack.items()
        if s < config.target_wns_ps and iid in session.netlist.instances)
    for s, iid in cands:
        if len(moves) >= MAX_UPSIZES_PER_ROUND:
            break
        inst = session.netlist.instances[iid]
        if inst.is_macro:
            continue
        up = lib.upsize(inst.master)
        if up is None:
            continue
        moves.append(Resize(inst_id=iid, drive=up.drive))
    picked = 0
    for routed in session.routing.nets.values():
        if picked >= MAX_BUFFER_NETS_PER_ROUND:
            break
        net = session.netlist.nets.get(routed.net_id)
        if net is None or net.is_clock or net.driver.is_port:
            continue
        if sta.slack.get(net.driver.inst, 0.0) >= config.target_wns_ps:
            continue
        if plan_net_buffering(session.netlist, routed, lib) is None:
            continue
        moves.append(BufferInsert(net_id=net.id))
        picked += 1
    return moves


def close_timing(session: EcoSession,
                 config: Optional[EcoConfig] = None) -> EcoClosureReport:
    """Iterate plan/apply ECO rounds until the slack target holds."""
    config = config or EcoConfig()
    rounds: List[EcoRound] = []
    seen_batches = set()
    status = "max_rounds"
    stall = 0
    with trace.span("eco.close", target_wns_ps=config.target_wns_ps):
        for i in range(max(1, config.max_rounds)):
            fault_point("eco")
            sta = session.sta()
            before = sta.wns_ps
            if before >= config.target_wns_ps:
                status = "met"
                break
            moves = plan_timing_moves(session, sta, config)
            if not moves:
                status = "exhausted"
                break
            sig = frozenset(move_key(m) for m in moves)
            if sig in seen_batches:
                status = "oscillating"
                break
            seen_batches.add(sig)
            with trace.span("eco.round", round=i, planned=len(moves)):
                report = session.apply(moves)
            after = session.sta().wns_ps
            rounds.append(EcoRound(index=i, planned=len(moves),
                                   applied=report.applied,
                                   wns_before_ps=before,
                                   wns_after_ps=after))
            if report.applied == 0:
                status = "exhausted"
                break
            if after <= before:
                stall += 1
                if stall >= STALL_ROUNDS:
                    status = "stalled"
                    break
            else:
                stall = 0
    final = session.sta().wns_ps
    if final >= config.target_wns_ps:
        status = "met"
    metrics().counter("eco.rounds").inc(len(rounds))
    return EcoClosureReport(status=status, wns_ps=final,
                            target_wns_ps=config.target_wns_ps,
                            rounds=rounds,
                            session_stats=dict(session.stats))


#: FlowConfig fields a derived scenario may change
_DERIVABLE = ("io_budget_ps", "dual_vth", "eco")


def derive_design(base, config, process) -> Tuple[object,
                                                  EcoClosureReport]:
    """Derive a neighboring scenario's sign-off design via ECO.

    Args:
        base: the finished :class:`repro.core.flow.BlockDesign` to
            derive from (left untouched -- the session clones).
        config: the neighboring :class:`repro.core.flow.FlowConfig`;
            may differ from ``base.config`` only in ``io_budget_ps``,
            ``dual_vth`` and ``eco``.
        process: technology node.

    Returns:
        ``(design, closure_report)`` -- a full :class:`BlockDesign`
        whose metrics are sign-off quality for the new config.
    """
    from ..core.flow import BlockDesign, FlowConfig
    from ..opt.dualvth import hvt_fraction
    from ..power.analysis import analyze_power

    if not isinstance(config, FlowConfig):
        raise EcoError("derive_design needs a FlowConfig")
    for f in fields(FlowConfig):
        if f.name in _DERIVABLE:
            continue
        if getattr(base.config, f.name) != getattr(config, f.name):
            raise EcoError(
                f"cannot derive across {f.name!r}: neighboring "
                f"scenarios may differ only in {_DERIVABLE}")

    eco_cfg = config.eco or EcoConfig()
    session = EcoSession.from_design(base, process, clone=True)
    if config.io_budget_ps != base.config.io_budget_ps:
        session.retarget(TimingConfig(
            clock_domain=session.timing.clock_domain,
            default_io_delay_ps=config.io_budget_ps))
    closure = close_timing(session, eco_cfg)

    lib = process.library
    if config.dual_vth and not base.config.dual_vth:
        # replay the flow's power stage on the derived state
        for _chunk in range(3):
            swaps = plan_hvt_swaps(session.netlist, session.view, lib)
            if not swaps:
                break
            session.apply([VthSwap(inst_id=iid, vth=m.vth)
                           for iid, m in swaps])
        restores = plan_rvt_restores(session.netlist, session.sta(),
                                     lib)
        if restores:
            session.apply([VthSwap(inst_id=iid, vth=m.vth)
                           for iid, m in restores])
        # the swaps consumed slack; mirror the flow's final timing
        # recovery so a power move never ships a violation
        recovery = close_timing(session, eco_cfg)
        closure = EcoClosureReport(
            status=recovery.status, wns_ps=recovery.wns_ps,
            target_wns_ps=eco_cfg.target_wns_ps,
            rounds=closure.rounds + recovery.rounds,
            session_stats=dict(session.stats))

    cts = session.cts_result()
    sta = session.sta()
    power = analyze_power(session.netlist, session.routing, process,
                          session.timing.clock_domain, cts=cts)
    design = BlockDesign(
        name=base.name,
        config=config,
        netlist=session.netlist,
        outline=base.outline,
        footprint_um2=base.outline.area,
        wirelength_um=session.routing.total_wirelength_um +
        cts.wirelength_um,
        n_cells=session.netlist.num_cells,
        n_buffers=session.netlist.num_buffers + cts.n_buffers,
        n_vias=base.n_vias - base.cts.via_crossings +
        cts.via_crossings,
        tsv_area_um2=base.tsv_area_um2,
        long_wires=session.routing.long_wire_count,
        hvt_fraction=hvt_fraction(session.netlist),
        power=power,
        sta=sta,
        cts=cts,
        routing=session.routing,
        fold_result=base.fold_result,
        generated=base.generated,
        route_ctx=session.ctx,
    )
    metrics().counter("eco.derived_designs").inc()
    return design, closure
