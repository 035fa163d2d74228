"""Staged block optimization loop on an incremental timing/parasitic core.

Reproduces the paper's Section 2.2 iteration: with the block placed and
its I/O timing budgets set, run pre-CTS / post-CTS / post-route style
optimization rounds -- buffer insertion and upsizing for timing, then
downsizing (and optionally HVT swapping) for power -- verifying every
decision against fresh parasitics.

Sizing and Vth moves freeze placement and net topology, so only pin
capacitances actually change between transform chunks.  The loop
therefore runs against a *live* view --
:meth:`repro.route.estimate.RoutingResult.update_instances` refreshes
the touched nets' parasitics in place and
:class:`repro.timing.incremental.IncrementalSTA` re-times the block on
the array engine -- which reproduces a full re-route + re-STA
bit-for-bit without the re-route.  Full re-routing happens only where
it must: after :func:`insert_buffers` edits the net topology (counted
by the ``opt.full_reroutes`` metric), or when the
``full_recompute=True`` escape hatch disables the incremental core
entirely (the two modes produce identical designs; the escape hatch
exists as a baseline and a bisection aid).

``true_slack=True`` additionally replaces the ``path_sharing_factor``
acceptance heuristic for downsizes and HVT swaps with exact per-move
verification: each move is applied to the live view and kept only if
every touched node still meets its margin.  This changes (improves) the
optimization result, so it is opt-in -- the default loop is
move-for-move identical to the historical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..cts.tree import CTSResult, synthesize_clock_tree
from ..netlist.core import Net, Netlist
from ..obs import trace
from ..obs.metrics import metrics
from ..route.estimate import RoutedNet, RoutingResult
from ..tech.cells import VTH_HVT, VTH_RVT
from ..tech.process import ProcessNode
from ..timing.incremental import IncrementalSTA
from ..timing.sta import STAResult, TimingConfig, run_sta
from .buffering import (BufferApplyResult, BufferingConfig,
                        apply_buffer_plan, plan_buffers)
from .dualvth import (DualVthConfig, plan_hvt_swaps, plan_rvt_restores)
from .sizing import (Move, SizingConfig, apply_moves, plan_downsizes,
                     plan_upsizes)

RouteFn = Callable[[Netlist], RoutingResult]
#: per-net re-route (the block's stack/via context applied to one net)
RouteNetFn = Callable[[Netlist, Net], RoutedNet]

INF = float("inf")


@dataclass
class OptimizeConfig:
    """Configuration of the staged optimization loop."""

    rounds: int = 2
    dual_vth: bool = False
    buffering: BufferingConfig = field(default_factory=BufferingConfig)
    sizing: SizingConfig = field(default_factory=SizingConfig)
    dualvth: DualVthConfig = field(default_factory=DualVthConfig)
    #: disable the incremental core: full re-route + full STA after
    #: every transform chunk (decision-identical, much slower)
    full_recompute: bool = False
    #: accept power moves on exact post-move slack instead of the
    #: ``path_sharing_factor`` heuristic (changes the result; opt-in)
    true_slack: bool = False


@dataclass
class OptimizeResult:
    """Final state after optimization."""

    routing: RoutingResult
    sta: STAResult
    cts: CTSResult
    buffers_added: int
    upsized: int
    downsized: int
    hvt_swaps: int
    #: times the loop fell back to a full re-route (initial route,
    #: topology edits, and -- in ``full_recompute`` mode -- every chunk)
    full_reroutes: int = 0


class _TimingCore:
    """The loop's view of parasitics + timing, incremental or full.

    Both implementations expose the same three operations; the
    incremental one reuses routed geometry and re-times through the
    live timing view, the full one re-routes and re-times the whole
    block.  Their STA snapshots (and hence every optimization
    decision) are identical.
    """

    def __init__(self, netlist: Netlist, process: ProcessNode,
                 timing: TimingConfig, route_fn: RouteFn,
                 incremental: bool,
                 route_net_fn: Optional[RouteNetFn] = None) -> None:
        self.netlist = netlist
        self.process = process
        self.timing = timing
        self.route_fn = route_fn
        self.route_net_fn = route_net_fn
        self.incremental = incremental
        self.full_reroutes = 0
        self.routing = self._full_route()
        self.view: Optional[IncrementalSTA] = None
        if incremental:
            self.view = IncrementalSTA(netlist, self.routing, process,
                                       timing)

    def _full_route(self) -> RoutingResult:
        self.full_reroutes += 1
        metrics().counter("opt.full_reroutes").inc()
        return self.route_fn(self.netlist)

    def sta(self) -> STAResult:
        """A fresh, frozen STA snapshot of the current state."""
        if self.view is not None:
            return self.view.to_result()
        return run_sta(self.netlist, self.routing, self.process,
                       self.timing)

    def apply(self, moves: List[Move]) -> int:
        """Apply a chunk of master swaps and refresh parasitics/timing."""
        if not moves:
            return 0
        if self.view is not None:
            return self.view.swap_masters(moves)
        apply_moves(self.netlist, moves)
        self.routing = self._full_route()
        return len(moves)

    def rebuild(self) -> None:
        """Full re-route + fresh timing view (after netlist surgery)."""
        self.routing = self._full_route()
        if self.incremental:
            self.view = IncrementalSTA(self.netlist, self.routing,
                                       self.process, self.timing)

    def absorb_surgery(self, surgery: BufferApplyResult) -> None:
        """Absorb a committed buffer plan without a full re-route.

        With a per-net route context available, only the nets incident
        to the new buffers are (re-)routed -- untouched geometry is a
        pure function of unchanged positions, so the resulting routing
        is bit-identical to a full re-route -- and the live timing view
        re-times the patched netlist.  Without one (or in
        full-recompute mode) this degrades to the historical
        :meth:`rebuild`.
        """
        if self.view is None or self.route_net_fn is None:
            self.rebuild()
            return
        route_net_fn = self.route_net_fn
        self.routing.update_instances(
            self.netlist, surgery.new_inst_ids,
            reroute=lambda net: route_net_fn(self.netlist, net))
        self.view.patch_topology()

    # -- exact per-move acceptance (true_slack mode) -------------------

    def try_swap(self, inst_id: int, master, min_slack_ps: float) -> bool:
        """Apply one swap; keep it only if true post-move slack holds.

        The acceptance test is the same in both modes: every node whose
        arrival or required time moved (plus the swapped cell) must
        keep at least ``min_slack_ps`` of slack.
        """
        if self.view is not None:
            return self.view.try_swap(inst_id, master, min_slack_ps)
        old = self.netlist.instances[inst_id].master
        if old is master:
            return False
        before = self.sta()
        self.netlist.replace_master(inst_id, master)
        routing = self.route_fn(self.netlist)
        after = run_sta(self.netlist, routing, self.process, self.timing)
        worst = INF
        for iid, a in after.arrival.items():
            if a == before.arrival.get(iid) and \
                    after.required.get(iid, INF) == \
                    before.required.get(iid, INF) and iid != inst_id:
                continue
            r = after.required.get(iid, INF)
            if r < INF:
                worst = min(worst, r - a)
        if worst < min_slack_ps:
            self.netlist.replace_master(inst_id, old)
            return False
        self.routing = routing
        self.full_reroutes += 1
        metrics().counter("opt.full_reroutes").inc()
        return True


def optimize_block(netlist: Netlist, process: ProcessNode,
                   timing: TimingConfig, route_fn: RouteFn,
                   config: Optional[OptimizeConfig] = None,
                   route_net_fn: Optional[RouteNetFn] = None
                   ) -> OptimizeResult:
    """Run the staged timing/power optimization on a placed block.

    Args:
        netlist: placed block netlist (mutated in place).
        process: technology.
        timing: clock domain and I/O budgets.
        route_fn: re-routes the netlist (knows layers and 3D via sites).
        config: loop configuration.
        route_net_fn: optional per-net re-route with the same context
            as ``route_fn``; when given, buffer insertion is absorbed
            incrementally (touched nets only) instead of triggering a
            full re-route -- bit-identical results, far less work.

    Returns:
        The converged routing, timing and clock tree plus move counters.
    """
    config = config or OptimizeConfig()
    lib = process.library
    core = _TimingCore(netlist, process, timing, route_fn,
                       incremental=not config.full_recompute,
                       route_net_fn=route_net_fn)

    buffers_added = 0
    upsized = 0
    downsized = 0
    hvt_swaps = 0

    def timing_stage(max_iter: int) -> None:
        """Repeaters + upsizing to convergence (or iteration cap)."""
        nonlocal buffers_added, upsized
        for _ in range(max_iter):
            sta = core.sta()
            plans = plan_buffers(netlist, core.routing, lib,
                                 config.buffering)
            surgery = apply_buffer_plan(netlist, plans)
            added = surgery.added
            if added:
                buffers_added += added
                core.absorb_surgery(surgery)  # topology changed
                sta = core.sta()
            ups = core.apply(plan_upsizes(netlist, sta, lib,
                                          config.sizing))
            upsized += ups
            if not (added or ups):
                break

    def downsize_chunk() -> int:
        sta = core.sta()
        if not config.true_slack:
            return core.apply(plan_downsizes(netlist, core.routing, sta,
                                             lib, config.sizing))
        cfg = config.sizing
        moves = 0
        candidates = sorted(
            (iid for iid, s in sta.slack.items()
             if s > cfg.downsize_margin_ps and iid in netlist.instances),
            key=lambda i: -sta.slack[i])
        for iid in candidates:
            if moves >= cfg.max_moves_per_pass:
                break
            inst = netlist.instances[iid]
            if inst.is_macro:
                continue
            smaller = lib.downsize(inst.master)
            if smaller is None:
                continue
            if core.try_swap(iid, smaller, cfg.downsize_margin_ps):
                moves += 1
        return moves

    def hvt_chunk() -> int:
        sta = core.sta()
        if not config.true_slack:
            return core.apply(plan_hvt_swaps(netlist, core.routing, sta,
                                             lib, config.dualvth))
        cfg = config.dualvth
        moves = 0
        candidates = sorted(
            (iid for iid, s in sta.slack.items()
             if iid in netlist.instances),
            key=lambda i: -sta.slack[i])
        for iid in candidates:
            if moves >= cfg.max_moves_per_pass:
                break
            inst = netlist.instances[iid]
            if inst.is_macro or inst.master.vth != VTH_RVT:
                continue
            hvt = lib.variant(inst.master, vth=VTH_HVT)
            if core.try_swap(iid, hvt, cfg.margin_ps):
                moves += 1
        return moves

    for _round in range(max(1, config.rounds)):
        with trace.span("opt.timing_stage", round=_round):
            timing_stage(max_iter=3)

        # --- power stage: HVT swapping first (leakage is the big lever,
        # and slack not yet consumed by downsizing absorbs the most
        # swaps), then chunked downsizing with fresh STA per chunk ------
        with trace.span("opt.power_stage", round=_round,
                        dual_vth=config.dual_vth):
            if config.dual_vth:
                for _chunk in range(3):
                    swaps = hvt_chunk()
                    if not swaps:
                        break
                    hvt_swaps += swaps
                hvt_swaps -= core.apply(
                    plan_rvt_restores(netlist, core.sta(), lib))

            for _chunk in range(4):
                downs = downsize_chunk()
                if not downs:
                    break
                downsized += downs

    # final timing recovery so a power move never ships a violation the
    # sizing engine could have fixed
    with trace.span("opt.timing_stage", round=-1):
        timing_stage(max_iter=2)

    sta = core.sta()
    cts = synthesize_clock_tree(netlist, process)
    m = metrics()
    m.counter("opt.rounds").inc(max(1, config.rounds))
    m.counter("opt.buffers_inserted").inc(buffers_added)
    m.counter("opt.cells_upsized").inc(upsized)
    m.counter("opt.cells_downsized").inc(downsized)
    m.counter("opt.hvt_swaps").inc(hvt_swaps)
    m.histogram("opt.buffers_per_block").observe(buffers_added)
    return OptimizeResult(routing=core.routing, sta=sta, cts=cts,
                          buffers_added=buffers_added, upsized=upsized,
                          downsized=downsized, hvt_swaps=hvt_swaps,
                          full_reroutes=core.full_reroutes)
