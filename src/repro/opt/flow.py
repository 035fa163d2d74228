"""Staged block optimization loop on the live-edit session.

Reproduces the paper's Section 2.2 iteration: with the block placed and
its I/O timing budgets set, run pre-CTS / post-CTS / post-route style
optimization rounds -- buffer insertion and upsizing for timing, then
downsizing (and optionally HVT swapping) for power -- verifying every
decision against fresh parasitics.

The block is routed once; the loop then runs on an
:class:`repro.eco.session.EcoSession` over that routing, the same
live-edit core the ECO engine uses.  Every planned chunk is committed
through the session: master swaps refresh the touched nets'
parasitics in place and patch the session's one timing graph before
re-timing the block
(:meth:`~repro.eco.session.EcoSession.swap_masters`), and buffer
insertion re-routes only the nets around the new buffers
(:meth:`~repro.eco.session.EcoSession.commit_buffers`).  Both
reproduce a full re-route + re-STA bit-for-bit without the re-route;
``tests/test_opt_flow.py`` holds the loop to a full-recompute oracle
session.  The buffering, downsizing and HVT planners read the
session's live timing view
(:attr:`~repro.eco.session.EcoSession.view`) -- its net arrays, slack
array and driver loads -- instead of walking dicts.  The
``opt.full_reroutes`` metric counts the one whole-block route per
call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cts.tree import CTSResult, synthesize_clock_tree
from ..eco.session import EcoSession
from ..netlist.core import Netlist
from ..obs import trace
from ..obs.metrics import metrics
from ..route.estimate import RouteContext, RoutingResult
from ..tech.process import ProcessNode
from ..timing.sta import STAResult, TimingConfig
from .buffering import plan_buffers
from .dualvth import plan_hvt_swaps, plan_rvt_restores
from .sizing import plan_downsizes, plan_upsizes

#: timing-stage + power-stage rounds of the staged loop
ROUNDS = 2


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


def optimize_block(netlist: Netlist, process: ProcessNode,
                   timing: TimingConfig, route_ctx: RouteContext,
                   dual_vth: bool = False) -> OptimizeResult:
    """Run the staged timing/power optimization on a placed block.

    Args:
        netlist: placed block netlist (mutated in place).
        process: technology.
        timing: clock domain and I/O budgets.
        route_ctx: the block's routing context (layers and 3D via
            sites); routes the block once and every touched net after.
        dual_vth: swap RVT cells to HVT in the power stage.

    Returns:
        The converged routing, timing and clock tree plus move counters.
    """
    lib = process.library
    session = EcoSession(netlist, route_ctx.route_block(netlist), process,
                         timing, route_ctx)

    buffers_added = 0
    upsized = 0
    downsized = 0
    hvt_swaps = 0

    def timing_stage(max_iter: int) -> None:
        """Repeaters + upsizing to convergence (or iteration cap)."""
        nonlocal buffers_added, upsized
        for _ in range(max_iter):
            sta = session.sta()
            added = session.commit_buffers(plan_buffers(
                netlist, session.view, lib))
            if added:
                buffers_added += added
                sta = session.sta()
            ups = session.swap_masters(plan_upsizes(netlist, sta, lib))
            upsized += ups
            if not (added or ups):
                break

    for _round in range(ROUNDS):
        with trace.span("opt.timing_stage", round=_round):
            timing_stage(max_iter=3)

        # --- power stage: HVT swapping first (leakage is the big lever,
        # and slack not yet consumed by downsizing absorbs the most
        # swaps), then chunked downsizing with fresh STA per chunk ------
        with trace.span("opt.power_stage", round=_round,
                        dual_vth=dual_vth):
            if dual_vth:
                for _chunk in range(3):
                    swaps = session.swap_masters(plan_hvt_swaps(
                        netlist, session.view, lib))
                    if not swaps:
                        break
                    hvt_swaps += swaps
                hvt_swaps -= session.swap_masters(
                    plan_rvt_restores(netlist, session.sta(), lib))

            for _chunk in range(4):
                downs = session.swap_masters(plan_downsizes(
                    netlist, session.view, lib))
                if not downs:
                    break
                downsized += downs

    # final timing recovery so a power move never ships a violation the
    # sizing engine could have fixed
    with trace.span("opt.timing_stage", round=-1):
        timing_stage(max_iter=2)

    sta = session.sta()
    cts = synthesize_clock_tree(netlist, process)
    m = metrics()
    m.counter("opt.full_reroutes").inc()
    m.counter("opt.rounds").inc(ROUNDS)
    m.counter("opt.buffers_inserted").inc(buffers_added)
    m.counter("opt.cells_upsized").inc(upsized)
    m.counter("opt.cells_downsized").inc(downsized)
    m.counter("opt.hvt_swaps").inc(hvt_swaps)
    m.histogram("opt.buffers_per_block").observe(buffers_added)
    return OptimizeResult(routing=session.routing, sta=sta, cts=cts,
                          buffers_added=buffers_added, upsized=upsized,
                          downsized=downsized, hvt_swaps=hvt_swaps)
