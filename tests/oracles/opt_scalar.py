"""Per-candidate power planners over STA dicts (parity oracle).

The library's downsizing, HVT and buffering planners
(:func:`repro.opt.sizing.plan_downsizes`,
:func:`repro.opt.dualvth.plan_hvt_swaps`,
:func:`repro.opt.buffering.plan_buffers`) read a live
:class:`~repro.timing.incremental.IncrementalSTA` view's arrays.  This
module keeps the loops they replaced: each walks a frozen
:class:`~repro.timing.sta.STAResult` (``view.to_result()``) candidate
by candidate, pricing loads with the scalar
:func:`tests.oracles.timing_scalar.driven_load`, or walks every routed
net.  ``tests/test_opt_planner_parity.py`` holds the two to the same
``(instance id, master)`` lists, order and master identity included.
"""

from __future__ import annotations

from typing import List

from repro.netlist.core import Netlist
from repro.opt import buffering, sizing
from repro.opt.buffering import plan_net_buffering
from repro.opt.dualvth import HVT_MARGIN_PS, HVT_PATH_SHARING_FACTOR
from repro.opt.sizing import MAX_MOVES_PER_PASS, PATH_SHARING_FACTOR, Move
from repro.route.estimate import RoutingResult
from repro.tech.cells import VTH_HVT, VTH_RVT, CellLibrary
from repro.timing.sta import STAResult
from tests.oracles.timing_scalar import driven_load


def plan_downsizes(netlist: Netlist, routing: RoutingResult,
                   sta: STAResult, library: CellLibrary) -> List[Move]:
    """Plan downsizes of comfortably-met cells (most slack first)."""
    margin = sizing.DOWNSIZE_MARGIN_PS
    moves: List[Move] = []
    candidates = sorted(
        (iid for iid, s in sta.slack.items()
         if s > margin and iid in netlist.instances),
        key=lambda i: -sta.slack[i])
    for iid in candidates:
        if len(moves) >= MAX_MOVES_PER_PASS:
            break
        inst = netlist.instances[iid]
        if inst.is_macro:
            continue
        smaller = library.downsize(inst.master)
        if smaller is None:
            continue
        load = driven_load(netlist, routing, iid)
        delta = (smaller.delay_ps(load) - inst.master.delay_ps(load))
        charged = max(delta, 0.0) * PATH_SHARING_FACTOR
        if sta.slack[iid] - charged >= margin:
            moves.append((iid, smaller))
    return moves


def plan_hvt_swaps(netlist: Netlist, routing: RoutingResult,
                   sta: STAResult, library: CellLibrary) -> List[Move]:
    """Plan RVT->HVT swaps where slack absorbs the slowdown."""
    moves: List[Move] = []
    candidates = sorted(
        (iid for iid, s in sta.slack.items() if iid in netlist.instances),
        key=lambda i: -sta.slack[i])
    for iid in candidates:
        if len(moves) >= MAX_MOVES_PER_PASS:
            break
        inst = netlist.instances[iid]
        if inst.is_macro or inst.master.vth != VTH_RVT:
            continue
        hvt = library.variant(inst.master, vth=VTH_HVT)
        load = driven_load(netlist, routing, iid)
        delta = hvt.delay_ps(load) - inst.master.delay_ps(load)
        charged = max(delta, 0.0) * HVT_PATH_SHARING_FACTOR
        if sta.slack_of(iid) - charged >= HVT_MARGIN_PS:
            moves.append((iid, hvt))
    return moves


def plan_buffers(netlist: Netlist, routing: RoutingResult,
                 library: CellLibrary) -> List:
    """Plan one buffering pass over every routed net, in routing order."""
    plans: List = []
    planned = 0
    for routed in list(routing.nets.values()):
        if planned >= buffering.MAX_NEW_BUFFERS_PER_PASS:
            break
        move = plan_net_buffering(netlist, routed, library)
        if move is not None:
            plans.append(move)
            planned += move.n_buffers
    return plans
