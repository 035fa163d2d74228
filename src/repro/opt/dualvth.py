"""Dual-Vth assignment (RVT -> HVT swapping).

Implements the paper's Section 6.2 technique: high-Vth cells are ~30%
slower but leak ~50% less and burn ~5% less internal power, so every
cell whose slack absorbs the slowdown is swapped.  Because 3D designs
carry more positive slack (shorter wires), they absorb more swaps -- the
paper measures 87.8% HVT cells in 2D vs. 94.0% in the folded 3D design,
and that ordering emerges here from the same mechanism.

Like the sizing passes, each transform is a *planner* deciding moves
against a frozen STA snapshot (loads priced by the shared
:func:`repro.timing.load.driven_load` model) plus a thin applier, so the
staged loop can commit whole chunks through the live-edit session.
"""

from __future__ import annotations

from typing import List

from ..netlist.core import Netlist
from ..route.estimate import RoutingResult
from ..tech.cells import VTH_HVT, VTH_RVT, CellLibrary
from ..timing.load import driven_load
from ..timing.sta import STAResult
from .sizing import MAX_MOVES_PER_PASS, Move, apply_moves

#: keep at least this much slack after an HVT swap (ps)
HVT_MARGIN_PS = 10.0
#: the swap's counterpart of :data:`repro.opt.sizing.PATH_SHARING_FACTOR`
HVT_PATH_SHARING_FACTOR = 1.5


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


def plan_rvt_restores(netlist: Netlist, sta: STAResult,
                      library: CellLibrary) -> List[Move]:
    """Plan HVT->RVT restores for violating cells (timing recovery)."""
    moves: List[Move] = []
    for iid, s in sta.slack.items():
        if s >= 0 or iid not in netlist.instances:
            continue
        inst = netlist.instances[iid]
        if inst.is_macro or inst.master.vth != VTH_HVT:
            continue
        moves.append((iid, library.variant(inst.master, vth=VTH_RVT)))
    return moves


def assign_hvt(netlist: Netlist, routing: RoutingResult, sta: STAResult,
               library: CellLibrary) -> int:
    """Swap RVT cells to HVT where slack permits; returns move count."""
    return apply_moves(netlist, plan_hvt_swaps(netlist, routing, sta,
                                               library))


def restore_rvt_on_violations(netlist: Netlist, sta: STAResult,
                              library: CellLibrary) -> int:
    """Swap violating HVT cells back to RVT (timing recovery)."""
    return apply_moves(netlist, plan_rvt_restores(netlist, sta, library))


def hvt_fraction(netlist: Netlist) -> float:
    """Fraction of standard cells currently HVT."""
    cells = netlist.cells
    if not cells:
        return 0.0
    return sum(1 for c in cells if c.master.vth == VTH_HVT) / len(cells)
