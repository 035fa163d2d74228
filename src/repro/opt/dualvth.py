"""Dual-Vth assignment (RVT -> HVT swapping).

Implements the paper's Section 6.2 technique: high-Vth cells are ~30%
slower but leak ~50% less and burn ~5% less internal power, so every
cell whose slack absorbs the slowdown is swapped.  Because 3D designs
carry more positive slack (shorter wires), they absorb more swaps -- the
paper measures 87.8% HVT cells in 2D vs. 94.0% in the folded 3D design,
and that ordering emerges here from the same mechanism.

Like the sizing passes, each transform is a *planner* the staged loop
commits in whole chunks through the live-edit session.
:func:`plan_hvt_swaps` reads the session's live
:class:`~repro.timing.incremental.IncrementalSTA` view -- its slack
array and the graph's driver loads -- through the array planner it
shares with downsizing (:func:`repro.opt.sizing.plan_master_swaps`);
:func:`plan_rvt_restores` reads a frozen :class:`STAResult`.
"""

from __future__ import annotations

from typing import List, Optional

from ..netlist.core import Netlist
from ..tech.cells import VTH_HVT, VTH_RVT, CellLibrary, CellMaster
from ..timing.incremental import IncrementalSTA
from ..timing.sta import STAResult
from .sizing import Move, apply_moves, plan_master_swaps

#: keep at least this much slack after an HVT swap (ps)
HVT_MARGIN_PS = 10.0
#: the swap's counterpart of :data:`repro.opt.sizing.PATH_SHARING_FACTOR`
HVT_PATH_SHARING_FACTOR = 1.5


def plan_hvt_swaps(netlist: Netlist, view: IncrementalSTA,
                   library: CellLibrary) -> List[Move]:
    """Plan RVT->HVT swaps where slack absorbs the slowdown."""

    def hvt(master: CellMaster) -> Optional[CellMaster]:
        if master.vth != VTH_RVT:
            return None
        return library.variant(master, vth=VTH_HVT)

    return plan_master_swaps(view, hvt, float("-inf"),
                             HVT_PATH_SHARING_FACTOR, HVT_MARGIN_PS)


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
