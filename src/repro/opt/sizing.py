"""Slack-driven gate sizing.

The engine behind the paper's central observation (Section 3.2): "the 3D
design utilizes more smaller cells than the 2D thanks to better timing
... with the positive slack, cells can be downsized in the 3D design if
this change still meets the timing constraint during power optimization
stages."

Two planners decide master changes against the current timing:

* :func:`plan_upsizes` upsizes drivers on negative-slack paths (timing
  optimization, run first); it reads a frozen :class:`STAResult`;
* :func:`plan_downsizes` downsizes cells whose slack exceeds a guard
  margin, accepting a move only if the locally-estimated delay increase
  keeps the path met.  Smaller cells also present less input
  capacitance upstream, so the estimate is conservative.

The staged loop commits the plans through the live-edit session (one
re-time per chunk).  :func:`plan_downsizes` reads the session's live
:class:`~repro.timing.incremental.IncrementalSTA` view: its slack
array and the timing graph's driver ``loads`` -- the very loads the
STA priced, so the optimizer and the verifying timer can never
disagree about what a move costs -- plus a per-master table of each
replacement's delay model, as one masked, stably sorted array
expression.  The per-candidate scalar loop it replaces is kept as a
parity oracle in ``tests/oracles/``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..tech.cells import CellLibrary, CellMaster
from ..timing.incremental import IncrementalSTA
from ..timing.sta import STAResult

#: a planned master change: (instance id, replacement master)
Move = Tuple[int, CellMaster]

#: upsize while slack is below this (ps)
UPSIZE_TARGET_PS = 0.0
#: multiple cells of one path downsize in a single pass and their delay
#: penalties accumulate; each move is charged this many times its local
#: delta so the shared path stays met (verified by the fresh STA
#: between chunks)
PATH_SHARING_FACTOR = 2.5
#: cap on the moves one planner call returns
MAX_MOVES_PER_PASS = 100000
#: keep at least this much slack after a downsize (ps)
DOWNSIZE_MARGIN_PS = 25.0


def plan_upsizes(netlist: Netlist, sta: STAResult,
                 library: CellLibrary) -> List[Move]:
    """Plan upsizes for cells on violating paths (worst slack first)."""
    moves: List[Move] = []
    # worst first so the most critical drivers strengthen earliest
    violators = sorted(
        (iid for iid, s in sta.slack.items()
         if s < UPSIZE_TARGET_PS and iid in netlist.instances),
        key=lambda i: sta.slack[i])
    for iid in violators:
        if len(moves) >= MAX_MOVES_PER_PASS:
            break
        inst = netlist.instances[iid]
        if inst.is_macro:
            continue
        bigger = library.upsize(inst.master)
        if bigger is None:
            continue
        moves.append((iid, bigger))
    return moves


def plan_downsizes(netlist: Netlist, view: IncrementalSTA,
                   library: CellLibrary) -> List[Move]:
    """Plan downsizes of comfortably-met cells (most slack first).

    A move is planned when the local delay increase (drive resistance
    and intrinsic delay deltas at the current load), charged
    :data:`PATH_SHARING_FACTOR` times, fits inside the cell's slack
    minus the guard margin, :data:`DOWNSIZE_MARGIN_PS`.
    """
    return plan_master_swaps(view, library.downsize, DOWNSIZE_MARGIN_PS,
                             PATH_SHARING_FACTOR, DOWNSIZE_MARGIN_PS)


def plan_master_swaps(view: IncrementalSTA,
                      pick: Callable[[CellMaster], Optional[CellMaster]],
                      above_ps: float, factor: float,
                      margin_ps: float) -> List[Move]:
    """The slack-absorbing swap planner shared by downsizing and HVT.

    Candidates are the view's non-macro nodes with slack above
    ``above_ps`` whose master has a replacement, ``pick(master)``.  A
    candidate is kept when its slack minus ``factor`` times the local
    delay increase at its current load still reaches ``margin_ps``.
    Moves come most-slack-first, ties in :attr:`STAResult.slack` order,
    capped at :data:`MAX_MOVES_PER_PASS`.

    The delay delta keeps the scalar ``CellMaster.delay_ps`` operand
    order, ``(intr' + res' * load) - (intr + res * load)``, and the
    sort is stable, so the moves equal the per-candidate loop's.
    """
    g = view.graph
    nodes, slack = view.slacks()
    keep = (slack > above_ps) & ~g.is_macro[nodes]
    nodes, slack = nodes[keep], slack[keep]
    codes = g.mcode[nodes]
    # per-master table: each replacement and its delay model (macros
    # are masked above; the library has no variants of them)
    n_codes = len(g.masters)
    has = np.zeros(n_codes, dtype=bool)
    rep_intr = np.zeros(n_codes, dtype=np.float64)
    rep_res = np.zeros(n_codes, dtype=np.float64)
    rep: List[Optional[CellMaster]] = [None] * n_codes
    for c in np.unique(codes).tolist():
        new = pick(g.masters[c])
        if new is not None:
            has[c] = True
            rep_intr[c] = new.intrinsic_delay_ps
            rep_res[c] = new.drive_res_kohm
            rep[c] = new
    ok = has[codes]
    nodes, slack, codes = nodes[ok], slack[ok], codes[ok]
    load = g.loads[nodes]
    delta = (rep_intr[codes] + rep_res[codes] * load) - \
        (g.intrinsic[nodes] + g.drive_res[nodes] * load)
    charged = np.maximum(delta, 0.0) * factor
    fit = slack - charged >= margin_ps
    nodes, slack, codes = nodes[fit], slack[fit], codes[fit]
    order = np.argsort(-slack, kind="stable")[:MAX_MOVES_PER_PASS]
    return [(iid, rep[c]) for iid, c in
            zip(g.iids[nodes[order]].tolist(), codes[order].tolist())]


def apply_moves(netlist: Netlist, moves: List[Move]) -> int:
    """Apply planned master changes to the netlist; returns the count."""
    for iid, master in moves:
        netlist.replace_master(iid, master)
    return len(moves)


def fix_timing(netlist: Netlist, sta: STAResult,
               library: CellLibrary) -> int:
    """Upsize cells on violating paths; returns the number of moves."""
    return apply_moves(netlist, plan_upsizes(netlist, sta, library))
