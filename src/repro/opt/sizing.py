"""Slack-driven gate sizing.

The engine behind the paper's central observation (Section 3.2): "the 3D
design utilizes more smaller cells than the 2D thanks to better timing
... with the positive slack, cells can be downsized in the 3D design if
this change still meets the timing constraint during power optimization
stages."

Two passes over the STA result:

* :func:`fix_timing` upsizes drivers on negative-slack paths (timing
  optimization, run first);
* :func:`recover_power` downsizes cells whose slack exceeds a guard
  margin, accepting a move only if the locally-estimated delay increase
  keeps the path met.  Smaller cells also present less input capacitance
  upstream, so the estimate is conservative.

Each pass is split into a *planner* (:func:`plan_upsizes`,
:func:`plan_downsizes`) that decides the moves against a frozen STA
snapshot, and a thin applier.  The staged loop commits the plans
through the live-edit session (one batched re-time per chunk); the
classic mutate-in-place entry points remain for direct callers and are
decision-identical.

Loads are priced through the shared :func:`repro.timing.load.driven_load`
helper -- the same model STA uses, so the optimizer and the verifying
timer can never disagree about what a move costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..netlist.core import Netlist
from ..route.estimate import RoutingResult
from ..tech.cells import CellLibrary, CellMaster
from ..timing.load import driven_load
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


@dataclass
class SizingConfig:
    """Knobs for the sizing passes."""

    #: keep at least this much slack after a downsize (ps)
    downsize_margin_ps: float = 25.0


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


def plan_downsizes(netlist: Netlist, routing: RoutingResult,
                   sta: STAResult, library: CellLibrary,
                   config: Optional[SizingConfig] = None) -> List[Move]:
    """Plan downsizes of comfortably-met cells (most slack first).

    A move is planned when the local delay increase (drive resistance
    and intrinsic delay deltas at the current load), charged
    :data:`PATH_SHARING_FACTOR` times, fits inside the cell's slack
    minus the guard margin.
    """
    config = config or SizingConfig()
    moves: List[Move] = []
    candidates = sorted(
        (iid for iid, s in sta.slack.items()
         if s > config.downsize_margin_ps and iid in netlist.instances),
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
        if sta.slack[iid] - charged >= config.downsize_margin_ps:
            moves.append((iid, smaller))
    return moves


def apply_moves(netlist: Netlist, moves: List[Move]) -> int:
    """Apply planned master changes to the netlist; returns the count."""
    for iid, master in moves:
        netlist.replace_master(iid, master)
    return len(moves)


def fix_timing(netlist: Netlist, routing: RoutingResult, sta: STAResult,
               library: CellLibrary) -> int:
    """Upsize cells on violating paths; returns the number of moves."""
    return apply_moves(netlist, plan_upsizes(netlist, sta, library))


def recover_power(netlist: Netlist, routing: RoutingResult, sta: STAResult,
                  library: CellLibrary,
                  config: Optional[SizingConfig] = None) -> int:
    """Downsize comfortably-met cells; returns the number of moves."""
    return apply_moves(netlist, plan_downsizes(netlist, routing, sta,
                                               library, config))
