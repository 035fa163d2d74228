"""Fiduccia-Mattheyses bipartitioning for die assignment.

Block folding partitions one block's instances across the two tiers.  The
paper uses either *natural* partitions (PCX/CPX in the CCX, sub-banks in
the L2 data bank, FUB groups in the SPC) or min-cut partitions balancing
die area; this module provides the min-cut engine plus helpers to seed it
from region metadata, with per-instance locking for pre-assigned objects
(e.g. macros pinned to a tier).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import trace


@dataclass
class PartitionResult:
    """Outcome of bipartitioning: instance id -> die (0/1)."""

    assignment: Dict[int, int]
    cut_nets: int
    area: Dict[int, float]

    @property
    def balance(self) -> float:
        """Larger-side area fraction (0.5 = perfect balance)."""
        total = self.area[0] + self.area[1]
        if total == 0:
            return 0.5
        return max(self.area[0], self.area[1]) / total


def count_cut(netlist: Netlist, assignment: Dict[int, int]) -> int:
    """Number of non-clock nets with instances on both dies."""
    cut = 0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        sides = {assignment[r.inst] for r in net.endpoints()
                 if not r.is_port and r.inst in assignment}
        if len(sides) > 1:
            cut += 1
    return cut


def _areas(netlist: Netlist, assignment: Dict[int, int]) -> Dict[int, float]:
    area = {0: 0.0, 1: 0.0}
    for iid, side in assignment.items():
        area[side] += netlist.instances[iid].area_um2
    return area


def _check_inputs(netlist: Netlist, initial: Optional[Dict[int, int]],
                  locked: Optional[Set[int]]) -> None:
    """Reject ids outside the netlist and sides other than 0/1."""
    insts = netlist.instances
    initial = initial or {}
    for what, bad in (
            ("initial names ids not in the netlist",
             [i for i in initial if i not in insts]),
            ("locked names ids not in the netlist",
             [i for i in locked or () if i not in insts]),
            ("initial gives a side other than 0/1 to ids",
             [i for i, side in initial.items() if side not in (0, 1)])):
        if bad:
            raise ValueError(f"fm_bipartition on {netlist.name!r}: {what} "
                             f"{sorted(bad)}")


def _gain(side: int, nets: List[int], counts: Dict[int, List[int]]) -> int:
    """Cut reduction from moving a cell on ``nets`` off ``side``."""
    g = 0
    for nid in nets:
        c = counts[nid]
        if c[side] == 1 and c[1 - side] > 0:
            g += 1  # moving uncuts the net
        elif c[1 - side] == 0:
            g -= 1  # moving cuts the net
    return g


def fm_bipartition(netlist: Netlist,
                   initial: Optional[Dict[int, int]] = None,
                   locked: Optional[Set[int]] = None,
                   balance_tol: float = 0.10,
                   max_passes: int = 6,
                   seed: int = 0) -> PartitionResult:
    """Min-cut bipartition with area balance.

    Each FM pass moves free cells one at a time, always the
    balance-feasible cell with the largest ``(gain, jitter)`` (first in
    instance order on a tie), then keeps the best prefix of its moves.
    The candidates sit in one lazy max-heap per ``(side, area)`` group:
    a move's feasibility depends only on those two, so the best move is
    the best heap top among the feasible groups, O(groups + log n) per
    move instead of a scan over every cell.

    Args:
        netlist: the block netlist (ports are ignored for cut counting).
        initial: optional starting assignment; an unlisted instance goes
            to die 0 when its locality cluster is in the lower half of
            the sorted cluster ids and to die 1 otherwise, which is
            already a decent split for hierarchically local netlists.
        locked: instance ids that must keep their initial side.
        balance_tol: each side must hold within ``0.5 +/- tol`` of area.
        max_passes: FM pass limit.
        seed: tie-break randomness.

    Returns:
        The refined partition.

    Raises:
        ValueError: if ``initial`` or ``locked`` names an instance id
            that is not in the netlist, or ``initial`` gives a side other
            than 0 or 1.
    """
    _check_inputs(netlist, initial, locked)
    rng = np.random.default_rng(seed)
    insts = list(netlist.instances.values())
    area_of = {inst.id: inst.area_um2 for inst in insts}
    assignment: Dict[int, int] = {}
    if initial:
        assignment.update(initial)
    # default: split the cluster space in half (locality-preserving)
    clusters = sorted({i.cluster for i in insts})
    half = set(clusters[: len(clusters) // 2])
    for inst in insts:
        if inst.id not in assignment:
            assignment[inst.id] = 0 if inst.cluster in half else 1
    locked = set(locked or ())

    with trace.span("place.partition", cells=len(insts),
                    locked=len(locked)) as sp:
        total_area = sum(area_of.values())
        lo = total_area * (0.5 - balance_tol)
        hi = total_area * (0.5 + balance_tol)

        # net -> movable instance ids (dedup); instance -> net ids
        net_members: Dict[int, List[int]] = {}
        inst_nets: Dict[int, List[int]] = defaultdict(list)
        for net in netlist.nets.values():
            if net.is_clock:
                continue
            members = sorted({r.inst for r in net.endpoints()
                              if not r.is_port})
            if len(members) < 2:
                continue
            net_members[net.id] = members
            for m in members:
                inst_nets[m].append(net.id)

        area = {0: 0.0, 1: 0.0}
        for iid, side in assignment.items():
            area[side] += area_of[iid]

        def flip(iid: int) -> None:
            s = assignment[iid]
            a = area_of[iid]
            assignment[iid] = 1 - s
            area[s] -= a
            area[1 - s] += a

        passes = moves = 0

        for _ in range(max_passes):
            passes += 1
            counts: Dict[int, List[int]] = {}
            for nid, members in net_members.items():
                c = [0, 0]
                for m in members:
                    c[assignment[m]] += 1
                counts[nid] = c
            gains = {inst.id: _gain(assignment[inst.id], inst_nets[inst.id],
                                    counts)
                     for inst in insts if inst.id not in locked}
            # ties on gain go to the larger jitter, then the first cell
            rank = {iid: (-rng.random(), k) for k, iid in enumerate(gains)}

            # (side, area) -> heap of (-gain, rank, id); an entry is live
            # while its cell is free and has that gain (a free cell keeps
            # its side for the whole pass)
            heaps: Dict[Tuple[int, float],
                        List[Tuple[int, Tuple[float, int], int]]] = {}
            for iid, g in gains.items():
                heaps.setdefault((assignment[iid], area_of[iid]), []).append(
                    (-g, rank[iid], iid))
            for heap in heaps.values():
                heapify(heap)

            moved: List[int] = []
            gain_trace: List[int] = []
            locked_pass: Set[int] = set(locked)
            cum = 0

            for _step in range(len(gains)):
                best = None
                for (s, a), heap in heaps.items():
                    if not (lo <= area[s] - a and area[1 - s] + a <= hi):
                        continue
                    while heap and (heap[0][2] in locked_pass
                                    or gains[heap[0][2]] != -heap[0][0]):
                        heappop(heap)
                    if heap and (best is None or heap[0] < best):
                        best = heap[0]
                if best is None:
                    break
                best_id = best[2]
                s = assignment[best_id]
                flip(best_id)
                locked_pass.add(best_id)
                cum += gains[best_id]
                moved.append(best_id)
                gain_trace.append(cum)
                # update gains of neighbors
                touched = set()
                for nid in inst_nets[best_id]:
                    c = counts[nid]
                    c[s] -= 1
                    c[1 - s] += 1
                    touched.update(net_members[nid])
                for t in touched:
                    if t in locked_pass:
                        continue
                    g2 = _gain(assignment[t], inst_nets[t], counts)
                    if g2 != gains[t]:
                        gains[t] = g2
                        heappush(heaps[(assignment[t], area_of[t])],
                                 (-g2, rank[t], t))

            if not gain_trace or max(gain_trace) <= 0:
                # revert the whole pass
                for iid in moved:
                    flip(iid)
                break
            # keep the best prefix
            best_k = int(np.argmax(gain_trace)) + 1
            for iid in moved[best_k:]:
                flip(iid)
            moves += best_k

        cut = count_cut(netlist, assignment)
        sp.set(passes=passes, moves=moves, cut=cut)
    return PartitionResult(assignment=assignment, cut_nets=cut,
                           area=_areas(netlist, assignment))


def balanced_split(scores: np.ndarray, areas: np.ndarray,
                   pre_area: tuple = (0.0, 0.0)) -> np.ndarray:
    """Threshold continuous scores into two area-balanced sides.

    The analytical (bistratal) die assignment solves a continuous
    z in [0, 1] per movable cell and needs the discretization step: sort
    by score (stable, so equal scores keep input order), then cut the
    prefix whose side-0 area lands closest to half the total --
    including ``pre_area``, the area already pinned to each side (macros
    and other fixed objects).  Ties pick the smallest prefix.

    Args:
        scores: per-cell continuous side score (low -> side 0).
        areas: per-cell areas.
        pre_area: (side0, side1) area already committed.

    Returns:
        int array of 0/1 side assignments aligned with ``scores``.
    """
    n = len(scores)
    side = np.ones(n, dtype=np.int64)
    if n == 0:
        return side
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(areas[order])
    total = float(cum[-1]) + pre_area[0] + pre_area[1]
    # area0[k] = side-0 area when the k lowest-score cells go to side 0
    area0 = pre_area[0] + np.concatenate([[0.0], cum])
    k = int(np.argmin(np.abs(area0 - total / 2)))
    side[order[:k]] = 0
    return side


def partition_by_clusters(netlist: Netlist, die1_clusters: Iterable[int]
                          ) -> Dict[int, int]:
    """Assignment placing instances of the given clusters on die 1."""
    die1 = set(die1_clusters)
    return {i.id: (1 if i.cluster in die1 else 0)
            for i in netlist.instances.values()}
