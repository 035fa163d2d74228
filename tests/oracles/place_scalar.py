"""Legacy instance-at-a-time placement kernels (parity oracle).

The library's placement path is the batched numpy implementation in
:mod:`repro.place.quadratic`, :mod:`repro.place.spreading` and
:mod:`repro.place.legalize`.  This module preserves the original
scalar (per-pin / per-cell Python loop) kernels **unchanged** so the
parity/QoR harness (``tests/test_place_parity.py``) can compare the
two: kernels are called directly, or swapped into a whole placement
run with ``monkeypatch.setattr`` on the names the flow calls.

It also keeps the original linear-scan FM partitioner
(:func:`fm_bipartition`), which ``tests/test_place_partition.py``
compares against the heap-based :func:`repro.place.partition.fm_bipartition`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.netlist.core import Instance, Netlist
from repro.place.grid import GEOM_TOL_UM, DensityGrid, Rect
from repro.place.partition import (PartitionResult, _areas,
                                   _rebalance_start, count_cut)
from repro.tech.cells import CELL_HEIGHT_UM


def spans_overlap(a0: float, a1: float, b0: float, b1: float,
                  tol: float = GEOM_TOL_UM) -> bool:
    """True when two 1D spans overlap by more than ``tol``."""
    return min(a1, b1) - max(a0, b0) > tol


# ---------------------------------------------------------------------------
# quadratic: per-pin B2B assembly (original QuadraticPlacer._solve_axis)
# ---------------------------------------------------------------------------

def solve_axis(placer, coords: np.ndarray, axis: int,
               anchors) -> np.ndarray:
    """One scalar B2B axis solve over ``placer.nets`` (legacy loop)."""
    from scipy.sparse.linalg import spsolve

    mat, rhs = assemble_axis(placer, coords, axis, anchors)
    return spsolve(mat, rhs)


def assemble_axis(placer, coords: np.ndarray, axis: int, anchors):
    """Build the legacy B2B system (matrix, rhs) for one axis.

    Split from :func:`solve_axis` to mirror the library's
    ``QuadraticPlacer._assemble_axis`` seam, so the two systems can be
    compared without the shared SuperLU factorization.
    """
    from scipy.sparse import coo_matrix

    n = placer.n
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs = np.zeros(n)
    diag = np.zeros(n)

    def add_pair(i: Optional[int], pi: float, j: Optional[int],
                 pj: float, w: float) -> None:
        if i is not None and j is not None:
            diag[i] += w
            diag[j] += w
            rows.append(i)
            cols.append(j)
            vals.append(-w)
            rows.append(j)
            cols.append(i)
            vals.append(-w)
        elif i is not None:
            diag[i] += w
            rhs[i] += w * pj
        elif j is not None:
            diag[j] += w
            rhs[j] += w * pi

    for net in placer.nets:
        pts: List[Tuple[Optional[int], float]] = []
        for m in net.movable:
            pts.append((m, coords[m]))
        for fx in net.fixed:
            pts.append((None, fx[axis]))
        p = len(pts)
        if p < 2:
            continue
        if p == 2:
            (i, pi), (j, pj) = pts
            w = net.weight * b2b_weight(pi, pj, p)
            add_pair(i, pi, j, pj, w)
            continue
        order = sorted(range(p), key=lambda k: pts[k][1])
        lo, hi = order[0], order[-1]
        for k in range(p):
            if k == lo:
                continue
            i, pi = pts[lo]
            j, pj = pts[k]
            w = net.weight * b2b_weight(pi, pj, p)
            add_pair(i, pi, j, pj, w)
        for k in range(p):
            if k in (lo, hi):
                continue
            i, pi = pts[hi]
            j, pj = pts[k]
            w = net.weight * b2b_weight(pi, pj, p)
            add_pair(i, pi, j, pj, w)

    if anchors is not None:
        ax, ay, strength = anchors
        target = ax if axis == 0 else ay
        diag += strength
        rhs += strength * target

    diag += 1e-6
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag.tolist())
    mat = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return mat, rhs


def b2b_weight(pi: float, pj: float, degree: int) -> float:
    """The scalar B2B weight formula (shared with the vectorized path)."""
    span = abs(pi - pj)
    return 2.0 / (max(degree - 1, 1) * max(span, 1.0))


# ---------------------------------------------------------------------------
# spreading: per-bin supply scan + per-cell leaf placement (original spread)
# ---------------------------------------------------------------------------

def supply_in(grid: DensityGrid, rect: Rect) -> float:
    """Placeable area inside ``rect`` (legacy per-bin loop)."""
    total = 0.0
    i0 = max(0, int((rect.x0 - grid.region.x0) / grid.bin_w))
    i1 = min(grid.nx - 1, int((rect.x1 - grid.region.x0) / grid.bin_w - 1e-9))
    j0 = max(0, int((rect.y0 - grid.region.y0) / grid.bin_h))
    j1 = min(grid.ny - 1, int((rect.y1 - grid.region.y0) / grid.bin_h - 1e-9))
    bin_area = grid.bin_w * grid.bin_h
    for i in range(i0, i1 + 1):
        bx0 = grid.region.x0 + i * grid.bin_w
        for j in range(j0, j1 + 1):
            by0 = grid.region.y0 + j * grid.bin_h
            cover = Rect(max(bx0, rect.x0), max(by0, rect.y0),
                         min(bx0 + grid.bin_w, rect.x1),
                         min(by0 + grid.bin_h, rect.y1)).area
            if cover > 0:
                total += grid.supply[i, j] * (cover / bin_area)
    return total


def spread(grid: DensityGrid, xs: np.ndarray, ys: np.ndarray,
           areas: np.ndarray,
           leaf_cells: int = 6) -> Tuple[np.ndarray, np.ndarray]:
    """Legacy recursive-bisection spreading (per-cell leaf loop)."""
    from repro.place.spreading import _nearest_free

    n = len(xs)
    out_x = xs.copy()
    out_y = ys.copy()
    if n == 0:
        return out_x, out_y

    def place_leaf(idx: np.ndarray, rect: Rect) -> None:
        k = len(idx)
        if k == 0:
            return
        cols = max(1, int(np.ceil(np.sqrt(k * max(rect.width, 1e-6) /
                                          max(rect.height, 1e-6)))))
        rows_n = int(np.ceil(k / cols))
        order = idx[np.lexsort((ys[idx], xs[idx]))]
        for slot, cell in enumerate(order):
            ci, rj = slot % cols, slot // cols
            px = rect.x0 + (ci + 0.5) * rect.width / cols
            py = rect.y0 + (rj + 0.5) * rect.height / max(rows_n, 1)
            if grid.in_obstruction(px, py):
                px, py = _nearest_free(grid, px, py)
            out_x[cell] = px
            out_y[cell] = py

    def recurse(idx: np.ndarray, rect: Rect, depth: int) -> None:
        if len(idx) <= leaf_cells or depth > 40:
            place_leaf(idx, rect)
            return
        horizontal = rect.width >= rect.height
        if horizontal:
            coords = xs[idx]
        else:
            coords = ys[idx]
        mid = 0.5 * ((rect.x0 + rect.x1) if horizontal
                     else (rect.y0 + rect.y1))
        if horizontal:
            r1 = Rect(rect.x0, rect.y0, mid, rect.y1)
            r2 = Rect(mid, rect.y0, rect.x1, rect.y1)
        else:
            r1 = Rect(rect.x0, rect.y0, rect.x1, mid)
            r2 = Rect(rect.x0, mid, rect.x1, rect.y1)
        s1 = supply_in(grid, r1)
        s2 = supply_in(grid, r2)
        total_supply = s1 + s2
        if total_supply <= 0:
            place_leaf(idx, rect)
            return
        order = idx[np.argsort(coords, kind="stable")]
        cum = np.cumsum(areas[order])
        target = cum[-1] * (s1 / total_supply)
        split = int(np.searchsorted(cum, target))
        split = max(0, min(len(order), split))
        recurse(order[:split], r1, depth + 1)
        recurse(order[split:], r2, depth + 1)

    recurse(np.arange(n), grid.region, 0)
    return out_x, out_y


# ---------------------------------------------------------------------------
# legalize: per-cell segment search + adjacent-only overlap scan
# ---------------------------------------------------------------------------

def legalize_cells(cells: Sequence[Instance], outline: Rect,
                   obstructions: Sequence[Rect] = (),
                   row_height: float = CELL_HEIGHT_UM,
                   max_row_search: int = 12):
    """Legacy Tetris legalization (per-cell min-displacement search)."""
    from repro.place.legalize import LegalizeResult, RowSegment, build_rows

    segments = build_rows(outline, obstructions, row_height)
    if not segments:
        return LegalizeResult(0, len(cells), 0.0, 0.0)
    rows: Dict[float, List[RowSegment]] = {}
    for seg in segments:
        rows.setdefault(round(seg.y, 3), []).append(seg)
    row_ys = sorted(rows)

    order = sorted(cells, key=lambda c: c.x)
    placed = 0
    failed = 0
    total_disp = 0.0
    max_disp = 0.0

    for cell in order:
        width = cell.width_um
        target_idx = min(range(len(row_ys)),
                         key=lambda i, y=cell.y: abs(row_ys[i] - y))
        best: Optional[Tuple[float, RowSegment, float]] = None
        for offset in range(max_row_search + 1):
            for idx in {target_idx - offset, target_idx + offset}:
                if not (0 <= idx < len(row_ys)):
                    continue
                y = row_ys[idx]
                dy = abs(y - cell.y)
                if best is not None and dy >= best[0]:
                    continue
                for seg in rows[y]:
                    if seg.free < width:
                        continue
                    x = min(max(cell.x, seg.cursor), seg.x1 - width)
                    if x < seg.cursor:
                        continue
                    disp = abs(x - cell.x) + dy
                    if best is None or disp < best[0]:
                        best = (disp, seg, x)
            if best is not None and offset > 2:
                break
        if best is None:
            failed += 1
            continue
        disp, seg, x = best
        cell.x = x
        cell.y = seg.y
        seg.cursor = x + width
        placed += 1
        total_disp += disp
        max_disp = max(max_disp, disp)

    return LegalizeResult(placed=placed, failed=failed,
                          total_displacement_um=total_disp,
                          max_displacement_um=max_disp)


def overlapping_pairs(cells: Sequence[Instance],
                      row_height: float = CELL_HEIGHT_UM,
                      x_is_center: bool = False
                      ) -> List[Tuple[Instance, Instance]]:
    """Legacy adjacent-neighbor overlap scan.

    Only compares each cell against its immediate right neighbor, so a
    wide cell spanning several neighbors under-reports its overlaps --
    the vectorized sweep in :mod:`~repro.place.legalize` fixes that.
    Kept verbatim as the parity reference.
    """
    by_row: Dict[float, List[Instance]] = {}
    for c in cells:
        by_row.setdefault(round(c.y, 3), []).append(c)
    pairs: List[Tuple[Instance, Instance]] = []
    for row_cells in by_row.values():
        row_cells.sort(key=lambda c: c.x)
        for a, b in zip(row_cells, row_cells[1:]):
            if x_is_center:
                a0, a1 = a.x - a.width_um / 2, a.x + a.width_um / 2
                b0, b1 = b.x - b.width_um / 2, b.x + b.width_um / 2
            else:
                a0, a1 = a.x, a.x + a.width_um
                b0, b1 = b.x, b.x + b.width_um
            if spans_overlap(a0, a1, b0, b1, tol=GEOM_TOL_UM):
                pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# row snap: per-cell coordinate assignment (original snap_to_rows)
# ---------------------------------------------------------------------------

def snap_to_rows(movable: List, xs: np.ndarray, ys: np.ndarray,
                 outline: Rect) -> None:
    """Legacy per-cell row snap."""
    row0 = outline.y0 + CELL_HEIGHT_UM / 2
    for k, inst in enumerate(movable):
        inst.x = float(np.clip(xs[k], outline.x0, outline.x1))
        row = round((ys[k] - row0) / CELL_HEIGHT_UM)
        inst.y = float(np.clip(row0 + row * CELL_HEIGHT_UM,
                               outline.y0, outline.y1))


# ---------------------------------------------------------------------------
# partition: linear-scan move selection (original fm_bipartition)
# ---------------------------------------------------------------------------

def fm_bipartition(netlist: Netlist,
                   initial: Optional[Dict[int, int]] = None,
                   locked: Optional[Set[int]] = None,
                   balance_tol: float = 0.10,
                   max_passes: int = 6,
                   seed: int = 0) -> PartitionResult:
    """Linear-scan FM: every move is the best of a scan over all cells.

    The original move selection, O(n) per move; same arguments and
    result as :func:`repro.place.partition.fm_bipartition`.
    """
    rng = np.random.default_rng(seed)
    insts = list(netlist.instances.values())
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

    total_area = sum(i.area_um2 for i in insts)
    lo = total_area * (0.5 - balance_tol)
    hi = total_area * (0.5 + balance_tol)

    # net -> movable instance ids (dedup); instance -> net ids
    net_members: Dict[int, List[int]] = {}
    inst_nets: Dict[int, List[int]] = defaultdict(list)
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        members = sorted({r.inst for r in net.endpoints() if not r.is_port})
        if len(members) < 2:
            continue
        net_members[net.id] = members
        for m in members:
            inst_nets[m].append(net.id)

    def side_counts(net_id: int) -> List[int]:
        counts = [0, 0]
        for m in net_members[net_id]:
            counts[assignment[m]] += 1
        return counts

    area = _areas(netlist, assignment)
    # the shared start pre-pass: it fixes the start, not the move scan
    _rebalance_start(insts, assignment, area, locked, net_members,
                     inst_nets, hi)

    for _ in range(max_passes):
        counts = {nid: side_counts(nid) for nid in net_members}
        gains: Dict[int, int] = {}
        for inst in insts:
            if inst.id in locked:
                continue
            g = 0
            s = assignment[inst.id]
            for nid in inst_nets[inst.id]:
                c = counts[nid]
                if c[s] == 1 and c[1 - s] > 0:
                    g += 1  # moving uncuts the net
                elif c[1 - s] == 0:
                    g -= 1  # moving cuts the net
            gains[inst.id] = g

        moved: List[int] = []
        gain_trace: List[int] = []
        locked_pass: Set[int] = set(locked)
        cum = 0
        order_jitter = {iid: rng.random() for iid in gains}

        for _step in range(len(gains)):
            best_id, best_gain = None, None
            for iid, g in gains.items():
                if iid in locked_pass:
                    continue
                s = assignment[iid]
                a = netlist.instances[iid].area_um2
                if not (lo <= area[s] - a and area[1 - s] + a <= hi):
                    continue
                key = (g, order_jitter[iid])
                if best_gain is None or key > best_gain:
                    best_gain, best_id = key, iid
            if best_id is None:
                break
            g = gains[best_id]
            s = assignment[best_id]
            a = netlist.instances[best_id].area_um2
            assignment[best_id] = 1 - s
            area[s] -= a
            area[1 - s] += a
            locked_pass.add(best_id)
            cum += g
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
                if t in locked_pass or t in locked or t not in gains:
                    continue
                g2 = 0
                st = assignment[t]
                for nid in inst_nets[t]:
                    c = counts[nid]
                    if c[st] == 1 and c[1 - st] > 0:
                        g2 += 1
                    elif c[1 - st] == 0:
                        g2 -= 1
                gains[t] = g2
            if len(moved) > 2 * len(gains):  # pragma: no cover - safety
                break

        if not gain_trace or max(gain_trace) <= 0:
            # revert the whole pass
            for iid in moved:
                s = assignment[iid]
                a = netlist.instances[iid].area_um2
                assignment[iid] = 1 - s
                area[s] -= a
                area[1 - s] += a
            break
        # keep the best prefix
        best_k = int(np.argmax(gain_trace)) + 1
        for iid in moved[best_k:]:
            s = assignment[iid]
            a = netlist.instances[iid].area_um2
            assignment[iid] = 1 - s
            area[s] -= a
            area[1 - s] += a

    return PartitionResult(assignment=assignment,
                           cut_nets=count_cut(netlist, assignment),
                           area=_areas(netlist, assignment))
