"""Tetris row legalization.

The spreading stage leaves cells approximately density-legal but still
overlapping; this pass produces a fully overlap-free placement the way
the classic Tetris/Abacus legalizers do:

1. build standard-cell rows across the core area, split into *segments*
   by macro obstructions;
2. assign cells to row segments (nearest row first, probing farther rows
   only when capacity runs out), then pack each segment in one batched
   scan: the prefix-max recurrence ``pos = cwe + max.accumulate(d - cwe)``
   resolves all left-to-right pushes at once and a suffix-sum clamp keeps
   every cell inside the segment.

The result keeps the global placement's structure (displacement is the
quality metric) while guaranteeing non-overlap -- which the DEF export
and the macro keep-out checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netlist.core import Instance, Netlist
from ..obs import trace
from ..obs.metrics import metrics
from ..tech.cells import CELL_HEIGHT_UM
from .grid import GEOM_TOL_UM, Rect


@dataclass
class RowSegment:
    """A contiguous placeable span within one cell row."""

    y: float
    x0: float
    x1: float
    #: x coordinate where the next cell will be packed
    cursor: float = field(init=False)

    def __post_init__(self) -> None:
        self.cursor = self.x0

    @property
    def free(self) -> float:
        return self.x1 - self.cursor

    @property
    def capacity(self) -> float:
        return self.x1 - self.x0


@dataclass
class LegalizeResult:
    """Summary of one legalization run."""

    placed: int
    failed: int
    total_displacement_um: float
    max_displacement_um: float

    @property
    def avg_displacement_um(self) -> float:
        return self.total_displacement_um / self.placed if self.placed \
            else 0.0


def macro_rects_of(netlist: Netlist) -> Dict[int, List[Rect]]:
    """Per-die macro rectangles reconstructed from placed macro instances.

    The placers store macro positions as center coordinates on the
    instances themselves, so this reconstruction is exact -- the same
    rectangles the density grids carved out as holes, and the
    obstructions an ECO legalization packs around.
    """
    rects: Dict[int, List[Rect]] = {}
    for inst in netlist.macros:
        w, h = inst.width_um, inst.height_um
        rects.setdefault(inst.die, []).append(
            Rect(inst.x - w / 2, inst.y - h / 2,
                 inst.x + w / 2, inst.y + h / 2))
    return rects


def build_rows(outline: Rect, obstructions: Sequence[Rect],
               row_height: float = CELL_HEIGHT_UM) -> List[RowSegment]:
    """Cut the outline into rows, splitting at macro obstructions."""
    segments: List[RowSegment] = []
    n_rows = max(1, int(outline.height / row_height))
    for r in range(n_rows):
        y0 = outline.y0 + r * row_height
        y1 = y0 + row_height
        y_mid = 0.5 * (y0 + y1)
        # collect blocked x intervals for this row
        blocked: List[Tuple[float, float]] = []
        for o in obstructions:
            if o.y0 < y1 and o.y1 > y0:
                blocked.append((max(o.x0, outline.x0),
                                min(o.x1, outline.x1)))
        blocked.sort()
        cursor = outline.x0
        for b0, b1 in blocked:
            if b0 > cursor:
                segments.append(RowSegment(y=y_mid, x0=cursor, x1=b0))
            cursor = max(cursor, b1)
        if cursor < outline.x1:
            segments.append(RowSegment(y=y_mid, x0=cursor,
                                       x1=outline.x1))
    return segments


def legalize_cells(cells: Sequence[Instance], outline: Rect,
                   obstructions: Sequence[Rect] = (),
                   row_height: float = CELL_HEIGHT_UM,
                   max_row_search: int = 12) -> LegalizeResult:
    """Tetris-legalize ``cells`` in place.

    Args:
        cells: movable standard cells (macros must be in
            ``obstructions`` instead).
        outline: the core area.
        obstructions: macro rectangles (rows are split around them).
        row_height: standard-cell row pitch.
        max_row_search: how many rows above/below the target to try.

    Returns:
        Displacement statistics; cells that found no segment (core
        overfull) keep their input position and count as ``failed``.
    """
    with trace.span("place.legalize", cells=len(cells)):
        return _legalize_batched(cells, outline, obstructions,
                                 row_height, max_row_search)


def _legalize_batched(cells: Sequence[Instance], outline: Rect,
                      obstructions: Sequence[Rect], row_height: float,
                      max_row_search: int) -> LegalizeResult:
    segments = build_rows(outline, obstructions, row_height)
    if not segments:
        return LegalizeResult(0, len(cells), 0.0, 0.0)
    n = len(cells)
    if n == 0:
        return LegalizeResult(0, 0, 0.0, 0.0)

    # group segments into rows; per-row segment ids sorted by x0
    rows: Dict[float, List[int]] = {}
    for sid, seg in enumerate(segments):
        rows.setdefault(round(seg.y, 3), []).append(sid)
    row_ys = sorted(rows)
    n_rows = len(row_ys)
    row_segs = [sorted(rows[y], key=lambda sid: segments[sid].x0)
                for y in row_ys]
    ry = np.array(row_ys)
    seg_free = np.array([seg.capacity for seg in segments])
    seg_x0 = np.array([seg.x0 for seg in segments])

    cx = np.array([c.x for c in cells])
    cy = np.array([c.y for c in cells])
    cw = np.array([c.width_um for c in cells])

    # nearest row per cell; midpoint ties pick the lower row, like the
    # legacy first-minimum scan
    if n_rows > 1:
        mids = 0.5 * (ry[:-1] + ry[1:])
        target = np.searchsorted(mids, cy, side="left")
    else:
        target = np.zeros(n, dtype=np.int64)

    assigned_of: Dict[int, List[int]] = {}

    def assign_row(row: int, ids: np.ndarray) -> np.ndarray:
        """Greedy-fill one row; returns the ids that did not fit."""
        ids = ids[np.argsort(cx[ids], kind="stable")]
        sids = row_segs[row]
        # nearest segment per cell (by x distance to the segment span)
        if len(sids) > 1:
            x0s = seg_x0[sids]
            si = np.clip(np.searchsorted(x0s, cx[ids], side="right") - 1,
                         0, len(sids) - 1)
            x1s = np.array([segments[s].x1 for s in sids])
            d_here = np.maximum(cx[ids] - x1s[si], 0.0)
            nxt = np.minimum(si + 1, len(sids) - 1)
            d_next = np.maximum(x0s[nxt] - cx[ids], 0.0)
            si = np.where((nxt != si) & (d_next < d_here), nxt, si)
        else:
            si = np.zeros(len(ids), dtype=np.int64)
        leftover: List[np.ndarray] = []
        # left-to-right: each segment takes its own cells plus spill
        # from the left, largest prefix that fits its remaining space
        for k, sid in enumerate(sids):
            want = ids[si == k]
            if leftover:
                want = np.concatenate([leftover.pop(), want])
            if len(want) == 0:
                continue
            cum = np.cumsum(cw[want])
            take = int(np.searchsorted(cum, seg_free[sid], side="right"))
            got, spill = want[:take], want[take:]
            if len(got):
                seg_free[sid] -= float(cum[len(got) - 1])
                assigned_of.setdefault(sid, []).extend(got.tolist())
            if len(spill):
                leftover.append(spill)
        if not leftover:
            return np.empty(0, dtype=np.int64)
        # right-to-left backfill into whatever space remains
        rest = leftover[0]
        for sid in reversed(sids):
            if len(rest) == 0:
                break
            cum = np.cumsum(cw[rest])
            take = int(np.searchsorted(cum, seg_free[sid], side="right"))
            got, rest = rest[:take], rest[take:]
            if len(got):
                seg_free[sid] -= float(cum[len(got) - 1])
                assigned_of.setdefault(sid, []).extend(got.tolist())
        return rest

    def try_assign(cand: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Try candidate rows for ``ids``; returns the leftovers."""
        valid = (cand >= 0) & (cand < n_rows)
        rejected = [ids[~valid]]
        tryable = ids[valid]
        cand_rows = cand[valid]
        for row in np.unique(cand_rows):
            rej = assign_row(int(row), tryable[cand_rows == row])
            if len(rej):
                rejected.append(rej)
        return np.sort(np.concatenate(rejected))

    def row_choices(ids: np.ndarray,
                    offset: int) -> Tuple[np.ndarray, np.ndarray]:
        """Closer-first candidate rows at ``target +/- offset``."""
        lo = target[ids] - offset
        hi = target[ids] + offset
        d_lo = np.where(lo >= 0,
                        np.abs(ry[np.clip(lo, 0, n_rows - 1)] - cy[ids]),
                        np.inf)
        d_hi = np.where(hi < n_rows,
                        np.abs(ry[np.clip(hi, 0, n_rows - 1)] - cy[ids]),
                        np.inf)
        closer_lo = d_lo <= d_hi
        return (np.where(closer_lo, lo, hi), np.where(closer_lo, hi, lo))

    pending = np.arange(n)
    for offset in range(max_row_search + 1):
        if len(pending) == 0:
            break
        if offset == 0:
            pending = try_assign(target[pending], pending)
            continue
        first, _ = row_choices(pending, offset)
        pending = try_assign(first, pending)
        if len(pending) == 0:
            break
        # the same-offset second choice for the cells that missed
        _, second = row_choices(pending, offset)
        pending = try_assign(second, pending)

    # batched per-segment pack: prefix-max forward push, suffix clamp
    placed = 0
    total_disp = 0.0
    max_disp = 0.0
    for sid, id_list in sorted(assigned_of.items()):
        seg = segments[sid]
        ids = np.array(id_list)
        ids = ids[np.argsort(cx[ids], kind="stable")]
        w = cw[ids]
        d = np.clip(cx[ids], seg.x0, seg.x1 - w)
        cwe = np.concatenate([[0.0], np.cumsum(w)[:-1]])
        pos = cwe + np.maximum.accumulate(d - cwe)
        # rightmost feasible start so cells k..end still fit the segment
        suffix = np.cumsum(w[::-1])[::-1]
        final = np.minimum(pos, seg.x1 - suffix)
        disp = np.abs(final - cx[ids]) + np.abs(seg.y - cy[ids])
        for k, cid in enumerate(ids):
            cells[cid].x = float(final[k])
            cells[cid].y = seg.y
        seg.cursor = float(final[-1] + w[-1])
        placed += len(ids)
        total_disp += float(disp.sum())
        max_disp = max(max_disp, float(disp.max()))

    failed = n - placed
    metrics().counter("place.cells_legalized").inc(placed)
    return LegalizeResult(placed=placed, failed=failed,
                          total_displacement_um=total_disp,
                          max_displacement_um=max_disp)


def legalize_new_cells(new_cells: Sequence[Instance],
                       placed: Sequence[Instance], outline: Rect,
                       obstructions: Sequence[Rect] = (),
                       row_height: float = CELL_HEIGHT_UM,
                       max_row_search: int = 4) -> LegalizeResult:
    """Legalize only ``new_cells`` against an already-placed block.

    The incremental counterpart of :func:`legalize_cells` for ECO
    buffer insertion: instead of re-running the row scan over the whole
    block, the outline is clipped to the *touched row band* (the new
    cells' target rows plus the probe margin), every existing cell
    whose row lands in the band becomes an obstruction, and the batched
    kernel runs over just the new cells.  Rows keep their global y
    coordinates (the band is clipped on row boundaries), so a cell
    legalized incrementally sits on exactly the grid a full pass would
    use.

    Args:
        new_cells: the freshly inserted cells (mutated in place).
        placed: the block's existing cells (never moved).
        outline: the full core area.
        obstructions: macro rectangles.
        row_height: standard-cell row pitch.
        max_row_search: probe margin around each target row.

    Returns:
        Displacement statistics for the new cells only.
    """
    if not new_cells:
        return LegalizeResult(0, 0, 0.0, 0.0)
    n_rows = max(1, int(outline.height / row_height))

    def row_of(y: float) -> int:
        r = int((y - outline.y0) // row_height)
        return min(max(r, 0), n_rows - 1)

    targets = [row_of(c.y) for c in new_cells]
    r_lo = max(0, min(targets) - max_row_search)
    r_hi = min(n_rows - 1, max(targets) + max_row_search)
    band = Rect(outline.x0, outline.y0 + r_lo * row_height,
                outline.x1, outline.y0 + (r_hi + 1) * row_height)
    blocks: List[Rect] = [o for o in obstructions
                          if o.y0 < band.y1 and o.y1 > band.y0]
    half = row_height / 2.0
    for c in placed:
        if c.y + half > band.y0 and c.y - half < band.y1:
            blocks.append(Rect(c.x, c.y - half, c.x + c.width_um,
                               c.y + half))
    return legalize_cells(new_cells, band, blocks, row_height,
                          max_row_search)


def overlapping_pairs(cells: Sequence[Instance],
                      row_height: float = CELL_HEIGHT_UM,
                      x_is_center: bool = False
                      ) -> List[Tuple[Instance, Instance]]:
    """All same-row cell pairs whose x spans overlap.

    Cells are bucketed into rows by their y coordinate; within a row a
    sorted sweep finds *every* overlapping pair (an adjacent-neighbor
    scan would miss overlaps spanned by wide cells).  Candidate pairs are
    confirmed as ``min(a1, b1) - max(a0, b0) > GEOM_TOL_UM``; the lint
    checker calls this function, so the tools cannot disagree about
    what counts as an overlap.

    Args:
        cells: placed standard cells.
        row_height: row pitch (used only for bucketing keys).
        x_is_center: interpret ``x`` as the cell center (global-place /
            row-snap convention) instead of the left edge (legalizer
            convention).
    """
    n = len(cells)
    if n < 2:
        return []
    x = np.array([c.x for c in cells])
    y = np.array([c.y for c in cells])
    w = np.array([c.width_um for c in cells])
    if x_is_center:
        s = x - w / 2
        e = x + w / 2
    else:
        s = x
        e = x + w
    # bucket rows exactly like the legacy scan (round to nm), then fold
    # the row id into the sort key so one global sweep handles all rows:
    # each row occupies its own key band of width > any in-row span
    _, row = np.unique(np.round(y, 3), return_inverse=True)
    base = float(np.min(s))
    stride = float(np.max(e)) - base + 1.0
    key_s = row * stride + (s - base)
    key_e = row * stride + (e - base)
    o = np.lexsort((s, row))
    key_s, key_e, s, e = key_s[o], key_e[o], s[o], e[o]
    # candidate right partners: every j > i whose start precedes cell
    # i's end (same row by key-band construction; superset of the > tol
    # test, confirmed below)
    jmax = np.searchsorted(key_s, key_e, side="left") - 1
    cnt = np.maximum(jmax - np.arange(n), 0)
    total = int(cnt.sum())
    if total == 0:
        return []
    ii = np.repeat(np.arange(n), cnt)
    start = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    jj = np.arange(total) - np.repeat(start, cnt) + ii + 1
    # signed span overlap: min(a1,b1) - max(a0,b0)
    keep = (np.minimum(e[ii], e[jj]) -
            np.maximum(s[ii], s[jj])) > GEOM_TOL_UM
    return [(cells[a], cells[b]) for a, b in zip(o[ii[keep]], o[jj[keep]])]


def check_overlaps(cells: Sequence[Instance],
                   row_height: float = CELL_HEIGHT_UM) -> int:
    """Count pairwise overlaps among legalized cells (same row only)."""
    return len(overlapping_pairs(cells, row_height))
