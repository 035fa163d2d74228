"""Whitespace-aware cell spreading by recursive bisection.

Takes the overlapping quadratic solution and redistributes cells so that
no region demands more area than it supplies, while preserving the
relative cell order (which carries the wirelength optimization).  The
region supply comes from the :class:`~repro.place.grid.DensityGrid`, so
macro holes are respected automatically -- cells flow around memory
macros instead of piling against them.

Two batched kernels carry the cost: region supply queries answer in
O(1) from prefix-sum tables (:class:`_SupplyAccel`), and all leaf
regions place their cells in one vectorized pass after the bisection
has only *partitioned* the index set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs.metrics import metrics
from .grid import DensityGrid, Rect


class _SupplyAccel:
    """O(1) fractional-coverage supply sums from prefix tables.

    ``supply_in`` decomposes a query rectangle into up to nine pieces:
    four partially covered corner bins, four edge strips (one partial
    axis), and the fully covered interior.  Corners read the supply map
    directly, edge strips read 1D prefix sums, and the interior reads
    the 2D summed-area table -- a constant ~20 flops per query instead
    of a slice reduction.
    """

    def __init__(self, grid: DensityGrid) -> None:
        self.grid = grid
        s = grid.supply
        # stored as nested Python lists: the queries below index single
        # elements, where list access avoids numpy scalar boxing
        row = np.cumsum(s, axis=1)
        #: per-column prefix along y: row[i][j] = sum(s[i, :j+1])
        self.row = row.tolist()
        #: per-row prefix along x: col[i][j] = sum(s[:i+1, j])
        self.col = np.cumsum(s, axis=0).tolist()
        #: inclusive 2D summed-area table
        self.sat = np.cumsum(row, axis=0).tolist()
        self.supply = s.tolist()
        # scalars hoisted out of the per-query hot path
        self.rx0 = grid.region.x0
        self.ry0 = grid.region.y0
        self.bw = grid.bin_w
        self.bh = grid.bin_h
        self.imax = grid.nx - 1
        self.jmax = grid.ny - 1

    def supply_in(self, x0: float, y0: float, x1: float,
                  y1: float) -> float:
        """Placeable area inside the rect (fractional bin coverage)."""
        rx0, ry0, bw, bh = self.rx0, self.ry0, self.bw, self.bh
        i0 = max(0, int((x0 - rx0) / bw))
        i1 = min(self.imax, int((x1 - rx0) / bw - 1e-9))
        j0 = max(0, int((y0 - ry0) / bh))
        j1 = min(self.jmax, int((y1 - ry0) / bh - 1e-9))
        if i1 < i0 or j1 < j0:
            return 0.0
        bx0 = rx0 + i0 * bw
        bx1 = rx0 + i1 * bw
        by0 = ry0 + j0 * bh
        by1 = ry0 + j1 * bh
        wx0 = max(0.0, min(bx0 + bw, x1) - max(bx0, x0))
        wx1 = max(0.0, min(bx1 + bw, x1) - max(bx1, x0))
        wy0 = max(0.0, min(by0 + bh, y1) - max(by0, y0))
        wy1 = max(0.0, min(by1 + bh, y1) - max(by1, y0))
        total = wx0 * self._strip(i0, j0, j1, wy0, wy1)
        if i0 != i1:
            total += wx1 * self._strip(i1, j0, j1, wy0, wy1)
            if i1 - i0 > 1:
                # interior columns are fully covered along x
                col, sat = self.col, self.sat
                ca, cb = col[i0], col[i1 - 1]
                if j0 == j1:
                    mid = (cb[j0] - ca[j0]) * wy0
                else:
                    mid = ((cb[j0] - ca[j0]) * wy0 +
                           (cb[j1] - ca[j1]) * wy1)
                    if j1 - j0 > 1:
                        ta, tb = sat[i0], sat[i1 - 1]
                        mid += bh * (tb[j1 - 1] - ta[j1 - 1] -
                                     tb[j0] + ta[j0])
                total += bw * mid
        return total / (bw * bh)

    def _strip(self, i: int, j0: int, j1: int, wy0: float,
               wy1: float) -> float:
        # sum_j s[i][j] * wy_j for one (partial) column i
        si = self.supply[i]
        if j0 == j1:
            return si[j0] * wy0
        acc = si[j0] * wy0 + si[j1] * wy1
        if j1 - j0 > 1:
            ri = self.row[i]
            acc += self.bh * (ri[j1 - 1] - ri[j0])
        return acc


def _supply_in(grid: DensityGrid, rect: Rect) -> float:
    """One-shot supply query (tests / callers without an accel table)."""
    return _SupplyAccel(grid).supply_in(rect.x0, rect.y0, rect.x1,
                                        rect.y1)


def spread(grid: DensityGrid, xs: np.ndarray, ys: np.ndarray,
           areas: np.ndarray,
           leaf_cells: int = 6) -> Tuple[np.ndarray, np.ndarray]:
    """Spread cells into the grid's free area.

    Args:
        grid: density grid with macro holes already carved out.
        xs, ys: global-placement coordinates (not modified).
        areas: cell areas.
        leaf_cells: stop bisecting below this many cells per region.

    Returns:
        New (x, y) arrays with approximately legal density.
    """
    metrics().counter("place.spread_calls").inc()
    n = len(xs)
    out_x = xs.copy()
    out_y = ys.copy()
    if n == 0:
        return out_x, out_y
    accel = _SupplyAccel(grid)
    leaves: List[Tuple[np.ndarray, float, float, float, float]] = []

    # depth-first bisection over an explicit stack, first half on top;
    # regions carry plain float bounds (no Rect allocation on the hot
    # path) and only *partition* the index set -- the leaves place
    # their cells afterwards in one batched pass
    region = grid.region
    stack = [(np.arange(n), region.x0, region.y0, region.x1, region.y1,
              0)]
    while stack:
        idx, x0, y0, x1, y1, depth = stack.pop()
        if len(idx) <= leaf_cells or depth > 40:
            leaves.append((idx, x0, y0, x1, y1))
            continue
        if x1 - x0 >= y1 - y0:
            mid = 0.5 * (x0 + x1)
            coords = xs[idx]
            b1 = (x0, y0, mid, y1)
            b2 = (mid, y0, x1, y1)
        else:
            mid = 0.5 * (y0 + y1)
            coords = ys[idx]
            b1 = (x0, y0, x1, mid)
            b2 = (x0, mid, x1, y1)
        s1 = accel.supply_in(*b1)
        s2 = accel.supply_in(*b2)
        total_supply = s1 + s2
        if total_supply <= 0:
            leaves.append((idx, x0, y0, x1, y1))
            continue
        # split the cell list so area ratio tracks supply ratio
        order = idx[coords.argsort(kind="stable")]
        cum = areas[order].cumsum()
        target = cum[-1] * (s1 / total_supply)
        split = int(cum.searchsorted(target))
        split = max(0, min(len(order), split))
        stack.append((order[split:], *b2, depth + 1))
        stack.append((order[:split], *b1, depth + 1))

    _place_leaves(grid, leaves, xs, ys, out_x, out_y)
    return out_x, out_y


def _place_leaves(grid: DensityGrid, leaves, xs: np.ndarray,
                  ys: np.ndarray, out_x: np.ndarray,
                  out_y: np.ndarray) -> None:
    """Lay out every leaf's cells on sub-grids in one vectorized pass.

    Per leaf the slot geometry matches the legacy ``place_leaf`` exactly
    (same cols/rows formulas, same elementwise arithmetic), and the
    x-then-y cell ordering comes from one global lexsort keyed by leaf
    id -- stability makes the within-leaf order identical to a per-leaf
    sort.
    """
    leaves = [lf for lf in leaves if len(lf[0])]
    if not leaves:
        return
    k_arr = np.array([len(lf[0]) for lf in leaves], dtype=np.int64)
    rx0 = np.array([lf[1] for lf in leaves])
    ry0 = np.array([lf[2] for lf in leaves])
    w = np.array([lf[3] for lf in leaves]) - rx0
    h = np.array([lf[4] for lf in leaves]) - ry0
    # aspect clamp only guards the cols formula; slot coordinates use
    # the raw extents, exactly like the scalar path
    cols = np.maximum(1, np.ceil(np.sqrt(
        k_arr * np.maximum(w, 1e-6) / np.maximum(h, 1e-6)
    )).astype(np.int64))
    rows_n = np.ceil(k_arr / cols).astype(np.int64)

    total = int(k_arr.sum())
    leaf_of = np.repeat(np.arange(len(leaves), dtype=np.int64), k_arr)
    start = np.zeros(len(leaves), dtype=np.int64)
    np.cumsum(k_arr[:-1], out=start[1:])
    slot = np.arange(total, dtype=np.int64) - start[leaf_of]
    ci = slot % cols[leaf_of]
    rj = slot // cols[leaf_of]
    px = rx0[leaf_of] + (ci + 0.5) * w[leaf_of] / cols[leaf_of]
    py = ry0[leaf_of] + (rj + 0.5) * h[leaf_of] / \
        np.maximum(rows_n, 1)[leaf_of]

    idx_all = np.concatenate([lf[0] for lf in leaves])
    # stable sort: leaf first, then x, then y -- within one leaf this is
    # exactly the legacy per-leaf lexsort((ys, xs))
    order = idx_all[np.lexsort((ys[idx_all], xs[idx_all], leaf_of))]
    if grid.obstructions:
        bad = np.flatnonzero(_in_any_obstruction(grid, px, py))
        for b in bad:
            px[b], py[b] = _nearest_free(grid, px[b], py[b])
    out_x[order] = px
    out_y[order] = py


def _in_any_obstruction(grid: DensityGrid, px: np.ndarray,
                        py: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`DensityGrid.in_obstruction` over point arrays."""
    mask = np.zeros(len(px), dtype=bool)
    for o in grid.obstructions:
        mask |= ((px >= o.x0) & (px <= o.x1) &
                 (py >= o.y0) & (py <= o.y1))
    return mask


def _nearest_free(grid: DensityGrid, x: float, y: float) -> Tuple[float, float]:
    """Closest bin center with positive supply (spiral search)."""
    i, j = grid.bin_of(x, y)
    if grid.supply[i, j] > 0:
        return x, y
    for radius in range(1, max(grid.nx, grid.ny)):
        best = None
        for di in range(-radius, radius + 1):
            for dj in (-radius, radius):
                for ii, jj in ((i + di, j + dj), (i + dj, j + di)):
                    if 0 <= ii < grid.nx and 0 <= jj < grid.ny and \
                            grid.supply[ii, jj] > 0:
                        cx, cy = grid.bin_center(ii, jj)
                        d = (cx - x) ** 2 + (cy - y) ** 2
                        if best is None or d < best[0]:
                            best = (d, cx, cy)
        if best is not None:
            return best[1], best[2]
    return x, y
