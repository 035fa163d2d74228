"""Mixed-size 2D block placement.

The block-level flow: compute a core outline from total area and target
utilization, place hard macros along the outline edges (cache-bank style),
carve macro holes into the density grid (paper Section 4.2), distribute
I/O ports over the boundary, then run quadratic global placement with
bound-to-bound weights followed by whitespace-aware spreading, iterated
with anchor feedback, and finally snap cells to rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import trace
from ..tech.cells import CELL_HEIGHT_UM
from .grid import DensityGrid, Rect
from .quadratic import QPNet, QuadraticPlacer
from .spreading import spread


#: placement utilization target of the flow
UTILIZATION = 0.70
#: extra area (um^2) reserved in every 2D outline
RESERVED_AREA_UM2 = 0.0
#: outline width / height
ASPECT_RATIO = 1.0
#: B2B reweighting rounds of the initial quadratic solve
QP_ROUNDS = 2
#: spread / anchored re-solve iterations of global placement
SPREAD_ITERATIONS = 2
#: first anchor pseudo-net strength (tripled every iteration)
ANCHOR_STRENGTH = 0.0025
#: nets above this degree get QP weight ``MAX_QP_DEGREE / degree``
MAX_QP_DEGREE = 64


@dataclass
class PlacementConfig:
    """Knobs for the 2D placer."""

    seed: int = 0
    #: carve macro areas out of the supply map (the paper's Section 4.2
    #: hole model); False reproduces the halo-prone baseline placers
    macro_holes: bool = True


@dataclass
class PlacementResult:
    """Outcome of a block placement."""

    outline: Rect
    grid: DensityGrid
    hpwl_um: float
    overflow: float

    @property
    def footprint_um2(self) -> float:
        return self.outline.area


def compute_outline(netlist: Netlist) -> Rect:
    """Core outline sized for cells at utilization plus macros + reserve."""
    cell_area = netlist.total_cell_area()
    macro_area = netlist.total_macro_area()
    area = (cell_area / UTILIZATION + macro_area * 1.08 +
            RESERVED_AREA_UM2)
    width = math.sqrt(area * ASPECT_RATIO)
    height = area / width
    return Rect(0.0, 0.0, width, height)


def place_macros(netlist: Netlist, outline: Rect) -> List[Rect]:
    """Place all of a netlist's macros along the outline edges."""
    return place_macro_list(netlist.macros, outline)


def place_macro_list(insts, outline: Rect) -> List[Rect]:
    """Stack macros in columns along the left and right edges.

    Mirrors the usual cache-bank floorplan (and the paper's layouts where
    memory macros line the block edges with routing channels between
    them).  Returns the macro obstruction rectangles.
    """
    macros = sorted(insts, key=lambda m: -m.area_um2)
    rects: List[Rect] = []
    if not macros:
        return rects
    gap = 2.0  # routing channel between macros, um
    sides = [(outline.x0, 1.0), (outline.x1, -1.0)]  # (edge x, direction)
    side_idx = 0
    cursor_y = {0: outline.y0 + gap, 1: outline.y0 + gap}
    col_off = {0: 0.0, 1: 0.0}
    col_width = {0: 0.0, 1: 0.0}
    for inst in macros:
        w, h = inst.master.width_um, inst.master.height_um
        placed = False
        for _attempt in range(4):
            s = side_idx % 2
            if cursor_y[s] + h <= outline.y1:
                edge_x, direction = sides[s]
                x0 = edge_x + direction * col_off[s]
                if direction > 0:
                    rect = Rect(x0, cursor_y[s], x0 + w, cursor_y[s] + h)
                else:
                    rect = Rect(x0 - w, cursor_y[s], x0, cursor_y[s] + h)
                inst.x = 0.5 * (rect.x0 + rect.x1)
                inst.y = 0.5 * (rect.y0 + rect.y1)
                inst.fixed = True
                rects.append(rect)
                cursor_y[s] += h + gap
                col_width[s] = max(col_width[s], w)
                placed = True
                side_idx += 1
                break
            # column full: move inward and restart that side's column
            cursor_y[s] = outline.y0 + gap
            col_off[s] += col_width[s] + gap
            col_width[s] = 0.0
            side_idx += 1
        if not placed:
            # fall back to center placement; the grid hole still protects it
            inst.x = 0.5 * (outline.x0 + outline.x1)
            inst.y = 0.5 * (outline.y0 + outline.y1)
            inst.fixed = True
            rects.append(Rect(inst.x - w / 2, inst.y - h / 2,
                              inst.x + w / 2, inst.y + h / 2))
    return rects


def place_ports(netlist: Netlist, outline: Rect) -> None:
    """Distribute ports over the boundary: inputs left/top, outputs
    right/bottom, preserving name order (which follows cluster order, so
    port locality matches logic locality)."""
    ins = sorted((p for p in netlist.ports.values() if p.direction == "in"),
                 key=lambda p: p.name)
    outs = sorted((p for p in netlist.ports.values() if p.direction == "out"),
                  key=lambda p: p.name)

    def _spread(ports, edges) -> None:
        if not ports:
            return
        per_edge = int(math.ceil(len(ports) / len(edges)))
        k = 0
        for edge in edges:
            chunk = ports[k:k + per_edge]
            k += per_edge
            for t, port in enumerate(chunk):
                frac = (t + 0.5) / max(len(chunk), 1)
                if edge == "left":
                    port.x, port.y = outline.x0, outline.y0 + frac * outline.height
                elif edge == "right":
                    port.x, port.y = outline.x1, outline.y0 + frac * outline.height
                elif edge == "top":
                    port.x, port.y = outline.x0 + frac * outline.width, outline.y1
                else:
                    port.x, port.y = outline.x0 + frac * outline.width, outline.y0

    _spread(ins, ["left", "top"])
    _spread(outs, ["right", "bottom"])


def _build_qp_nets(netlist: Netlist, index_of: Dict[int, int]
                   ) -> List[QPNet]:
    nets: List[QPNet] = []
    for net in netlist.nets.values():
        if net.is_clock:
            continue  # clock topology is CTS's job, not placement's
        movable: List[int] = []
        fixed: List[Tuple[float, float]] = []
        seen = set()
        for ref in net.endpoints():
            if ref.is_port:
                p = netlist.ports[ref.port]
                fixed.append((p.x, p.y))
            else:
                inst = netlist.instances[ref.inst]
                if inst.fixed:
                    fixed.append((inst.x, inst.y))
                elif inst.id not in seen:
                    seen.add(inst.id)
                    movable.append(index_of[inst.id])
        degree = len(movable) + len(fixed)
        if degree < 2 or not movable:
            continue
        weight = 1.0 if degree <= MAX_QP_DEGREE else MAX_QP_DEGREE / degree
        nets.append(QPNet(movable=movable, fixed=fixed, weight=weight))
    return nets


def hpwl(netlist: Netlist) -> float:
    """Total half-perimeter wirelength over all non-clock nets (um)."""
    total = 0.0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        xs: List[float] = []
        ys: List[float] = []
        for ref in net.endpoints():
            x, y, _ = netlist.endpoint_position(ref)
            xs.append(x)
            ys.append(y)
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def run_global_place(netlist: Netlist, movable: List, outline: Rect,
                     rng: np.random.Generator,
                     spread_fn) -> Tuple[np.ndarray, np.ndarray]:
    """Shared QP + spreading loop for the 2D and 3D placers.

    ``spread_fn(xs, ys, areas)`` must return density-legal coordinates;
    the 2D placer spreads into one grid, the 3D placer per tier.
    """
    n = len(movable)
    index_of = {inst.id: k for k, inst in enumerate(movable)}
    qp_nets = _build_qp_nets(netlist, index_of)
    placer = QuadraticPlacer(n, qp_nets)
    cx = 0.5 * (outline.x0 + outline.x1)
    cy = 0.5 * (outline.y0 + outline.y1)
    xs = cx + rng.normal(0, 0.01 * outline.width, n)
    ys = cy + rng.normal(0, 0.01 * outline.height, n)
    areas = np.array([inst.area_um2 for inst in movable])

    with trace.span("place.global", cells=n, nets=len(qp_nets)):
        xs, ys = placer.solve(xs, ys, rounds=QP_ROUNDS)
        anchor = ANCHOR_STRENGTH
        for it in range(SPREAD_ITERATIONS):
            xs = np.clip(xs, outline.x0, outline.x1)
            ys = np.clip(ys, outline.y0, outline.y1)
            sx, sy = spread_fn(xs, ys, areas)
            if it == SPREAD_ITERATIONS - 1:
                xs, ys = sx, sy
                break
            xs, ys = placer.solve(sx, sy, anchors=(sx, sy, anchor),
                                  rounds=1)
            anchor *= 3.0
    return xs, ys


def snap_to_rows(movable: List, xs: np.ndarray, ys: np.ndarray,
                 outline: Rect) -> None:
    """Assign final coordinates, snapping y to standard-cell rows."""
    row0 = outline.y0 + CELL_HEIGHT_UM / 2
    # np.round shares Python round()'s half-to-even semantics, so rows
    # match a per-cell round() snap exactly
    fx = np.clip(xs, outline.x0, outline.x1)
    rows = np.round((ys - row0) / CELL_HEIGHT_UM)
    fy = np.clip(row0 + rows * CELL_HEIGHT_UM, outline.y0, outline.y1)
    for k, inst in enumerate(movable):
        inst.x = float(fx[k])
        inst.y = float(fy[k])


def place_block_2d(netlist: Netlist, config: PlacementConfig,
                   outline: Optional[Rect] = None) -> PlacementResult:
    """Run the full mixed-size 2D placement on a block netlist.

    Mutates instance/port coordinates in place and returns the result
    summary.  When ``outline`` is supplied (e.g. by the 3D flow, which
    places both tiers in one shared outline), it is used as-is.  Cells
    end snapped to rows, not legalized: run
    :func:`repro.place.legalize.legalize_cells` for an overlap-free
    placement.
    """
    rng = np.random.default_rng(config.seed)
    if outline is None:
        outline = compute_outline(netlist)
    macro_rects = place_macros(netlist, outline)
    place_ports(netlist, outline)

    movable = [i for i in netlist.instances.values()
               if not i.is_macro and not i.fixed]
    n = len(movable)
    grid_bins = int(np.clip(n // 3, 64, 4096))
    grid = DensityGrid(outline, target_bins=grid_bins,
                       utilization=min(1.0, UTILIZATION + 0.15))
    if config.macro_holes:
        for rect in macro_rects:
            grid.add_obstruction(rect)

    if n == 0:
        return PlacementResult(outline, grid, hpwl(netlist), 0.0)

    def spread_fn(xs, ys, areas):
        return spread(grid, xs, ys, areas)

    xs, ys = run_global_place(netlist, movable, outline, rng, spread_fn)
    snap_to_rows(movable, xs, ys, outline)
    areas = np.array([inst.area_um2 for inst in movable])
    overflow = grid.overflow(xs, ys, areas)
    return PlacementResult(outline, grid, hpwl(netlist), overflow)
