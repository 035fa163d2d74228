"""Mixed-size two-tier (3D) placement for block folding.

Implements the paper's folding placement flow:

1. assign every instance to the tier the partitioner gave it (natural
   or min-cut partition, Section 4) -- the only die assignment; the
   placer never revises it;
2. place *all* cells jointly in the folded outline assuming an ideal 3D
   interconnect of zero size (exactly the first step of the paper's F2F
   flow, Fig. 4a) -- tiers share x/y space, so the quadratic solve sees
   no penalty for crossing;
3. spread each tier into its own density grid (per-tier macro holes);
4. extract one 3D via per tier-crossing net and *legalize* it according
   to the bonding style: TSVs snap to a pitch grid that excludes macro
   regions and consume silicon area (growing the outline); F2F vias land
   at their ideal spot, over macros or cells, at a fine pitch.

The footprint, via positions and the resulting per-net detours are what
make F2B and F2F designs diverge downstream (Sections 5.2, Fig. 6/7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..netlist.core import Net, Netlist
from ..tech.process import ProcessNode
from .grid import DensityGrid, Rect, first_containing
from .placer2d import (ASPECT_RATIO, UTILIZATION, PlacementConfig, hpwl,
                       place_macro_list, place_ports, run_global_place,
                       snap_to_rows)
from .spreading import spread


@dataclass
class ViaSite:
    """One placed 3D via (TSV or F2F) serving a tier-crossing net."""

    net_id: int
    x: float
    y: float
    #: displacement from the ideal location caused by legalization (um)
    displacement_um: float = 0.0


@dataclass
class Fold3DResult:
    """Outcome of a two-tier fold placement."""

    outline: Rect
    bonding: str
    vias: List[ViaSite]
    #: total 3D connections including the clock crossing
    n_vias: int
    tsv_area_um2: float
    die_area: Dict[int, float]
    grids: Dict[int, DensityGrid]
    hpwl_um: float

    @property
    def footprint_um2(self) -> float:
        """Silicon footprint of one tier (both tiers share the outline)."""
        return self.outline.area


def crossing_nets(netlist: Netlist) -> List[Net]:
    """Non-clock nets whose instances span both tiers."""
    out = []
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        dies = {netlist.instances[r.inst].die for r in net.endpoints()
                if not r.is_port}
        if len(dies) > 1:
            out.append(net)
    return out


def clock_crossings(netlist: Netlist) -> int:
    """3D vias needed by the clock: one per tier-crossing clock net."""
    count = 0
    for net in netlist.nets.values():
        if not net.is_clock:
            continue
        dies = {netlist.instances[r.inst].die for r in net.endpoints()
                if not r.is_port}
        if len(dies) > 1:
            count += 1
    return count


def _ideal_via_position(netlist: Netlist, net: Net) -> Tuple[float, float]:
    """Crossing point: midpoint of the per-tier pin centroids."""
    pos = {0: [], 1: []}
    for ref in net.endpoints():
        if ref.is_port:
            continue
        inst = netlist.instances[ref.inst]
        pos[inst.die].append((inst.x, inst.y))
    cx = []
    cy = []
    for die in (0, 1):
        if pos[die]:
            cx.append(sum(p[0] for p in pos[die]) / len(pos[die]))
            cy.append(sum(p[1] for p in pos[die]) / len(pos[die]))
    return sum(cx) / len(cx), sum(cy) / len(cy)


class _ViaLegalizer:
    """Snaps vias to a pitch grid, one net per site, avoiding keepouts."""

    def __init__(self, outline: Rect, pitch_um: float,
                 keepouts: List[Rect]) -> None:
        self.outline = outline
        self.pitch = max(pitch_um, 0.1)
        self.keepouts = keepouts
        self.nx = max(1, int(outline.width / self.pitch))
        self.ny = max(1, int(outline.height / self.pitch))
        self.occupied: Set[Tuple[int, int]] = set()

    def _site_center(self, i: int, j: int) -> Tuple[float, float]:
        return (self.outline.x0 + (i + 0.5) * self.pitch,
                self.outline.y0 + (j + 0.5) * self.pitch)

    def _legal(self, i: int, j: int) -> bool:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            return False
        if (i, j) in self.occupied:
            return False
        x, y = self._site_center(i, j)
        return first_containing(self.keepouts, x, y) is None

    def snap(self, x: float, y: float) -> Tuple[float, float]:
        """The nearest free legal site (spiral search)."""
        i0 = int((x - self.outline.x0) / self.pitch)
        j0 = int((y - self.outline.y0) / self.pitch)
        if self._legal(i0, j0):
            self.occupied.add((i0, j0))
            return self._site_center(i0, j0)
        for radius in range(1, max(self.nx, self.ny) + 1):
            best = None
            for di in range(-radius, radius + 1):
                for dj in (-radius, radius):
                    for i, j in ((i0 + di, j0 + dj), (i0 + dj, j0 + di)):
                        if self._legal(i, j):
                            cx, cy = self._site_center(i, j)
                            d = (cx - x) ** 2 + (cy - y) ** 2
                            if best is None or d < best[0]:
                                best = (d, i, j)
            if best is not None:
                _, i, j = best
                self.occupied.add((i, j))
                return self._site_center(i, j)
        return x, y  # pragma: no cover - grid exhausted


def fold_place_3d(netlist: Netlist, process: ProcessNode,
                  assignment: Dict[int, int], bonding: str,
                  config: Optional[PlacementConfig] = None,
                  region_of: Optional[Dict[int, Optional[str]]] = None
                  ) -> Fold3DResult:
    """Place a folded block on two tiers.

    Args:
        netlist: the block netlist; instance coordinates and ``die``
            attributes are written in place.
        process: technology (supplies the TSV / F2F via parameters).
        assignment: instance id -> tier from the partitioner.
        bonding: ``"F2B"`` or ``"F2F"``.
        config: placement knobs (defaults applied when omitted).
        region_of: optional instance id -> region name.  When given, each
            region becomes its own place-and-route rectangle per tier
            (the paper's FUB floorplan, Section 4.5): a folded region's
            halves land in aligned rectangles of half the area, which is
            what actually shortens its internal wires.

    Returns:
        The fold placement result with legalized via sites.
    """
    config = config or PlacementConfig()
    rng = np.random.default_rng(config.seed)
    via = process.via_for(bonding)

    for iid, die in assignment.items():
        netlist.instances[iid].die = die

    cross = crossing_nets(netlist)
    n_signal_vias = len(cross)

    # per-tier area requirement
    die_cell = {0: 0.0, 1: 0.0}
    die_macro = {0: 0.0, 1: 0.0}
    for inst in netlist.instances.values():
        if inst.is_macro:
            die_macro[inst.die] += inst.area_um2
        else:
            die_cell[inst.die] += inst.area_um2
    die_area = {d: die_cell[d] / UTILIZATION + die_macro[d] * 1.08
                for d in (0, 1)}
    base = max(die_area[0], die_area[1])
    tsv_area = n_signal_vias * via.area_um2 if via.occupies_silicon else 0.0
    area = base + tsv_area
    width = math.sqrt(area * ASPECT_RATIO)
    outline = Rect(0.0, 0.0, width, area / width)

    # per-tier macro placement and density grids
    grids: Dict[int, DensityGrid] = {}
    macro_rects: Dict[int, List[Rect]] = {}
    for die in (0, 1):
        die_macros = [i for i in netlist.instances.values()
                      if i.is_macro and i.die == die]
        macro_rects[die] = place_macro_list(die_macros, outline)
        n_cells = sum(1 for i in netlist.instances.values()
                      if not i.is_macro and i.die == die)
        grid = DensityGrid(outline,
                           target_bins=int(np.clip(n_cells // 3, 64, 4096)),
                           utilization=min(1.0, UTILIZATION + 0.15))
        for rect in macro_rects[die]:
            grid.add_obstruction(rect)
        grids[die] = grid

    place_ports(netlist, outline)
    _assign_port_dies(netlist)

    movable = [i for i in netlist.instances.values()
               if not i.is_macro and not i.fixed]
    if movable:
        die_of = np.array([inst.die for inst in movable])

        def spread_die(xs, ys, areas, out_x, out_y, die) -> None:
            mask = die_of == die
            if mask.any():
                sx, sy = spread(grids[die], xs[mask], ys[mask],
                                areas[mask])
                out_x[mask], out_y[mask] = sx, sy

        def spread_regions(xs, ys, areas, out_x, out_y) -> None:
            """Region floorplan in the spirit of the paper's Fig. 3.

            Two-pass bisection: *folded* regions (cells on both tiers)
            first claim shared projection rectangles -- their halves land
            in the same rectangle on both tiers, so the halved area
            genuinely shortens their internal wires and cross-tier nets
            become near-vertical.  The leftover rectangle is then carved
            independently per tier among that tier's unfolded regions
            (which may overlap across tiers, as separate dies do).
            """
            from .regions import region_bisect
            groups: Dict[str, Dict[int, List[int]]] = {}
            for k, inst in enumerate(movable):
                name = region_of.get(inst.id) or "_unregioned"
                groups.setdefault(name, {0: [], 1: []})[inst.die].append(k)

            def centroid(idxs):
                arr = np.asarray(idxs)
                w = areas[arr]
                return (float(np.average(xs[arr], weights=w)),
                        float(np.average(ys[arr], weights=w)))

            def demand(idxs):
                return float(areas[np.asarray(idxs)].sum()) / UTILIZATION

            folded = {n for n, pd in groups.items() if pd[0] and pd[1]}
            # per-tier full bisection (folded regions use their shared,
            # both-tier centroid so the two tiers agree on placement)
            shared_cent = {n: centroid(groups[n][0] + groups[n][1])
                           for n in folded}
            per_die_rects: Dict[int, Dict[str, Rect]] = {0: {}, 1: {}}
            for die in (0, 1):
                items = []
                for name, pd in groups.items():
                    if not pd[die]:
                        continue
                    c = shared_cent.get(name) or centroid(pd[die])
                    items.append((name, demand(pd[die]), *c))
                per_die_rects[die] = region_bisect(outline, items)
            # force-align folded regions: both tiers use tier-0's rect,
            # so their halves stack and their internal wires shorten
            for name in folded:
                rect0 = per_die_rects[0].get(name)
                if rect0 is not None:
                    per_die_rects[1][name] = rect0

            for name, pd in groups.items():
                for die in (0, 1):
                    idxs = pd[die]
                    if not idxs:
                        continue
                    rect = per_die_rects[die].get(name) or outline
                    arr = np.asarray(idxs)
                    grid = DensityGrid(
                        rect,
                        target_bins=int(np.clip(len(arr) // 3, 16, 1024)),
                        utilization=min(1.0, UTILIZATION + 0.15))
                    for m in grids[die].obstructions:
                        if m.overlaps(rect):
                            grid.add_obstruction(m)
                    sx, sy = spread(grid, xs[arr], ys[arr], areas[arr])
                    out_x[arr], out_y[arr] = sx, sy

        def spread_fn(xs, ys, areas):
            ox, oy = xs.copy(), ys.copy()
            if region_of is not None:
                spread_regions(xs, ys, areas, ox, oy)
            else:
                for die in (0, 1):
                    spread_die(xs, ys, areas, ox, oy, die)
            return ox, oy

        xs, ys = run_global_place(netlist, movable, outline, rng,
                                  spread_fn)
        snap_to_rows(movable, xs, ys, outline)

    # --- via extraction & legalization ---------------------------------
    if via.occupies_silicon:
        keepouts = macro_rects[0] + macro_rects[1]
    else:
        keepouts = []  # F2F vias may sit over macros and cells
    legalizer = _ViaLegalizer(outline, via.pitch_um, keepouts)
    vias: List[ViaSite] = []
    for net in sorted(cross, key=lambda n: n.id):
        ix, iy = _ideal_via_position(netlist, net)
        ix, iy = outline.clamp(ix, iy)
        x, y = legalizer.snap(ix, iy)
        vias.append(ViaSite(net_id=net.id, x=x, y=y,
                            displacement_um=math.hypot(x - ix, y - iy)))

    n_vias = n_signal_vias + clock_crossings(netlist)
    return Fold3DResult(outline=outline, bonding=bonding.upper(), vias=vias,
                        n_vias=n_vias, tsv_area_um2=tsv_area,
                        die_area=die_area, grids=grids, hpwl_um=hpwl(netlist))


def _assign_port_dies(netlist: Netlist) -> None:
    """Each port lives on the tier holding most of its connections."""
    for name, port in netlist.ports.items():
        votes = {0: 0, 1: 0}
        for net in netlist.nets_of_port(name):
            for ref in net.endpoints():
                if not ref.is_port:
                    votes[netlist.instances[ref.inst].die] += 1
        port.die = 0 if votes[0] >= votes[1] else 1
