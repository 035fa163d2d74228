"""Chip-level TSV array planning (paper Section 3.1, reference [5]).

In the paper's block-level 3D designs, TSVs may only sit *outside*
blocks: the 3D floorplanner of reference [5] is modified to treat TSV
arrays as additional blocks and place them in whitespace, minimizing
inter-block wirelength.  This module reproduces that step:

1. grid the chip and mark every g-site not covered by a block as
   whitespace with a TSV capacity (site area / TSV cell area);
2. route each tier-crossing bundle through the whitespace site(s)
   closest to its source-destination midpoint, splitting bundles across
   sites when one array fills up;
3. report the per-bundle detour, which the full-chip assembly adds to
   the bundle's wirelength and delay.

F2F-bonded connections need no silicon sites (the bond pads sit over
blocks), so this planning applies to the TSV-based styles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..tech.interconnect3d import Via3D
from .t2_floorplans import ChipFloorplan


@dataclass
class TsvSite:
    """One whitespace g-site that can host a TSV array."""

    x: float
    y: float
    capacity: int
    used: int = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used


@dataclass
class TsvAssignment:
    """Part of one bundle routed through one TSV array."""

    bundle_key: Tuple[str, str]
    site: TsvSite
    n_wires: int
    detour_um: float


@dataclass
class TsvPlan:
    """Outcome of chip-level TSV planning."""

    sites: List[TsvSite]
    assignments: List[TsvAssignment]
    unplaced_wires: int

    @property
    def total_tsvs(self) -> int:
        return sum(a.n_wires for a in self.assignments)

    def detour_of(self, bundle_key: Tuple[str, str]) -> float:
        """Average per-wire detour of one bundle (um)."""
        parts = [a for a in self.assignments
                 if a.bundle_key == bundle_key]
        wires = sum(a.n_wires for a in parts)
        if wires == 0:
            return 0.0
        return sum(a.detour_um * a.n_wires for a in parts) / wires


def whitespace_sites(floorplan: ChipFloorplan, tsv: Via3D,
                     gcell_um: float = 11.0,
                     fill_factor: float = 0.5) -> List[TsvSite]:
    """Whitespace g-sites of the floorplan with TSV capacities.

    ``fill_factor`` limits how much of a whitespace site the TSV array
    may occupy (routing channels must survive).
    """
    nx = max(1, int(floorplan.width / gcell_um))
    ny = max(1, int(floorplan.height / gcell_um))
    per_site = int(gcell_um * gcell_um * fill_factor /
                   max(tsv.area_um2, 1e-9))
    if per_site <= 0:
        return []
    # mark covered g-cells by sweeping blocks (fast for fine grids)
    covered = [[False] * ny for _ in range(nx)]
    for b in floorplan.positions.values():
        i0 = max(0, int(b.x0 / gcell_um))
        i1 = min(nx - 1, int((b.x1 - 1e-9) / gcell_um))
        j0 = max(0, int(b.y0 / gcell_um))
        j1 = min(ny - 1, int((b.y1 - 1e-9) / gcell_um))
        for i in range(i0, i1 + 1):
            row = covered[i]
            for j in range(j0, j1 + 1):
                row[j] = True
    sites: List[TsvSite] = []
    for i in range(nx):
        for j in range(ny):
            if not covered[i][j]:
                sites.append(TsvSite(x=(i + 0.5) * gcell_um,
                                     y=(j + 0.5) * gcell_um,
                                     capacity=per_site))
    return sites


def plan_tsv_arrays(floorplan: ChipFloorplan,
                    bundles: Sequence[Tuple[str, str, int]],
                    tsv: Via3D,
                    gcell_um: float = 11.0) -> TsvPlan:
    """Assign every crossing bundle's wires to whitespace TSV arrays.

    Args:
        floorplan: the packed chip floorplan.
        bundles: (instance a, instance b, wire count) for every bundle
            that crosses the tier boundary.
        tsv: the TSV element (area sets site capacity).
        gcell_um: whitespace grid pitch.

    Returns:
        The plan; ``unplaced_wires`` is nonzero only if the whitespace
        cannot host all arrays (a floorplan-quality failure worth
        surfacing rather than hiding).
    """
    sites = whitespace_sites(floorplan, tsv, gcell_um)
    assignments: List[TsvAssignment] = []
    unplaced = 0
    # big bundles first: they are the hardest to place near their spot
    for a, b, wires in sorted(bundles, key=lambda t: -t[2]):
        ax, ay = floorplan.center_of(a)
        bx, by = floorplan.center_of(b)
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        direct = abs(ax - bx) + abs(ay - by)
        remaining = wires
        # sites sorted by detour for this bundle
        ranked = sorted(
            (s for s in sites if s.free > 0),
            key=lambda s: (abs(ax - s.x) + abs(ay - s.y) +
                           abs(s.x - bx) + abs(s.y - by)))
        for site in ranked:
            if remaining <= 0:
                break
            take = min(remaining, site.free)
            through = (abs(ax - site.x) + abs(ay - site.y) +
                       abs(site.x - bx) + abs(site.y - by))
            assignments.append(TsvAssignment(
                bundle_key=(a, b), site=site, n_wires=take,
                detour_um=max(0.0, through - direct)))
            site.used += take
            remaining -= take
        unplaced += max(0, remaining)
    return TsvPlan(sites=sites, assignments=assignments,
                   unplaced_wires=unplaced)
