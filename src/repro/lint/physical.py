"""Physical rule checks over placed designs.

These rules run once an outline exists -- after 2D placement or the 3D
fold.  They reuse the *same* geometry predicates the placers use
(:data:`~repro.place.grid.GEOM_TOL_UM`,
:func:`~repro.place.grid.first_containing`,
:func:`~repro.place.legalize.overlapping_pairs`), so the checker and
the tools it audits share one definition of "overlapping" and "inside".

Bonding-style asymmetry (paper Sections 5 and 6.1): an F2B TSV occupies
silicon and therefore may not land over a macro on either tier, while an
F2F via lives in the metal stack between the dies and is free to sit
over macros.  ``PHY005`` encodes exactly that rule.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..netlist.core import Instance
from ..place.grid import GEOM_TOL_UM, first_containing
from ..place.legalize import overlapping_pairs
from ..tech.cells import CELL_HEIGHT_UM
from .context import LintContext
from .framework import ERROR, WARNING, rule

#: allowed ratio of std-cell area to placeable area before PHY007 fires
MAX_DIE_DENSITY = 0.98


def _cells_by_die(ctx: LintContext) -> Dict[int, List[Instance]]:
    by_die: Dict[int, List[Instance]] = {}
    for inst in ctx.netlist.cells:
        by_die.setdefault(inst.die, []).append(inst)
    return by_die


@rule("PHY001", "overlapping cells", WARNING,
      requires=("netlist", "outline"))
def check_cell_overlaps(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Same-row cells must not overlap (aggregated per die).

    The default flow stops at row snapping, which tolerates residual
    overlaps the way a global placement does, so this is a warning that
    reports the per-die pair count; a fully legalized placement must
    report zero.
    """
    for die, cells in sorted(_cells_by_die(ctx).items()):
        pairs = overlapping_pairs(cells, x_is_center=ctx.x_is_center)
        if pairs:
            a, b = pairs[0]
            yield (f"die {die}: {len(pairs)} overlapping cell pair(s), "
                   f"e.g. {a.name} / {b.name}", f"die {die}")


@rule("PHY002", "cell outside outline", ERROR,
      requires=("netlist", "outline"))
def check_out_of_bounds(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Every cell's center must lie inside the block outline."""
    out = ctx.outline
    for inst in ctx.netlist.cells:
        cx = inst.x if ctx.x_is_center else inst.x + inst.width_um / 2
        if not (out.x0 - GEOM_TOL_UM <= cx <= out.x1 + GEOM_TOL_UM and
                out.y0 - GEOM_TOL_UM <= inst.y <= out.y1 + GEOM_TOL_UM):
            yield (f"cell {inst.name} at ({cx:.1f}, {inst.y:.1f}) "
                   f"outside outline", f"inst {inst.name}")


@rule("PHY003", "cell inside macro hole", WARNING,
      requires=("netlist", "outline", "macro_rects"))
def check_cell_in_macro(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Standard cells must not sit inside a macro's footprint.

    The density grid zeroes supply under macros (the paper's hole
    model), so spreading flows cells around them; a cell inside a hole
    means an edit or a spreading failure.  Aggregated per die; a
    warning, because row snapping can nudge boundary cells a hair into
    a hole edge.
    """
    for die, cells in sorted(_cells_by_die(ctx).items()):
        holes = ctx.macros_of_die(die)
        if not holes:
            continue
        offenders = []
        for inst in cells:
            cx = inst.x if ctx.x_is_center else inst.x + inst.width_um / 2
            if first_containing(holes, cx, inst.y) is not None:
                offenders.append(inst)
        if offenders:
            yield (f"die {die}: {len(offenders)} cell(s) inside macro "
                   f"holes, e.g. {offenders[0].name}", f"die {die}")


@rule("PHY004", "off-row cell", WARNING,
      requires=("netlist", "outline"))
def check_row_alignment(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Cell y coordinates must sit on the standard-cell row lattice.

    Rows run at ``y0 + (k + 0.5) * CELL_HEIGHT``; the row snapper clamps
    the extreme rows to the outline edge, so cells exactly at ``y0`` /
    ``y1`` are also legal.  Repeaters are exempt: buffer insertion drops
    them at their electrically optimal spot along the wire, deliberately
    ahead of any re-snap.  Aggregated per die.
    """
    out = ctx.outline
    tol = 1e-3
    for die, cells in sorted(_cells_by_die(ctx).items()):
        off = []
        for inst in cells:
            if inst.is_buffer:
                continue
            if abs(inst.y - out.y0) <= tol or abs(inst.y - out.y1) <= tol:
                continue
            k = round((inst.y - out.y0 - CELL_HEIGHT_UM / 2)
                      / CELL_HEIGHT_UM)
            snapped = out.y0 + CELL_HEIGHT_UM / 2 + k * CELL_HEIGHT_UM
            if abs(inst.y - snapped) > tol:
                off.append(inst)
        if off:
            yield (f"die {die}: {len(off)} cell(s) off the row lattice, "
                   f"e.g. {off[0].name} at y={off[0].y:.3f}", f"die {die}")


@rule("PHY005", "TSV over macro", ERROR,
      requires=("netlist", "outline", "vias", "bonding", "macro_rects"))
def check_tsv_over_macro(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """F2B TSVs must not land on a macro footprint on either tier.

    A TSV punches through the bottom die's silicon, so the 3D-via
    legalizer keeps both tiers' macro areas as keepouts.  F2F vias bond
    metal-to-metal and are exempt -- placing them over macros is exactly
    the freedom the paper's Section 5 exploits.
    """
    if ctx.bonding.upper() != "F2B":
        return
    keepouts = ctx.all_macro_rects()
    if not keepouts:
        return
    for v in ctx.vias:
        hit = first_containing(keepouts, v.x, v.y)
        if hit is not None:
            yield (f"TSV of net #{v.net_id} at ({v.x:.1f}, {v.y:.1f}) "
                   f"lands on a macro", f"net #{v.net_id}")


@rule("PHY006", "via outside outline", ERROR,
      requires=("outline", "vias"))
def check_via_bounds(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Every 3D via must sit inside the block outline."""
    out = ctx.outline
    for v in ctx.vias:
        if not out.contains(v.x, v.y):
            yield (f"3D via of net #{v.net_id} at ({v.x:.1f}, {v.y:.1f}) "
                   f"outside outline", f"net #{v.net_id}")


@rule("PHY007", "die over capacity", WARNING,
      requires=("netlist", "outline", "macro_rects"))
def check_die_capacity(ctx: LintContext) -> Iterable[Tuple[str, str]]:
    """Per-die standard-cell area must fit the placeable area.

    For each die: cell area / (outline area - macro area) must stay
    below ~1; beyond that the die physically cannot hold its cells and
    every wirelength/power number derived from the placement is fiction.
    Catches bad fold partitions that overload one tier.
    """
    out_area = ctx.outline.area
    if out_area <= 0:
        yield "outline has non-positive area", "outline"
        return
    for die, cells in sorted(_cells_by_die(ctx).items()):
        macro_area = sum(r.area for r in ctx.macros_of_die(die))
        free = out_area - macro_area
        cell_area = sum(c.area_um2 for c in cells)
        if free <= 0:
            if cells:
                yield (f"die {die}: macros cover the whole outline but "
                       f"{len(cells)} cell(s) are assigned", f"die {die}")
            continue
        density = cell_area / free
        if density > MAX_DIE_DENSITY:
            yield (f"die {die}: cell density {density:.2f} exceeds "
                   f"{MAX_DIE_DENSITY} of placeable area", f"die {die}")
