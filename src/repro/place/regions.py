"""Region floorplanning by recursive area bisection.

Second-level folding (paper Section 4.5) operates on *functional unit
blocks* inside the SPARC core: each FUB is a place-and-route region of
its own, so folding a FUB genuinely halves the span of its internal
wires.  This module carves a die outline into one rectangle per region,
proportionally to region area and guided by the regions' quadratic-
placement centroids (so connected regions stay adjacent -- the job the
paper's FUB floorplan does by hand in Fig. 3).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .grid import Rect

#: (key, area demand, centroid x, centroid y)
RegionItem = Tuple[str, float, float, float]


def region_bisect(outline: Rect,
                  items: Sequence[RegionItem]) -> Dict[str, Rect]:
    """Partition ``outline`` into per-region rectangles.

    Recursively splits the outline along its longer axis; items are
    ordered by centroid along that axis and divided so sub-outline areas
    match the item-area split.  Every region receives a rectangle whose
    area is proportional to its demand, positioned near its centroid.

    Args:
        outline: the die outline to carve.
        items: regions with positive area demand.

    Returns:
        region key -> rectangle.
    """
    out: Dict[str, Rect] = {}
    # depth-first over an explicit stack, first half on top
    stack: List[Tuple[Rect, List[RegionItem]]] = [
        (outline, [it for it in items if it[1] > 0])]
    while stack:
        rect, group = stack.pop()
        if not group:
            continue
        if len(group) == 1:
            out[group[0][0]] = rect
            continue
        horizontal = rect.width >= rect.height
        group = sorted(group, key=lambda it: it[2] if horizontal else it[3])
        # choose the split index closest to half the area (first-wins
        # on ties, like a strict-< scan)
        cum = np.cumsum([it[1] for it in group])
        total = float(cum[-1])
        best_k = int(np.argmin(np.abs(cum[:-1] - total / 2.0))) + 1
        left = group[:best_k]
        right = group[best_k:]
        frac = sum(it[1] for it in left) / total
        if horizontal:
            mid = rect.x0 + frac * rect.width
            stack.append((Rect(mid, rect.y0, rect.x1, rect.y1), right))
            stack.append((Rect(rect.x0, rect.y0, mid, rect.y1), left))
        else:
            mid = rect.y0 + frac * rect.height
            stack.append((Rect(rect.x0, mid, rect.x1, rect.y1), right))
            stack.append((Rect(rect.x0, rect.y0, rect.x1, mid), left))
    return out
