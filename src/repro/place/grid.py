"""Supply/demand density grid with macro *holes*.

The paper's Section 4.2 observes that treating a hard macro as a large
cell (pure demand) leaves halo whitespace around it, and that reducing the
macro's demand (the Kraftwerk2 tactic) still fails for very large macros
such as memory banks.  Their fix -- adopted here literally -- is to zero
*both* the supply and the demand of the grid regions a macro occupies:
the macro becomes a hole in the supply/demand map, and standard-cell
spreading simply flows around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

#: geometric slack (um) below which an overlap does not count.  Every
#: overlap decision (:func:`repro.place.legalize.overlapping_pairs`)
#: and containment check in the placer, the legalizer and the lint
#: checker uses this tolerance, so the tools cannot disagree about what
#: "overlapping" or "inside a macro hole" means.
GEOM_TOL_UM = 1e-6


def first_containing(rects: Iterable["Rect"], x: float,
                     y: float) -> Optional["Rect"]:
    """The first rectangle containing point ``(x, y)``, or ``None``.

    This is *the* "inside a macro hole" predicate: the density grid, the
    3D-via legalizer and the lint checker all call it.
    """
    for r in rects:
        if r.contains(x, y):
            return r
    return None


@dataclass
class Rect:
    """An axis-aligned rectangle (micrometres)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def clamp(self, x: float, y: float,
              margin: float = 0.0) -> Tuple[float, float]:
        """The nearest point inside the rectangle (minus ``margin``)."""
        return (min(max(x, self.x0 + margin), self.x1 - margin),
                min(max(y, self.y0 + margin), self.y1 - margin))

    def overlaps(self, other: "Rect") -> bool:
        return not (other.x0 >= self.x1 or other.x1 <= self.x0 or
                    other.y0 >= self.y1 or other.y1 <= self.y0)


class DensityGrid:
    """A uniform bin grid over a placement region.

    Each bin carries a *supply* (placeable area).  Bins fully or partially
    covered by macro obstructions lose the covered fraction of their
    supply; per the paper's hole model, cells are never assigned demand
    inside obstructions either.
    """

    def __init__(self, region: Rect, target_bins: int = 256,
                 utilization: float = 1.0) -> None:
        if region.area <= 0:
            raise ValueError("placement region must have positive area")
        self.region = region
        aspect = region.width / region.height
        ny = max(2, int(round((target_bins / max(aspect, 1e-9)) ** 0.5)))
        nx = max(2, int(round(ny * aspect)))
        self.nx, self.ny = nx, ny
        self.bin_w = region.width / nx
        self.bin_h = region.height / ny
        self.supply = np.full((nx, ny),
                              self.bin_w * self.bin_h * utilization)
        self._obstructions: List[Rect] = []

    def add_obstruction(self, rect: Rect) -> None:
        """Remove the covered area from bin supply (macro hole)."""
        self._obstructions.append(rect)
        i0 = max(0, int((rect.x0 - self.region.x0) / self.bin_w))
        i1 = min(self.nx - 1, int((rect.x1 - self.region.x0) / self.bin_w))
        j0 = max(0, int((rect.y0 - self.region.y0) / self.bin_h))
        j1 = min(self.ny - 1, int((rect.y1 - self.region.y0) / self.bin_h))
        if i1 < i0 or j1 < j0:
            return
        bx0 = self.region.x0 + np.arange(i0, i1 + 1) * self.bin_w
        by0 = self.region.y0 + np.arange(j0, j1 + 1) * self.bin_h
        wx = np.minimum(bx0 + self.bin_w, rect.x1) - np.maximum(bx0, rect.x0)
        wy = np.minimum(by0 + self.bin_h, rect.y1) - np.maximum(by0, rect.y0)
        cover = np.maximum(0.0, wx)[:, None] * np.maximum(0.0, wy)[None, :]
        patch = self.supply[i0:i1 + 1, j0:j1 + 1]
        np.maximum(0.0, patch - cover, out=patch)

    @property
    def obstructions(self) -> List[Rect]:
        return list(self._obstructions)

    def total_supply(self) -> float:
        """Total placeable area after holes (um^2)."""
        return float(self.supply.sum())

    def bin_of(self, x: float, y: float) -> Tuple[int, int]:
        """Bin indices containing a point (clamped to the grid)."""
        i = int(np.clip((x - self.region.x0) / self.bin_w, 0, self.nx - 1))
        j = int(np.clip((y - self.region.y0) / self.bin_h, 0, self.ny - 1))
        return i, j

    def bin_center(self, i: int, j: int) -> Tuple[float, float]:
        return (self.region.x0 + (i + 0.5) * self.bin_w,
                self.region.y0 + (j + 0.5) * self.bin_h)

    def in_obstruction(self, x: float, y: float) -> bool:
        """True if a point lies inside any macro hole."""
        return first_containing(self._obstructions, x, y) is not None

    def demand_map(self, xs: np.ndarray, ys: np.ndarray,
                   areas: np.ndarray) -> np.ndarray:
        """Accumulate cell areas into bins (point model)."""
        demand = np.zeros((self.nx, self.ny))
        ii = np.clip(((xs - self.region.x0) / self.bin_w).astype(int),
                     0, self.nx - 1)
        jj = np.clip(((ys - self.region.y0) / self.bin_h).astype(int),
                     0, self.ny - 1)
        np.add.at(demand, (ii, jj), areas)
        return demand

    def overflow(self, xs: np.ndarray, ys: np.ndarray,
                 areas: np.ndarray) -> float:
        """Total demand exceeding supply, normalized by total area."""
        demand = self.demand_map(xs, ys, areas)
        over = np.maximum(0.0, demand - self.supply).sum()
        total = areas.sum()
        return float(over / total) if total > 0 else 0.0
