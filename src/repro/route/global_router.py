"""Coarse-grid global router for chip-level wire bundles.

At the chip level the paper's concern is *over-the-block routing*: most
blocks route up to M7, leaving M8/M9 for inter-block wires above them; in
the F2B folded design the bottom tier keeps that property, but F2F-folded
blocks use all nine layers on both tiers and become routing blockages
(Section 6.1), forcing detours.  This router captures exactly that: wire
bundles are routed on a coarse grid with per-gcell capacities; blockages
zero (or reduce) capacity; congested or blocked cells are avoided via
Dijkstra with history costs, and the resulting detour lengthens the
bundle and its delay/power downstream.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..place.grid import Rect


@dataclass
class RoutedPath:
    """One routed bundle: gcell path plus resulting length."""

    gcells: List[Tuple[int, int]]
    length_um: float
    detour_um: float


class GlobalRouter:
    """Capacity-aware Dijkstra router on a uniform gcell grid."""

    def __init__(self, region: Rect, n_gcells: int = 32,
                 capacity_per_gcell: float = 600.0) -> None:
        """Args:
            region: chip outline.
            n_gcells: grid dimension (n x n).
            capacity_per_gcell: wire-count capacity per gcell (tracks).
        """
        self.region = region
        self.n = n_gcells
        self.gw = region.width / n_gcells
        self.gh = region.height / n_gcells
        self.capacity = np.full((n_gcells, n_gcells), capacity_per_gcell)
        self.usage = np.zeros((n_gcells, n_gcells))

    def gcell_of(self, x: float, y: float) -> Tuple[int, int]:
        i = int(np.clip((x - self.region.x0) / self.gw, 0, self.n - 1))
        j = int(np.clip((y - self.region.y0) / self.gh, 0, self.n - 1))
        return i, j

    def add_blockage(self, rect: Rect, remaining_fraction: float = 0.0) -> None:
        """Reduce capacity under a block.

        ``remaining_fraction`` models the over-the-block routing resource
        still available: 1.0 for an unfolded block with free M8/M9, a
        small value for an F2F-folded block using all nine layers.
        """
        i0, j0 = self.gcell_of(rect.x0, rect.y0)
        i1, j1 = self.gcell_of(rect.x1 - 1e-9, rect.y1 - 1e-9)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self.capacity[i, j] *= remaining_fraction

    def _step_cost(self, i: int, j: int, step_um: float) -> float:
        cap = self.capacity[i, j]
        use = self.usage[i, j]
        if cap <= 1e-9:
            congestion = 50.0
        else:
            over = max(0.0, (use + 1.0) / cap - 0.8)
            congestion = 1.0 + 8.0 * over * over * 25.0
        return step_um * congestion

    def route(self, src: Tuple[float, float], dst: Tuple[float, float],
              n_wires: int = 1) -> RoutedPath:
        """Route a bundle of ``n_wires`` from ``src`` to ``dst``.

        Returns the path; usage is committed so later bundles see the
        congestion this one causes.
        """
        si, sj = self.gcell_of(*src)
        ti, tj = self.gcell_of(*dst)
        dist: Dict[Tuple[int, int], float] = {(si, sj): 0.0}
        prev: Dict[Tuple[int, int], Tuple[int, int]] = {}
        heap: List[Tuple[float, Tuple[int, int]]] = [(0.0, (si, sj))]
        visited = set()
        while heap:
            d, (i, j) = heapq.heappop(heap)
            if (i, j) in visited:
                continue
            visited.add((i, j))
            if (i, j) == (ti, tj):
                break
            for di, dj, step in ((1, 0, self.gw), (-1, 0, self.gw),
                                 (0, 1, self.gh), (0, -1, self.gh)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < self.n and 0 <= nj < self.n):
                    continue
                nd = d + self._step_cost(ni, nj, step)
                if nd < dist.get((ni, nj), math.inf):
                    dist[(ni, nj)] = nd
                    prev[(ni, nj)] = (i, j)
                    heapq.heappush(heap, (nd, (ni, nj)))
        # reconstruct
        path = [(ti, tj)]
        while path[-1] != (si, sj):
            node = prev.get(path[-1])
            if node is None:
                break  # unreachable; fall back to the straight line
            path.append(node)
        path.reverse()
        length = 0.0
        for a, b in zip(path, path[1:]):
            length += self.gw if a[0] != b[0] else self.gh
            self.usage[b[0], b[1]] += n_wires
        self.usage[si, sj] += n_wires
        manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        length = max(length, manhattan)
        return RoutedPath(gcells=path, length_um=length,
                          detour_um=max(0.0, length - manhattan))

    def overflow(self) -> float:
        """Fraction of gcells over capacity."""
        over = (self.usage > self.capacity).sum()
        return float(over) / (self.n * self.n)
