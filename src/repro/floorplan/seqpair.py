"""Sequence-pair floorplanning with simulated annealing.

The classic block-level floorplan representation: a pair of permutations
(P1, P2) encodes relative block positions (a before b in both -> left of;
a before b in P1 only -> above), evaluated by longest-path packing.  The
annealer minimizes a weighted sum of packing area and inter-block
bundle wirelength -- the same objective the paper's 3D floorplanner [5]
optimizes.  The T2 benches use the hand-defined floorplans of Fig. 8 (as
the paper does), but the annealer backs the floorplan-exploration example
and the ablation bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class FPBlock:
    """A floorplan block: fixed-outline hard rectangle."""

    name: str
    width: float
    height: float

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class FloorplanResult:
    """Packed floorplan: block name -> (x0, y0, w, h)."""

    positions: Dict[str, Tuple[float, float, float, float]]
    width: float
    height: float
    wirelength: float

    @property
    def area(self) -> float:
        return self.width * self.height

    def center_of(self, name: str) -> Tuple[float, float]:
        x, y, w, h = self.positions[name]
        return x + w / 2.0, y + h / 2.0


def pack(blocks: Sequence[FPBlock], p1: List[int],
         p2: List[int]) -> FloorplanResult:
    """Longest-path packing of a sequence pair."""
    n = len(blocks)
    pos1 = {b: i for i, b in enumerate(p1)}
    pos2 = {b: i for i, b in enumerate(p2)}
    xs = [0.0] * n
    ys = [0.0] * n
    # horizontal: b right of a iff pos1[a]<pos1[b] and pos2[a]<pos2[b]
    order2 = sorted(range(n), key=lambda b: pos2[b])
    for b in order2:
        for a in range(n):
            if a != b and pos1[a] < pos1[b] and pos2[a] < pos2[b]:
                xs[b] = max(xs[b], xs[a] + blocks[a].width)
    # vertical: b above a iff pos1[a]>pos1[b] and pos2[a]<pos2[b]
    for b in order2:
        for a in range(n):
            if a != b and pos1[a] > pos1[b] and pos2[a] < pos2[b]:
                ys[b] = max(ys[b], ys[a] + blocks[a].height)
    width = max((xs[i] + blocks[i].width for i in range(n)), default=0.0)
    height = max((ys[i] + blocks[i].height for i in range(n)), default=0.0)
    positions = {blocks[i].name: (xs[i], ys[i], blocks[i].width,
                                  blocks[i].height) for i in range(n)}
    return FloorplanResult(positions=positions, width=width, height=height,
                           wirelength=0.0)


def _wirelength(result: FloorplanResult,
                bundles: Sequence[Tuple[str, str, int]]) -> float:
    total = 0.0
    for a, b, w in bundles:
        if a not in result.positions or b not in result.positions:
            continue
        ax, ay = result.center_of(a)
        bx, by = result.center_of(b)
        total += w * (abs(ax - bx) + abs(ay - by))
    return total


#: annealing temperature at the first move
T_START = 1.0
#: annealing temperature at the last move
T_END = 0.005
#: weight of the normalized area in the annealing cost
AREA_WEIGHT = 1.0


@dataclass
class AnnealConfig:
    """Simulated-annealing schedule."""

    iterations: int = 4000
    #: weight of the normalized bundle wirelength in the cost
    wl_weight: float = 0.5
    seed: int = 0


def anneal_floorplan(blocks: Sequence[FPBlock],
                     bundles: Sequence[Tuple[str, str, int]] = (),
                     config: Optional[AnnealConfig] = None
                     ) -> FloorplanResult:
    """Anneal a sequence-pair floorplan minimizing area + bundle WL."""
    config = config or AnnealConfig()
    rng = np.random.default_rng(config.seed)
    n = len(blocks)
    if n == 0:
        return FloorplanResult({}, 0.0, 0.0, 0.0)
    p1 = list(range(n))
    p2 = list(range(n))
    total_area = sum(b.area for b in blocks)

    def cost(r: FloorplanResult) -> float:
        wl = _wirelength(r, bundles)
        norm_wl = wl / (math.sqrt(total_area) *
                        max(1, sum(w for _, _, w in bundles)))
        return (AREA_WEIGHT * r.area / total_area +
                config.wl_weight * norm_wl)

    cur = pack(blocks, p1, p2)
    cur_cost = cost(cur)
    best, best_cost = cur, cur_cost
    t = T_START
    decay = (T_END / T_START) ** (1.0 / config.iterations)
    for _ in range(config.iterations):
        move = int(rng.integers(0, 3))
        i, j = rng.integers(0, n, size=2)
        i, j = int(i), int(j)
        if i == j:
            t *= decay
            continue
        if move == 0:
            p1[i], p1[j] = p1[j], p1[i]
        elif move == 1:
            p2[i], p2[j] = p2[j], p2[i]
        else:
            p1[i], p1[j] = p1[j], p1[i]
            p2[i], p2[j] = p2[j], p2[i]
        cand = pack(blocks, p1, p2)
        cand_cost = cost(cand)
        accept = cand_cost <= cur_cost or \
            rng.random() < math.exp((cur_cost - cand_cost) / max(t, 1e-9))
        if accept:
            cur, cur_cost = cand, cand_cost
            if cand_cost < best_cost:
                best, best_cost = cand, cand_cost
        else:  # undo
            if move == 0:
                p1[i], p1[j] = p1[j], p1[i]
            elif move == 1:
                p2[i], p2[j] = p2[j], p2[i]
            else:
                p1[i], p1[j] = p1[j], p1[i]
                p2[i], p2[j] = p2[j], p2[i]
        t *= decay
    best.wirelength = _wirelength(best, bundles)
    return best
