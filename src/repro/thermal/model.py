"""Compact thermal model for the 2-tier stack (the paper's future work).

The paper's conclusion defers thermal analysis of the bonding styles to
future work; this module provides it at the same abstraction level as
the rest of the study.  A standard compact resistive model:

* each tier is a tile grid with lateral silicon conduction;
* the tier nearest the heat sink loses heat vertically through silicon
  + TIM; the far tier must conduct through the *bond layer* first;
* the bond layer's conductance improves with 3D via density -- TSVs are
  copper thermal pipes, so a heavily-TSVed F2B stack conducts better
  than an F2F stack whose vias are tiny bond pads.  This reproduces the
  known 3D-IC result: stacking roughly doubles power density (hotter),
  folding reduces total power (cooler), and via farms pull the far
  tier's temperature down.

Units: power in µW (matching :mod:`repro.power`), temperatures in °C,
conductances in µW/°C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from ..place.grid import Rect

#: thermal conductivity of silicon, W/(m K)
K_SILICON = 120.0
#: thermal conductivity of the inter-tier dielectric bond, W/(m K)
K_BOND = 1.2
#: thermal conductivity of copper (TSV / F2F via fill), W/(m K)
K_COPPER = 400.0
#: tiles per side of each tier's grid
TILES = 16
#: ambient temperature, deg C
AMBIENT_C = 45.0
#: silicon thickness of the tier next to the heat sink (um)
NEAR_DIE_UM = 300.0
#: thinned silicon thickness of the far tier (um)
FAR_DIE_UM = 30.0
#: bond/adhesive layer thickness between tiers (um)
BOND_UM = 10.0
#: sink + TIM resistance, K per (W/cm^2) equivalent; smaller = better
SINK_RESISTANCE_CM2K_W = 0.4


@dataclass
class ThermalResult:
    """Temperatures after the steady-state solve."""

    temperature_c: Dict[int, np.ndarray]
    max_c: float
    avg_c: float

    def tier_max(self, die: int) -> float:
        return float(self.temperature_c[die].max())


def _conductance_w_per_k(k: float, area_um2: float,
                         length_um: float) -> float:
    """G = k * A / L, converted to uW/K from um geometry."""
    area_m2 = area_um2 * 1e-12
    length_m = max(length_um, 1e-3) * 1e-6
    return k * area_m2 / length_m * 1e6  # W/K -> uW/K


def solve_stack(outline: Rect,
                power_maps: Dict[int, np.ndarray],
                via_area_um2: float = 0.0) -> ThermalResult:
    """Steady-state temperatures of a 1- or 2-tier stack.

    Args:
        outline: chip outline (shared by the tiers).
        power_maps: die index -> (:data:`TILES` x :data:`TILES`) power
            map in uW.  A single entry solves the 2D case.
        via_area_um2: total copper cross-section of the 3D vias; it
            shunts the bond layer's thermal resistance.

    Returns:
        Per-tier temperature maps plus summary statistics.
    """
    n = TILES
    dies = sorted(power_maps)
    n_dies = len(dies)
    if n_dies not in (1, 2):
        raise ValueError("solve_stack handles 1 or 2 tiers")
    for die, pm in power_maps.items():
        if pm.shape != (n, n):
            raise ValueError(f"power map of tier {die} must be "
                             f"{n}x{n}, got {pm.shape}")

    tile_w = outline.width / n
    tile_h = outline.height / n
    tile_area = tile_w * tile_h

    # vertical conductances (per tile)
    # die 0 is next to the heat sink (the paper's die bottom / package
    # orientation is symmetric for this comparison)
    sink_r_k_per_w = SINK_RESISTANCE_CM2K_W / (tile_area * 1e-8)
    g_sink = 1e6 / max(sink_r_k_per_w, 1e-12)  # uW/K
    g_die0 = _conductance_w_per_k(K_SILICON, tile_area, NEAR_DIE_UM)
    g_sink_path = 1.0 / (1.0 / g_sink + 1.0 / g_die0)
    if n_dies == 2:
        g_bond_diel = _conductance_w_per_k(K_BOND, tile_area, BOND_UM)
        g_bond_via = _conductance_w_per_k(
            K_COPPER, via_area_um2 / (n * n), BOND_UM)
        g_bond = g_bond_diel + g_bond_via
    # lateral conductance within a tier
    g_lat = {}
    for i, die in enumerate(dies):
        thick = NEAR_DIE_UM if i == 0 else FAR_DIE_UM
        g_lat[die] = _conductance_w_per_k(
            K_SILICON, tile_h * thick, tile_w)

    def node(die_idx: int, i: int, j: int) -> int:
        return die_idx * n * n + i * n + j

    size = n_dies * n * n
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(size)
    rhs = np.zeros(size)

    def couple(a: int, b: int, g: float) -> None:
        diag[a] += g
        diag[b] += g
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-g, -g))

    for d_idx, die in enumerate(dies):
        pm = power_maps[die]
        for i in range(n):
            for j in range(n):
                a = node(d_idx, i, j)
                rhs[a] += pm[i, j]
                if i + 1 < n:
                    couple(a, node(d_idx, i + 1, j), g_lat[die])
                if j + 1 < n:
                    couple(a, node(d_idx, i, j + 1), g_lat[die])
                if d_idx == 0:
                    # to ambient through silicon + sink
                    diag[a] += g_sink_path
                    rhs[a] += g_sink_path * AMBIENT_C
                elif d_idx == 1:
                    couple(a, node(0, i, j), g_bond)

    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(diag.tolist())
    mat = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    temps = spsolve(mat, rhs)

    result: Dict[int, np.ndarray] = {}
    for d_idx, die in enumerate(dies):
        result[die] = temps[d_idx * n * n:(d_idx + 1) * n * n].reshape(
            (n, n))
    all_t = np.concatenate([t.ravel() for t in result.values()])
    return ThermalResult(temperature_c=result,
                         max_c=float(all_t.max()),
                         avg_c=float(all_t.mean()))


def chip_power_maps(chip, tiles: int = TILES) -> Tuple[Rect,
                                                    Dict[int, np.ndarray],
                                                    float]:
    """Build per-tier power maps from a :class:`ChipDesign`.

    Each block's power is spread uniformly over its floorplan rectangle
    on its tier; folded blocks contribute half per tier.  Returns the
    outline, the maps, and the total 3D-via copper cross-section.
    """
    from ..floorplan.t2_floorplans import BOTH_DIES
    fp = chip.floorplan
    outline = Rect(0.0, 0.0, fp.width, fp.height)
    n_dies = max(fp.n_dies, 1)
    maps = {d: np.zeros((tiles, tiles)) for d in range(n_dies)}
    tile_w = fp.width / tiles
    tile_h = fp.height / tiles

    for name, rect in fp.positions.items():
        design = chip.block_of(name)
        power = design.power.total_uw
        die = fp.die_of[name]
        targets = list(range(n_dies)) if die == BOTH_DIES else [die]
        share = power / len(targets)
        i0 = int(np.clip(rect.x0 / tile_w, 0, tiles - 1))
        i1 = int(np.clip((rect.x1 - 1e-9) / tile_w, 0, tiles - 1))
        j0 = int(np.clip(rect.y0 / tile_h, 0, tiles - 1))
        j1 = int(np.clip((rect.y1 - 1e-9) / tile_h, 0, tiles - 1))
        n_tiles = (i1 - i0 + 1) * (j1 - j0 + 1)
        for d in targets:
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    maps[d][i, j] += share / n_tiles

    # spread the chip-level wiring/repeater power uniformly
    block_power = sum(chip.block_of(nm).power.total_uw *
                      (1 if fp.die_of[nm] != BOTH_DIES else 1)
                      for nm in fp.positions)
    rest = max(0.0, chip.power.total_uw - block_power)
    for d in range(n_dies):
        maps[d] += rest / n_dies / (tiles * tiles)

    via_area = 0.0
    if chip.config.is_3d:
        # approximate copper cross-section per 3D connection
        via_d = 3.0 if chip.config.bonding == "F2B" else 0.8
        via_area = chip.n_3d_connections * math.pi * (via_d / 2) ** 2
    return outline, maps, via_area


def analyze_chip_thermal(chip) -> ThermalResult:
    """End-to-end: power maps from a chip design, then the solve."""
    outline, maps, via_area = chip_power_maps(chip, tiles=TILES)
    return solve_stack(outline, maps, via_area_um2=via_area)
