"""Static IR-drop analysis of the power delivery network.

The paper's reference list includes the same group's TSV IR-drop study;
this module provides the equivalent check for the five design styles.
The power grid is modeled as a per-tier resistive mesh fed from pads:

* 2D chips take current from pads around the perimeter;
* in a two-tier stack only the package-facing tier has pads, and the far
  tier draws its supply *through the power TSVs*, so its droop includes
  the TSV resistance -- stacking concentrates current density on half
  the footprint and adds a series hop, the classic 3D power-integrity
  worry the paper defers alongside thermal.

The solver reuses the sparse nodal-analysis pattern of the thermal model
(conductance matrix, current injections, one linear solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from ..place.grid import Rect


#: tiles per side of each tier's power mesh
TILES = 16
#: sheet resistance of the per-tier power mesh (mOhm/square)
MESH_SHEET_MOHM = 15.0
#: pad resistance (package bump + via stack), mOhm per pad
PAD_MOHM = 120.0
#: physical pad pitch along the perimeter (um) -- a smaller chip has
#: fewer pads, the root of 3D's power-delivery disadvantage
PAD_PITCH_UM = 180.0
#: power TSVs per tile feeding the far tier
POWER_TSVS_PER_TILE = 4
#: one power TSV's resistance (mOhm)
TSV_MOHM = 71.0


@dataclass
class IrDropResult:
    """Voltage droop per tier (volts)."""

    drop_v: Dict[int, np.ndarray]
    max_drop_v: float
    avg_drop_v: float

    def tier_max(self, die: int) -> float:
        return float(self.drop_v[die].max())


def solve_ir_drop(outline: Rect, power_maps: Dict[int, np.ndarray],
                  vdd: float = 0.9) -> IrDropResult:
    """Solve the static IR drop of a 1- or 2-tier power grid.

    Args:
        outline: chip outline (shared across tiers).
        power_maps: die index -> (:data:`TILES` x :data:`TILES`) power
            map in uW; tile current is ``P / Vdd``.
        vdd: nominal supply.

    Returns:
        Per-tier droop maps (volts below nominal).
    """
    n = TILES
    dies = sorted(power_maps)
    if len(dies) not in (1, 2):
        raise ValueError("solve_ir_drop handles 1 or 2 tiers")
    for die, pm in power_maps.items():
        if pm.shape != (n, n):
            raise ValueError(f"power map of tier {die} must be {n}x{n}")

    # conductances in A/V; resistances given in mOhm
    g_mesh = 1000.0 / max(MESH_SHEET_MOHM, 1e-9)
    # pads per edge tile from the physical perimeter
    tile_len = (outline.width + outline.height) / (2.0 * n)
    pads_per_tile = max(tile_len / max(PAD_PITCH_UM, 1e-9), 0.05)
    g_pad = pads_per_tile * 1000.0 / max(PAD_MOHM, 1e-9)
    g_tsv = POWER_TSVS_PER_TILE * 1000.0 / max(TSV_MOHM, 1e-9)

    n_dies = len(dies)
    size = n_dies * n * n

    def node(d: int, i: int, j: int) -> int:
        return d * n * n + i * n + j

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
                # current sink: P/V, in amps (power in uW -> 1e-6)
                rhs[a] -= pm[i, j] * 1e-6 / vdd
                if i + 1 < n:
                    couple(a, node(d_idx, i + 1, j), g_mesh)
                if j + 1 < n:
                    couple(a, node(d_idx, i, j + 1), g_mesh)
                edge = i in (0, n - 1) or j in (0, n - 1)
                if d_idx == 0 and edge:
                    # pad ties the node to the (nominal) supply; solving
                    # for droop, the supply is the 0V reference
                    diag[a] += g_pad
                if d_idx == 1:
                    couple(a, node(0, i, j), g_tsv)

    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(diag.tolist())
    mat = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    # droop is negative of the node voltage under sink currents
    v = spsolve(mat, rhs)
    drop = -v

    result: Dict[int, np.ndarray] = {}
    for d_idx, die in enumerate(dies):
        result[die] = drop[d_idx * n * n:(d_idx + 1) * n * n].reshape(
            (n, n))
    flat = np.concatenate([m.ravel() for m in result.values()])
    return IrDropResult(drop_v=result, max_drop_v=float(flat.max()),
                        avg_drop_v=float(flat.mean()))


def analyze_chip_ir_drop(chip) -> IrDropResult:
    """IR drop of a built chip, reusing the thermal power maps."""
    from ..thermal.model import chip_power_maps
    outline, maps, _ = chip_power_maps(chip, tiles=TILES)
    return solve_ir_drop(outline, maps, vdd=0.9)
