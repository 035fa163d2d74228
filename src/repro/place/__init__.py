"""Placement: density grid, quadratic engine, 2D/3D mixed-size placers."""

from .grid import DensityGrid, Rect
from .legalize import (LegalizeResult, check_overlaps, legalize_cells,
                       overlapping_pairs)
from .regions import region_bisect
from .partition import (PartitionResult, count_cut, fm_bipartition,
                        partition_by_clusters)
from .placer2d import (PlacementConfig, PlacementResult, compute_outline,
                       hpwl, place_block_2d, place_macros, place_ports)
from .placer3d import (Fold3DResult, ViaSite, clock_crossings,
                       crossing_nets, fold_place_3d)
from .quadratic import QPNet, QuadraticPlacer, b2b_weights

__all__ = [
    "DensityGrid", "Rect", "LegalizeResult", "check_overlaps",
    "legalize_cells", "overlapping_pairs", "region_bisect",
    "PartitionResult", "count_cut", "fm_bipartition",
    "partition_by_clusters", "PlacementConfig", "PlacementResult",
    "compute_outline", "hpwl", "place_block_2d", "place_macros",
    "place_ports", "Fold3DResult", "ViaSite", "clock_crossings",
    "crossing_nets", "fold_place_3d", "QPNet", "QuadraticPlacer",
    "b2b_weights",
]
