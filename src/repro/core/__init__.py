"""The paper's contribution: folding, bonding styles, full-chip assembly."""

from .cache import CacheStats, DesignCache, block_design, run_scope
from .bonding import BondingComparison, bonding_power_sweep, compare_bonding
from .explore import (DesignPoint, ExplorationResult,
                      explore_design_space, pareto_front)
from .chip_sta import (ChipSTAResult, CrossPath, build_signed_off_chip,
                       pipeline_failing_bundles, run_chip_sta)
from .fullchip import ChipConfig, ChipDesign, build_chip
from .flow import BlockDesign, FlowConfig, run_block_flow, run_flow_on
from .folding import (FOLD_MODES, FoldingCandidate, FoldSpec,
                      folding_candidates, make_partition,
                      partition_case_sweep)
from .secondlevel import (SpcStudyResult, fub_assign_spec,
                          second_level_spec, spc_folding_study)

__all__ = [
    "CacheStats", "DesignCache", "block_design", "run_scope",
    "BondingComparison", "bonding_power_sweep", "compare_bonding",
    "ChipSTAResult", "CrossPath", "build_signed_off_chip",
    "pipeline_failing_bundles", "run_chip_sta", "ChipConfig",
    "DesignPoint", "ExplorationResult", "explore_design_space",
    "pareto_front",
    "ChipDesign", "build_chip",
    "BlockDesign", "FlowConfig", "run_block_flow", "run_flow_on",
    "FOLD_MODES", "FoldingCandidate", "FoldSpec", "folding_candidates",
    "make_partition", "partition_case_sweep", "SpcStudyResult",
    "fub_assign_spec", "second_level_spec", "spc_folding_study",
]
