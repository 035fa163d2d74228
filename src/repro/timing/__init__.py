"""Static timing analysis and path reporting."""

from .paths import (PathStage, TimingPath, extract_worst_paths,
                    io_path_delays)
from .hold import HoldResult, fix_hold, run_hold_analysis
from .incremental import IncrementalSTA
from .si import SiReport, coupling_factor, derate_routing
from .sta import (MACRO_SETUP_PS, SETUP_PS, STAResult, TimingConfig,
                  run_sta)

__all__ = ["MACRO_SETUP_PS", "SETUP_PS", "STAResult", "TimingConfig",
           "run_sta", "PathStage", "TimingPath", "extract_worst_paths",
           "io_path_delays", "SiReport", "coupling_factor",
           "derate_routing", "HoldResult", "fix_hold",
           "run_hold_analysis", "IncrementalSTA"]
