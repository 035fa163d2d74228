"""repro: reproduction of "On Enhancing Power Benefits in 3D ICs: Block
Folding and Bonding Styles Perspective" (Jung et al., DAC 2014).

The package builds the paper's entire design environment in pure Python --
technology models, netlist generation, mixed-size 2D/3D placement, routing
estimation, static timing, power analysis and optimization -- and, on top
of it, the paper's contributions: 3D floorplanning, block folding, bonding
style studies, and the F2F via placer.

Quick start::

    from repro import make_process
    from repro.core import FlowConfig, run_block_flow
    process = make_process()
    result = run_block_flow("ccx", FlowConfig(), process)
    print(result.power.total_uw)

See ``examples/`` for complete studies and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from .tech import ProcessNode, make_process

__version__ = "1.0.0"


def __getattr__(name):
    # convenience top-level access to the main flow entry points without
    # importing the heavy subpackages at import time
    if name in ("FlowConfig", "FoldSpec", "run_block_flow",
                "ChipConfig", "build_chip", "build_signed_off_chip",
                "explore_design_space", "DesignCache"):
        from . import core
        return getattr(core, name)
    if name in ("REGISTRY", "run_experiment", "ExperimentOptions",
                "UnknownExperimentError"):
        from . import analysis
        return getattr(analysis, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "make_process", "ProcessNode", "__version__",
    "FlowConfig", "FoldSpec", "run_block_flow", "ChipConfig",
    "build_chip", "build_signed_off_chip", "explore_design_space",
    "DesignCache", "REGISTRY", "run_experiment", "ExperimentOptions",
    "UnknownExperimentError",
]
