"""Kernel performance benchmarks.

Unlike the paper-artifact benches (single-shot regeneration), these time
the library's hot kernels with repeated rounds so performance
regressions in the placer, router, STA or power engine show up in
pytest-benchmark's statistics.
"""

import pytest

from repro.core.folding import make_partition
from repro.core.secondlevel import second_level_spec
from repro.designgen import block_type_by_name, generate_block
from repro.place import PlacementConfig, place_block_2d
from repro.power import analyze_power
from repro.route import route_block, route_block_detailed
from repro.timing import TimingConfig, run_sta


@pytest.fixture(scope="module")
def placed_l2t(process):
    gb = generate_block(block_type_by_name("l2t"), process.library,
                        seed=1)
    outline = place_block_2d(gb.netlist, PlacementConfig(seed=1)).outline
    routing = route_block(gb.netlist, process.metal_stack)
    return gb, outline, routing


def test_kernel_generate(benchmark, process):
    """Netlist generation throughput (l2t, ~1k cells)."""
    benchmark(generate_block, block_type_by_name("l2t"),
              process.library, 1)


def test_kernel_place(benchmark, process):
    """Quadratic place + spread + legalize (l2t)."""
    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_kernel_route_estimate(benchmark, process, placed_l2t):
    """Trunk-tree routing estimation over ~1.1k nets."""
    gb, _, _ = placed_l2t
    benchmark(route_block, gb.netlist, process.metal_stack)


def test_kernel_route_detailed(benchmark, process, placed_l2t):
    """Capacity-tracked global routing over ~1.1k nets."""
    gb, outline, _ = placed_l2t
    benchmark.pedantic(
        lambda: route_block_detailed(gb.netlist, process.metal_stack,
                                     outline),
        rounds=3, iterations=1)


def test_kernel_sta(benchmark, process, placed_l2t):
    """Forward/backward STA over the routed block (levelized array
    engine; the first call builds and caches the TimingGraph)."""
    gb, _, routing = placed_l2t
    benchmark(run_sta, gb.netlist, routing, process,
              TimingConfig("cpu_clk"))


def test_kernel_power(benchmark, process, placed_l2t):
    """Power rollup over the routed block."""
    gb, _, routing = placed_l2t
    benchmark(analyze_power, gb.netlist, routing, process, "cpu_clk")


def test_kernel_partition(benchmark, process):
    """FM refinement of the SPC second-level fold (~2.6k cells, whole
    FUBs locked) -- large enough that per-move cost shows."""
    def run():
        gb = generate_block(block_type_by_name("spc"), process.library,
                            seed=1)
        return make_partition(gb, second_level_spec())
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_kernel_optimize(benchmark, process):
    """Staged optimization loop on l2t (incremental timing core)."""
    from repro.opt.flow import OptimizeConfig, optimize_block

    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        return optimize_block(
            gb.netlist, process, TimingConfig("cpu_clk"),
            lambda nl: route_block(nl, process.metal_stack),
            OptimizeConfig(dual_vth=True))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.downsized > 0 and res.hvt_swaps > 0
    # the incremental loop re-routes only at start + buffer insertion
    assert res.full_reroutes <= 4


def test_kernel_optimize_full_recompute(benchmark, process):
    """Same loop with the incremental core disabled (the baseline the
    opt-smoke CI step asserts >=2x against)."""
    from repro.opt.flow import OptimizeConfig, optimize_block

    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        return optimize_block(
            gb.netlist, process, TimingConfig("cpu_clk"),
            lambda nl: route_block(nl, process.metal_stack),
            OptimizeConfig(dual_vth=True, full_recompute=True))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.full_reroutes > 4


def test_kernel_incremental_sta(benchmark, process):
    """Batched ECO re-timing: ~1k master swaps per frontier walk."""
    from repro.timing.incremental import IncrementalSTA
    gb = generate_block(block_type_by_name("l2t"), process.library,
                        seed=1)
    place_block_2d(gb.netlist, PlacementConfig(seed=1))
    routing = route_block(gb.netlist, process.metal_stack)
    inc = IncrementalSTA(gb.netlist, routing, process,
                         TimingConfig("cpu_clk"))
    lib = process.library
    cells = [c for c in gb.netlist.cells if not c.is_sequential]

    def run():
        # each call flips ~1k cells between adjacent sizes, so every
        # round re-times a comparable batch
        moves = []
        for c in cells:
            new = lib.downsize(c.master) or lib.upsize(c.master)
            if new is not None:
                moves.append((c.id, new))
            if len(moves) >= 1000:
                break
        return inc.swap_masters(moves)
    applied = benchmark(run)
    assert applied >= 500


def test_kernel_place_fold3d(benchmark, process):
    """Two-tier fold placement incl. partitioning and via assignment."""
    from repro.place import fm_bipartition, fold_place_3d

    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        part = fm_bipartition(gb.netlist, seed=0)
        return fold_place_3d(gb.netlist, process, part.assignment,
                             "F2B", PlacementConfig(seed=1))
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_kernel_place_bistratal(benchmark, process):
    """Fold placement with the analytical die-to-die z refinement."""
    from repro.place import fm_bipartition, fold_place_3d

    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        part = fm_bipartition(gb.netlist, seed=0)
        return fold_place_3d(gb.netlist, process, part.assignment,
                             "F2B", PlacementConfig(seed=1),
                             mode="bistratal")
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.hpwl_um > 0
