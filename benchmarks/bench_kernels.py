"""Kernel performance benchmarks.

Unlike the paper-artifact benches (single-shot regeneration), these time
the library's hot kernels with repeated rounds so performance
regressions in the placer, router, STA or power engine show up in
pytest-benchmark's statistics.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.core.folding import make_partition
from repro.core.secondlevel import second_level_spec
from repro.designgen import block_type_by_name, generate_block
from repro.place import PlacementConfig, place_block_2d
from repro.place.quadratic import QuadraticPlacer, factor_b2b
from repro.power import analyze_power
from repro.route import route_block, route_block_detailed
from repro.route.estimate import RouteContext
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


def test_kernel_qp_solve(benchmark, process, monkeypatch):
    """One B2B axis solve on spc (~2.6k cells): symmetric-mode factor
    and solve of the x system the 2D placer assembles first, timed from
    the assembled matrix."""
    systems = []
    real = QuadraticPlacer._solve_axis

    def record(placer, coords, axis, anchors):
        systems.append(placer._assemble_axis(coords, axis, anchors))
        return real(placer, coords, axis, anchors)

    monkeypatch.setattr(QuadraticPlacer, "_solve_axis", record)
    gb = generate_block(block_type_by_name("spc"), process.library,
                        seed=1)
    place_block_2d(gb.netlist, PlacementConfig(seed=1))
    mat, rhs = systems[0]
    x = benchmark(lambda: factor_b2b(mat).solve(rhs))
    ref = spsolve(mat, rhs)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


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
    engine; every call gathers, levelizes and sweeps a fresh
    TimingGraph)."""
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
    """Staged optimization loop on l2t (live-edit session: parasitics
    refreshed in place, one array re-time per move chunk)."""
    from repro.obs.metrics import metrics
    from repro.obs.names import CTR_OPT_FULL_REROUTES
    from repro.opt.flow import optimize_block

    deltas = []

    def run():
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        routes = metrics().counter(CTR_OPT_FULL_REROUTES)
        before = routes.value
        res = optimize_block(
            gb.netlist, process, TimingConfig("cpu_clk"),
            RouteContext(stack=process.metal_stack), dual_vth=True)
        deltas.append(routes.value - before)
        return res
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.downsized > 0 and res.hvt_swaps > 0
    # buffer insertion re-routes per net: the initial route is the
    # only whole-block route
    assert deltas and set(deltas) == {1}


def test_kernel_incremental_sta(benchmark, process):
    """Batched ECO re-timing: ~1k master swaps, then one re-time of the
    whole block -- the touched nets' rows of the view's arrays and the
    graph's delays and wire-delay gathers are patched in place, then
    one array sweep runs (no gather, no levelization)."""
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


def test_kernel_incremental_single_swaps(benchmark, process):
    """Per-edit ECO re-timing: 50 one-cell HVT swaps on a routed l2t
    view, one patch and one sweep each (the ``examples/eco_session.py``
    pattern)."""
    from repro.tech import VTH_HVT, VTH_RVT
    from repro.timing.incremental import IncrementalSTA
    gb = generate_block(block_type_by_name("l2t"), process.library,
                        seed=1)
    place_block_2d(gb.netlist, PlacementConfig(seed=1))
    inc = IncrementalSTA(gb.netlist,
                         route_block(gb.netlist, process.metal_stack),
                         process, TimingConfig("cpu_clk"))
    lib = process.library
    cells = [c for c in gb.netlist.cells if not c.is_sequential][:50]

    def run():
        # each call flips the same 50 cells between RVT and HVT, so
        # every round times 50 single-cell edits
        applied = 0
        for c in cells:
            vth = VTH_RVT if c.master.vth == VTH_HVT else VTH_HVT
            applied += inc.swap_masters(
                [(c.id, lib.variant(c.master, vth=vth))])
        return applied
    assert benchmark(run) == 50


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

