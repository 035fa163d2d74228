"""Tests for the quadratic (B2B) placement solver."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.names import CTR_PLACE_QP_SOLVES, SPAN_PLACE_SOLVE
from repro.place import PlacementConfig, place_block_2d
from repro.place.quadratic import QPNet, QuadraticPlacer, factor_b2b
from tests.conftest import fresh_block, qp_calls
from tests.oracles import place_scalar as oracle


def test_two_fixed_points_pull_between():
    # HPWL is flat anywhere between two anchors, so B2B must land the
    # cell strictly between them (not collapse to either end)
    nets = [
        QPNet(movable=[0], fixed=[(0.0, 0.0)]),
        QPNet(movable=[0], fixed=[(10.0, 10.0)]),
    ]
    placer = QuadraticPlacer(1, nets)
    x, y = placer.solve(np.array([3.0]), np.array([3.0]))
    assert 0.5 < x[0] < 9.5
    assert 0.5 < y[0] < 9.5


def test_equal_weights_from_center_stay_centered():
    nets = [
        QPNet(movable=[0], fixed=[(0.0, 0.0)]),
        QPNet(movable=[0], fixed=[(10.0, 10.0)]),
    ]
    placer = QuadraticPlacer(1, nets)
    x, y = placer.solve(np.array([5.0]), np.array([5.0]))
    assert x[0] == pytest.approx(5.0, abs=0.5)


def test_chain_orders_monotonically():
    # fixed(0) - a - b - c - fixed(30): solution must be ordered
    nets = [
        QPNet(movable=[0], fixed=[(0.0, 0.0)]),
        QPNet(movable=[0, 1], fixed=[]),
        QPNet(movable=[1, 2], fixed=[]),
        QPNet(movable=[2], fixed=[(30.0, 0.0)]),
    ]
    placer = QuadraticPlacer(3, nets)
    x0 = np.array([1.0, 2.0, 3.0])
    x, y = placer.solve(x0, np.zeros(3))
    assert 0 < x[0] < x[1] < x[2] < 30


def test_anchor_pulls_toward_target():
    nets = [QPNet(movable=[0], fixed=[(0.0, 0.0)])]
    placer = QuadraticPlacer(1, nets)
    ax = np.array([100.0])
    ay = np.array([0.0])
    x_weak, _ = placer.solve(np.array([0.0]), np.array([0.0]),
                             anchors=(ax, ay, 1e-6))
    x_strong, _ = placer.solve(np.array([0.0]), np.array([0.0]),
                               anchors=(ax, ay, 10.0))
    assert x_strong[0] > x_weak[0]
    assert x_strong[0] > 90


def test_isolated_cell_stays_finite():
    placer = QuadraticPlacer(2, [QPNet(movable=[0], fixed=[(5.0, 5.0)])])
    x, y = placer.solve(np.array([0.0, 42.0]), np.array([0.0, 7.0]))
    assert np.isfinite(x).all() and np.isfinite(y).all()


def test_net_weight_strengthens_pull():
    nets_light = [
        QPNet(movable=[0], fixed=[(0.0, 0.0)], weight=1.0),
        QPNet(movable=[0], fixed=[(10.0, 0.0)], weight=1.0),
    ]
    nets_heavy = [
        QPNet(movable=[0], fixed=[(0.0, 0.0)], weight=1.0),
        QPNet(movable=[0], fixed=[(10.0, 0.0)], weight=9.0),
    ]
    x_light, _ = QuadraticPlacer(1, nets_light).solve(
        np.array([5.0]), np.array([0.0]))
    x_heavy, _ = QuadraticPlacer(1, nets_heavy).solve(
        np.array([5.0]), np.array([0.0]))
    assert x_heavy[0] > x_light[0]


def test_multi_pin_net_collapses_without_fixed():
    nets = [QPNet(movable=[0, 1, 2], fixed=[])]
    placer = QuadraticPlacer(3, nets)
    x, y = placer.solve(np.array([0.0, 5.0, 10.0]),
                        np.array([0.0, 0.0, 0.0]), rounds=3)
    assert np.ptp(x) < 5.0  # pulled together


def test_degenerate_nets_skipped():
    placer = QuadraticPlacer(1, [
        QPNet(movable=[], fixed=[(0, 0), (1, 1)]),
        QPNet(movable=[0], fixed=[]),
    ])
    assert placer.nets == []


# ---------------------------------------------------------------------------
# The solve: symmetric-mode SuperLU on systems assembled from a real block
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spc_calls(library):
    """Every axis solve the 2D placer makes on spc (~2.6k cells)."""
    return qp_calls("spc", library)


@pytest.fixture(scope="module")
def spc_systems(spc_calls):
    """The assembled ``(matrix, rhs)`` of each of those solves."""
    return [placer._assemble_axis(coords, axis, anchors)
            for placer, coords, axis, anchors in spc_calls]


def test_factorization_pivots_only_on_the_diagonal(spc_systems):
    for mat, _ in spc_systems:
        lu = factor_b2b(mat)
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_symmetric_order_fills_under_half_of_the_general_one(spc_systems):
    # what the symmetric mode buys: COLAMD with partial pivoting also
    # pivots on this diagonal, but fills 2.3-3.0x more entries on spc
    for mat, _ in spc_systems:
        assert 2 * factor_b2b(mat).nnz <= splu(mat.tocsc()).nnz


def test_relative_residual_is_at_most_1e_12(spc_systems):
    for mat, rhs in spc_systems:
        x = factor_b2b(mat).solve(rhs)
        assert np.linalg.norm(mat @ x - rhs) <= \
            1e-12 * np.linalg.norm(rhs)


def test_solution_matches_the_oracle_spsolve(spc_calls):
    for placer, coords, axis, anchors in spc_calls:
        x = placer._solve_axis(coords, axis, anchors)
        ref = oracle.solve_axis(placer, coords, axis, anchors)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_one_cell_system_returns_finite_coordinates():
    placer = QuadraticPlacer(1, [QPNet(movable=[0], fixed=[(5.0, 7.0)])])
    x, y = placer.solve(np.array([0.0]), np.array([0.0]))
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert x[0] == pytest.approx(5.0, abs=1e-3)
    assert y[0] == pytest.approx(7.0, abs=1e-3)


def test_system_held_only_by_the_regularization_is_finite():
    # no fixed pin anywhere: without the 1e-6 diagonal term the
    # Laplacian is singular
    nets = [QPNet(movable=[0, 1, 2], fixed=[]),
            QPNet(movable=[2, 3], fixed=[])]
    placer = QuadraticPlacer(4, nets)
    mat, rhs = placer._assemble_axis(np.array([0.0, 5.0, 10.0, 20.0]),
                                     0, None)
    assert not rhs.any()
    assert np.asarray(mat.sum(axis=1)).ravel() == pytest.approx(
        np.full(4, 1e-6))
    x, y = placer.solve(np.array([0.0, 5.0, 10.0, 20.0]),
                        np.array([3.0, 1.0, 4.0, 1.0]))
    assert np.isfinite(x).all() and np.isfinite(y).all()


def test_each_solve_is_a_span_inside_place_global(library):
    reg = MetricsRegistry()
    with use_registry(reg), trace.use_tracer(trace.Tracer()) as tracer:
        place_block_2d(fresh_block("ncu", library).netlist,
                       PlacementConfig(seed=1))
    by_id = {sp.span_id: sp for sp in tracer.spans}
    solves = [sp for sp in tracer.spans if sp.name == SPAN_PLACE_SOLVE]
    assert len(solves) == reg.snapshot()["counters"][CTR_PLACE_QP_SOLVES]
    assert {sp.attrs["axis"] for sp in solves} == {0, 1}
    for sp in solves:
        assert by_id[sp.parent_id].name == "place.global"
        assert sp.attrs["cells"] == by_id[sp.parent_id].attrs["cells"]
        assert sp.attrs["fill"] >= sp.attrs["cells"]
