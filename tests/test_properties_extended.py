"""Property-based tests for the later-added subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import CostModel, cost_2d, cost_3d, die_yield
from repro.netlist.core import Netlist
from repro.place.grid import Rect
from repro.place.legalize import check_overlaps, legalize_cells
from repro.power.activity import _gate_output
from repro.tech.cells import CELL_HEIGHT_UM, make_28nm_library
from repro.tech.corners import CORNERS, derate_master

signal = st.tuples(st.floats(min_value=0.0, max_value=1.0),
                   st.floats(min_value=0.0, max_value=1.0))


class TestActivityProperties:
    @given(st.sampled_from(["INV", "BUF", "NAND2", "AND2", "NOR2", "OR2",
                            "XOR2", "AOI21", "MUX2"]),
           st.lists(signal, min_size=1, max_size=3))
    def test_outputs_always_bounded(self, function, ins):
        prob, act = _gate_output(function, ins)
        assert 0.0 <= prob <= 1.0
        assert 0.0 <= act <= 1.0

    @given(st.lists(signal, min_size=2, max_size=2))
    def test_demorgan_probability(self, ins):
        # NAND(a,b) == NOT(AND(a,b)) must hold probabilistically
        p_and, a_and = _gate_output("AND2", ins)
        p_nand, a_nand = _gate_output("NAND2", ins)
        assert p_nand == pytest.approx(1.0 - p_and, abs=1e-9)
        assert a_nand == pytest.approx(a_and, abs=1e-9)

    @given(signal)
    def test_double_inversion_identity(self, sig):
        once = _gate_output("INV", [sig])
        twice = _gate_output("INV", [once])
        assert twice[0] == pytest.approx(sig[0], abs=1e-9)
        assert twice[1] == pytest.approx(sig[1], abs=1e-9)


class TestCostProperties:
    areas = st.floats(min_value=5.0, max_value=400.0)

    @given(areas, areas)
    def test_yield_monotone_in_area(self, a, b):
        model = CostModel()
        lo, hi = sorted((a, b))
        assert die_yield(lo, model) >= die_yield(hi, model) - 1e-12

    @given(areas)
    def test_yields_are_probabilities(self, a):
        model = CostModel()
        assert 0.0 < die_yield(a, model) <= 1.0

    @given(areas, st.floats(min_value=0.01, max_value=3.0))
    def test_costs_positive(self, area, d0):
        model = CostModel(defect_density=d0)
        assert cost_2d(area, model).cost_per_good_die > 0
        assert cost_3d(area, model, strategy="w2w").cost_per_good_die > 0
        assert cost_3d(area, model, strategy="d2d").cost_per_good_die > 0


class TestCornerProperties:
    @given(st.sampled_from(["ss", "tt", "ff"]),
           st.sampled_from(["INV_X1", "NAND2_X4", "DFF_X2",
                            "MUX2_X8_HVT"]))
    def test_derating_preserves_identity_fields(self, corner, name):
        lib = make_28nm_library()
        m = lib.master(name)
        d = derate_master(m, CORNERS[corner])
        assert d.name == m.name
        assert d.function == m.function
        assert d.drive == m.drive
        assert d.area_um2 == m.area_um2
        assert d.input_cap_ff == m.input_cap_ff


class TestLegalizerProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=300.0)),
        min_size=1, max_size=80),
        st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_placed_cells_never_overlap(self, positions, seed):
        lib = make_28nm_library()
        nl = Netlist("prop")
        outline = Rect(0, 0, 520, 30 * CELL_HEIGHT_UM)
        cells = []
        for k, (x, y) in enumerate(positions):
            cells.append(nl.add_instance(f"c{k}", lib.master("INV_X2"),
                                         x=x, y=y))
        res = legalize_cells(cells, outline)
        placed = [c for c in cells]
        if res.failed == 0:
            assert check_overlaps(placed) == 0
        for c in placed:
            assert outline.x0 - 1e-6 <= c.x <= outline.x1 + 1e-6


class TestEngineFaultProperties:
    """Resilience properties of the experiment engine under injected
    faults: recoverable faults must recover byte-identically, and
    unrecoverable faults must degrade only the ids they target."""

    IDS = ["table1", "table4"]
    SCALE = 0.4

    @pytest.fixture(autouse=True)
    def _clean_fault_state(self):
        from repro import faults
        faults.reset()
        yield
        faults.reset()

    @pytest.fixture(scope="class")
    def chaos_baseline(self):
        from repro.parallel.engine import run_sweep
        from repro.service.schema import SweepRequest
        return run_sweep(SweepRequest.from_ids(self.IDS, scale=self.SCALE))

    @given(seed=st.integers(min_value=0, max_value=10**6),
           kind=st.sampled_from(["raise", "slow", "crash"]),
           target=st.sampled_from(["table1", "table4"]))
    @settings(max_examples=6, deadline=None)
    def test_recoverable_faults_recover_byte_identically(
            self, chaos_baseline, seed, kind, target):
        from repro.faults import FaultPlan
        from repro.parallel.engine import run_sweep
        from repro.service.schema import SweepRequest
        plan = FaultPlan.parse(
            f"{kind} task={target} stage=task attempt=1", seed=seed)
        report = run_sweep(SweepRequest.from_ids(self.IDS, scale=self.SCALE,
                                                 retries=1),
                           fault_plan=plan)
        assert report.completed()
        by_id = {r.experiment_id: r for r in report.runs}
        # slow merely delays the attempt; raise/crash cost one retry
        assert by_id[target].attempts == (1 if kind == "slow" else 2)
        assert report.results_json() == chaos_baseline.results_json()

    @given(seed=st.integers(min_value=0, max_value=10**6),
           target=st.sampled_from(["table1", "table4"]))
    @settings(max_examples=4, deadline=None)
    def test_unrecoverable_faults_only_degrade_their_target(
            self, chaos_baseline, seed, target):
        from repro.faults import FaultPlan
        from repro.parallel.engine import run_sweep
        from repro.service.schema import SweepRequest
        plan = FaultPlan.parse(
            f"raise task={target} stage=task attempt=0", seed=seed)
        report = run_sweep(SweepRequest.from_ids(self.IDS, scale=self.SCALE,
                                                 retries=1),
                           fault_plan=plan)
        assert not report.completed()
        assert {r.experiment_id
                for r in report.failed_runs()} == {target}
        want = {k: v for k, v in chaos_baseline.results_dict().items()
                if k != target}
        assert report.results_dict() == want

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=25, deadline=None)
    def test_seeded_plans_replay_and_round_trip(self, seed):
        from repro.faults import FaultPlan
        plan = FaultPlan.seeded(seed, tasks=["a", "b"])
        assert plan == FaultPlan.seeded(seed, tasks=["a", "b"])
        assert FaultPlan.parse(plan.to_text(), seed=seed) == plan
        first = plan.specs[0]
        assert (first.kind, first.stage, first.attempt) == \
            ("raise", "task", 1)


class TestPlaceKernelProperties:
    """Vectorized placement kernels agree with their scalar references."""

    coords = st.floats(min_value=-1e4, max_value=1e4,
                       allow_nan=False, allow_infinity=False)

    @given(st.lists(st.tuples(coords, coords,
                              st.integers(min_value=2, max_value=40)),
                    min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_b2b_weights_match_scalar(self, triples):
        from repro.place.quadratic import b2b_weights
        from tests.oracles.place_scalar import b2b_weight
        pa = np.array([t[0] for t in triples])
        pb = np.array([t[1] for t in triples])
        deg = np.array([t[2] for t in triples], dtype=np.int64)
        vec = b2b_weights(pa, pb, deg)
        for k, (a, b, d) in enumerate(triples):
            assert vec[k] == b2b_weight(a, b, d)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           n=st.integers(min_value=1, max_value=120),
           with_hole=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_spread_conserves_cells_inside_outline(self, seed, n,
                                                   with_hole):
        from repro.place.grid import DensityGrid
        from repro.place.spreading import spread
        grid = DensityGrid(Rect(0, 0, 80, 80), target_bins=64,
                           utilization=1.0)
        if with_hole:
            grid.add_obstruction(Rect(30, 30, 50, 50))
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 80, n)
        ys = rng.uniform(0, 80, n)
        areas = rng.uniform(1.0, 5.0, n)
        total = areas.sum()
        sx, sy = spread(grid, xs, ys, areas)
        # every cell is still accounted for, inside the outline
        assert len(sx) == len(sy) == n
        assert areas.sum() == total
        assert (sx >= 0).all() and (sx <= 80).all()
        assert (sy >= 0).all() and (sy <= 80).all()

    @given(seed=st.integers(min_value=0, max_value=10**6),
           n=st.integers(min_value=1, max_value=150),
           with_hole=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_legalize_random_mixes_overlap_free(self, seed, n,
                                                with_hole):
        from repro.netlist.core import Netlist
        lib = make_28nm_library()
        outline = Rect(0, 0, 300, 30 * CELL_HEIGHT_UM)
        obstructions = ([Rect(80, 0, 140, 30 * CELL_HEIGHT_UM)]
                        if with_hole else [])
        rng = np.random.default_rng(seed)
        nl = Netlist("prop")
        masters = ["INV_X1", "INV_X2", "BUF_X4", "NAND2_X2", "DFF_X1"]
        cells = [nl.add_instance(
            f"c{i}", lib.master(str(rng.choice(masters))),
            x=float(rng.uniform(0, 300)),
            y=float(rng.uniform(0, 30 * CELL_HEIGHT_UM)))
            for i in range(n)]
        res = legalize_cells(cells, outline, obstructions)
        assert res.failed == 0
        assert check_overlaps(cells) == 0
        for c in cells:
            for o in obstructions:
                assert not (o.x0 < c.x < o.x1 - c.width_um)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           n=st.integers(min_value=2, max_value=80),
           x_is_center=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_overlapping_pairs_matches_brute_force(self, seed, n,
                                                   x_is_center):
        from repro.place.grid import GEOM_TOL_UM
        from repro.place.legalize import overlapping_pairs
        lib = make_28nm_library()
        rng = np.random.default_rng(seed)
        nl = Netlist("pairs")
        cells = [nl.add_instance(
            f"c{i}", lib.master(str(rng.choice(
                ["INV_X1", "BUF_X4", "NAND2_X2"]))),
            x=float(rng.uniform(0, 40)),
            y=float(rng.choice([0.6, 1.8, 3.0])))
            for i in range(n)]

        def span(c):
            if x_is_center:
                return c.x - c.width_um / 2, c.x + c.width_um / 2
            return c.x, c.x + c.width_um

        brute = set()
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if round(a.y, 3) != round(b.y, 3):
                    continue
                a0, a1 = span(a)
                b0, b1 = span(b)
                if min(a1, b1) - max(a0, b0) > GEOM_TOL_UM:
                    brute.add(tuple(sorted((a.id, b.id))))
        swept = {tuple(sorted((a.id, b.id)))
                 for a, b in overlapping_pairs(cells,
                                               x_is_center=x_is_center)}
        assert swept == brute
