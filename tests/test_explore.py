"""Tests for design-space exploration."""

import pytest

from repro.core.explore import DesignPoint, explore_design_space, pareto_front


def point(style="2d", dvt=False, p=100.0, f=10.0, t=50.0):
    return DesignPoint(style=style, dual_vth=dvt, power_mw=p,
                       footprint_mm2=f, max_temp_c=t,
                       n_3d_connections=0, wns_ps=0.0)


class TestPareto:
    def test_dominated_point_excluded(self):
        good = point(p=80, f=8, t=49)
        bad = point(p=100, f=10, t=50)
        front = pareto_front([good, bad])
        assert front == [good]

    def test_tradeoff_points_both_kept(self):
        cool = point(p=120, f=12, t=45)
        frugal = point(p=80, f=8, t=55)
        front = pareto_front([cool, frugal])
        assert len(front) == 2

    def test_identical_points_both_survive(self):
        a, b = point(), point()
        assert len(pareto_front([a, b])) == 2

    def test_dominates_strictness(self):
        a = point(p=100, f=10, t=50)
        b = point(p=100, f=10, t=50)
        assert not a.dominates(b)
        assert point(p=99, f=10, t=50).dominates(a)


class TestExploration:
    @pytest.fixture(scope="class")
    def result(self, process):
        grid = (("2d", False), ("core_cache", False),
                ("fold_f2f", True))
        return explore_design_space(process, grid=grid, scale=0.35)

    def test_every_config_evaluated(self, result):
        assert len(result.points) == 3
        assert {p.label for p in result.points} == \
            {"2d/rvt", "core_cache/rvt", "fold_f2f/dvt"}

    def test_pareto_front_nonempty(self, result):
        assert result.pareto
        assert all(p in result.points for p in result.pareto)

    def test_2d_not_power_optimal(self, result):
        assert result.best("power").style != "2d"
        assert result.best("temperature").style == "2d"

    def test_table_renders(self, result):
        text = result.table()
        assert "pareto" in text
        assert "fold_f2f/dvt" in text
        assert "*" in text
