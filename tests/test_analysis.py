"""Tests for report formatting and the experiment registry."""

import pytest

from repro.analysis.experiments import (REGISTRY, ExperimentOptions,
                                        run_experiment)
from repro.analysis.report import (MetricRow, design_metric_rows,
                                   format_table, relative)


class TestFormatTable:
    def test_contains_values_and_deltas(self):
        rows = [MetricRow("power (mW)", [10.0, 8.0])]
        text = format_table("T", ["2D", "3D"], rows)
        assert "10.00" in text
        assert "8.00 (-20.0%)" in text
        assert "2D" in text and "3D" in text

    def test_no_delta_flag(self):
        rows = [MetricRow("# vias", [0, 100], fmt="{:.0f}",
                          show_delta=False)]
        text = format_table("T", ["a", "b"], rows)
        assert "(" not in text.splitlines()[-1]

    def test_unit_scale(self):
        rows = [MetricRow("x", [2000.0], unit_scale=1e-3)]
        text = format_table("T", ["only"], rows)
        assert "2.00" in text

    def test_zero_baseline_no_delta(self):
        rows = [MetricRow("x", [0.0, 5.0])]
        text = format_table("T", ["a", "b"], rows)
        assert "%" not in text


def test_relative():
    assert relative(8.0, 10.0) == pytest.approx(-0.2)
    assert relative(12.0, 10.0) == pytest.approx(0.2)
    assert relative(5.0, 0.0) == 0.0


def test_design_metric_rows(process):
    from repro.core.flow import FlowConfig, run_block_flow
    d = run_block_flow("ncu", FlowConfig(), process)
    rows = design_metric_rows([d, d])
    labels = [r.label for r in rows]
    assert "footprint (mm^2)" in labels
    assert "total power (mW)" in labels
    text = format_table("cmp", ["a", "b"], rows)
    assert "(+0.0%)" in text  # identical designs


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "table2", "table3", "table4", "table5",
                    "fig2", "fig3", "fig6", "fig7", "fig8", "dvt",
                    "eco"}
        assert expected == set(REGISTRY)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_table1_fast_and_passes(self, process):
        res = run_experiment("table1", ExperimentOptions(process=process))
        assert res.all_passed
        assert "TSV" in res.table
        assert "PASS" in res.summary()

    def test_table4_passes(self, process):
        res = run_experiment("table1",
                             ExperimentOptions(process=process))
        assert res.experiment_id == "table1"
        assert all(c.measured for c in res.checks)
