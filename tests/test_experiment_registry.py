"""Tests for the decorator-based experiment registry and its options."""

import pytest

from repro.analysis.experiments import (REGISTRY, Experiment,
                                        ExperimentOptions,
                                        UnknownExperimentError,
                                        experiment, run_experiment)
from repro.obs import trace
from repro.obs.trace import Tracer

ALL_IDS = {"table1", "table2", "table3", "table4", "table5",
           "fig2", "fig3", "fig6", "fig7", "fig8", "dvt", "eco"}


class TestRegistry:
    def test_every_id_registered_with_callable_runner(self):
        assert set(REGISTRY) == ALL_IDS
        for exp in REGISTRY.values():
            assert isinstance(exp, Experiment)
            assert callable(exp.fn)
            assert exp.description

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @experiment("table1", "again")
            def _again(opts):
                raise AssertionError("never runs")

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(UnknownExperimentError) as exc:
            run_experiment("table99")
        assert "table99" in str(exc.value)
        assert "fig2" in str(exc.value)

    def test_unknown_id_is_a_keyerror(self):
        with pytest.raises(KeyError):
            run_experiment("nope")


class TestDispatch:
    def test_options_object_drives_the_run(self, process):
        res = run_experiment("table1", ExperimentOptions(process=process))
        assert res.experiment_id == "table1"
        assert res.all_passed

    def test_run_records_an_experiment_span(self, process):
        t = Tracer()
        with trace.use_tracer(t):
            run_experiment("table1", ExperimentOptions(process=process))
        exp_spans = [s for s in t.spans if s.name == "experiment"]
        assert len(exp_spans) == 1
        assert exp_spans[0].attrs["id"] == "table1"
        assert exp_spans[0].attrs["seed"] == 1

    def test_trace_false_suppresses_recording(self, process):
        t = Tracer()
        with trace.use_tracer(t):
            run_experiment("table1", ExperimentOptions(
                process=process, trace=False))
        assert t.spans == []

    def test_resolved_process_defaults(self, process):
        assert ExperimentOptions().resolved_process() is not None
        assert ExperimentOptions(
            process=process).resolved_process() is process

