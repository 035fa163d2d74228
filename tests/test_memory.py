"""The cyclic collector around a run: the flow makes no reference
cycles, ``run_experiment`` pauses the collector and gives back its
prior state, and a run leaves no young-generation backlog behind.  The
same runs show that no run repeats a block flow."""

import gc

import pytest

from repro.analysis.experiments import (REGISTRY, Experiment,
                                        ExperimentOptions, run_experiment)
from repro.core import flow
from repro.memory import collector_paused


@pytest.fixture()
def collector_off():
    """The collector off for the test body, back on afterwards."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def run_once(process):
    """``run_once(eid)`` runs one registered experiment at scale 0.2
    with no cache given, once per module, with the collector off around
    the run and every ``run_flow_on`` call recorded; it returns what a
    collection found right after the run and the ``(block,
    FlowConfig)`` of every flow the run ran."""
    done = {}

    def run(eid):
        if eid not in done:
            flows = []
            real = flow.run_flow_on

            def spy(gb, config, proc):
                flows.append((gb.block_type.name, config))
                return real(gb, config, proc)

            gc.collect()
            gc.disable()
            try:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(flow, "run_flow_on", spy)
                    run_experiment(eid, ExperimentOptions(
                        process=process, scale=0.2, seed=1))
                done[eid] = (gc.collect(), flows)
            finally:
                gc.enable()
        return done[eid]

    return run


@pytest.mark.parametrize("eid", list(REGISTRY))
def test_every_experiment_run_is_cycle_free(eid, run_once):
    """With the collector off around the run, nothing the run dropped
    may be left for a collection to find: a reference cycle (a nested
    function that calls itself, say) would hold its memory until the
    next full collection, since runs pause the collector."""
    found, _ = run_once(eid)
    assert found == 0


@pytest.mark.parametrize("eid", list(REGISTRY))
def test_no_experiment_run_repeats_a_flow(eid, run_once):
    """Every run has one design cache, even when its options carry
    none: a design the run already built is never built again."""
    _, flows = run_once(eid)
    repeated = [f for f in set(flows) if flows.count(f) > 1]
    assert not repeated, \
        f"{len(flows)} flows for {len(set(flows))} distinct designs"


def test_run_leaves_no_generation0_backlog(process, collector_off):
    """Everything a run leaves alive is promoted to the oldest
    generation unwalked; left young (over 3,000 objects for fig7 at
    this scale), it would be walked by the first collections after the
    run, in the caller's time."""
    run_experiment("fig7", ExperimentOptions(process=process, scale=0.3,
                                             seed=1))
    assert len(gc.get_objects(generation=0)) < 100


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_restores_the_collectors_prior_state(enabled, raises, process,
                                                 monkeypatch):
    seen = []

    def runner(opts):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("runner failed")

    monkeypatch.setitem(REGISTRY, "probe",
                        Experiment(id="probe", description="probe",
                                   fn=runner))
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="runner failed"):
                run_experiment("probe", ExperimentOptions(process=process))
        else:
            run_experiment("probe", ExperimentOptions(process=process))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def test_nested_pauses_compose():
    assert gc.isenabled()
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        # the inner scope found the collector off and leaves it off
        assert not gc.isenabled()
    assert gc.isenabled()


def test_objects_the_caller_froze_stay_frozen():
    """The promotion at scope end unfreezes the permanent generation,
    so it is skipped when the caller froze objects of its own."""
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with collector_paused():
            junk = [[] for _ in range(10)]
        assert gc.get_freeze_count() == frozen
        del junk
    finally:
        gc.unfreeze()
