"""Tests of the end-to-end benchmark harness (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
from repro.analysis.experiments import (ExperimentOptions,  # noqa: E402
                                        experiment_json, run_experiment)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: tiny experiments that still reach most layers
TINY = (("fig2", 0.3), ("eco", 0.5))


def _run(eid, scale):
    return experiment_json(run_experiment(eid, ExperimentOptions(
        scale=scale, seed=1, trace=False)))


def test_every_target_binds_and_is_restored():
    from repro.core import folding
    from repro.place import partition
    originals = {spec: layers._resolve(spec)[2]
                 for specs in layers.LAYERS.values() for spec in specs}
    fm = partition.fm_bipartition
    with layers.installed(layers.LayerClock()) as n:
        assert n >= len(originals)
        for spec, raw in originals.items():
            now = layers._resolve(spec)[2]
            assert now is not raw, spec
            assert type(now) is type(raw), spec  # classmethod stays one
        # a call site that imported the name is rebound too
        assert folding.fm_bipartition is partition.fm_bipartition is not fm
    assert folding.fm_bipartition is fm
    for spec, raw in originals.items():
        assert layers._resolve(spec)[2] is raw, spec


@pytest.mark.parametrize("bad", ["repro.place.partition:no_such_function",
                                 "repro.no_such_module:f",
                                 "repro.obs.names:CTR_PLACE_QP_SOLVES"])
def test_install_fails_loudly_on_a_bad_target(monkeypatch, bad):
    from repro.place import partition
    fm = partition.fm_bipartition
    monkeypatch.setitem(layers.LAYERS, "bogus", (bad,))
    with pytest.raises(layers.LayerBindError):
        with layers.installed(layers.LayerClock()):
            pass
    assert partition.fm_bipartition is fm


@pytest.mark.parametrize("eid,scale", TINY)
def test_self_times_add_up_and_outputs_are_unchanged(eid, scale):
    plain = _run(eid, scale)
    clock = layers.LayerClock()
    with layers.installed(clock):
        t0 = time.perf_counter()
        wrapped = _run(eid, scale)
        wall_ms = (time.perf_counter() - t0) * 1e3
    assert wrapped == plain
    self_ms = sum(clock.self_s.values()) * 1e3
    assert abs(wall_ms - self_ms) <= 0.05 * wall_ms
    assert clock.calls["flow"] > 0 and clock.calls["timing"] > 0


def test_benchmark_json_meets_the_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][1] == "benchmarks/e2e/run.py"


def test_report_names_every_declared_metric(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eco",
         "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    declared = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    report = json.loads(out.read_text())["workloads"]["eco"]
    assert set(report["digests"]) == {"eco@1", "eco@2"}
    assert report["e2e"]["wall_s"] > 0 and report["e2e"]["setup_s"] > 0
    wall_ms = report["layers"]["bench.traced_wall_s"] * 1e3
    assert report["layers"]["unattributed_ms"] <= 0.05 * wall_ms


def test_tally_counts_every_failed_run():
    import run
    ok = {"setup_s": 0.4, "failures": {}, "claims": {}, "digests": {"a": "1"}}
    tally = run.Tally()
    assert tally.record("pass", ok, 1)
    assert tally.record("pass", dict(ok, digests={"a": "2"}), 1)
    assert tally.record("pass", dict(ok, failures={"a": ["raised"]}), 1)
    assert not tally.record("pass", {"error": "exited 1"}, 3)
    assert not tally.record("setup", {"error": "exited 1"}, 0)
    assert (tally.attempted, tally.failed) == (6, 6)
    assert tally.setups == [0.4] * 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:],
                           "--workload", "eco", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(values):
    return {"workloads": {"eco": {"e2e": values}}}


def _verdicts(a, b, metric="wall_s"):
    rows = compare.compare([_report({metric: x}) for x in a],
                           [_report({metric: y}) for y in b], SPEC)
    return {r.metric: r.verdict for r in rows}[metric]


def test_compare_verdicts_on_synthetic_inputs():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_s"]
    steady = [10.0 + 0.01 * i for i in range(10)]
    assert _verdicts(steady, [x * 0.8 for x in steady]) == "better"
    assert _verdicts(steady, [x * (1 + 2 * bound) for x in steady]) \
        == "worse"
    assert _verdicts(steady, list(reversed(steady))) == "unchanged"
    # a 20% gain seen in fewer than ten pairs is not claimable
    assert _verdicts(steady[:5], [x * 0.8 for x in steady[:5]]) \
        == "unchanged"
    # the parent's own spread is wider than the bound
    noisy = [10.0 * (1 + 4 * bound * (i % 2)) for i in range(10)]
    assert _verdicts(noisy, list(reversed(noisy))) == "unresolved"
    # ... unless every run of the change reads better
    assert _verdicts(noisy, [9.9] * 10) == "unchanged"
    assert _verdicts(noisy, [1.0] * 10) == "better"
    # a win in 8 of 10 pairs is not enough
    mixed = [x * 0.8 for x in steady[:8]] + [x * 1.01 for x in steady[8:]]
    assert _verdicts(steady, mixed) == "unchanged"


def test_compare_exit_code(tmp_path):
    paths = []
    for side, scale in (("a", 1.0), ("b", 1.5)):
        p = tmp_path / f"{side}.json"
        p.write_text(json.dumps(_report({"wall_s": 10.0 * scale})))
        paths.append(str(p))
    assert compare.main([paths[0], "--", paths[0]]) == 0
    assert compare.main([paths[0], "--", paths[1]]) == 1
    assert compare.main([paths[0], paths[1]]) == 2
