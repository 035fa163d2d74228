"""End-to-end benchmark: time to regenerate the paper's artifacts, by layer.

Run from the repository root (no install needed; ``src`` is found from
this file's location)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] \
        [--seconds S] [--trace 0|1] [--out FILE]

Every pass runs in a fresh child interpreter (``workloads.py``) with
``REPRO_TRACE=0``.  Untraced passes repeat until ``--seconds`` have
elapsed (at least one) and give the end-to-end metrics; one traced pass,
with the wrappers of ``layers.py`` around each layer's public functions,
gives the per-layer metrics.  ``--trace 0`` reports only the end-to-end
metrics, ``--trace 1`` only the per-layer ones (after one untraced
reference pass); without ``--trace`` both are measured.  Without
``--workload`` every workload runs.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--out`` also writes
the full report that ``compare.py`` reads.  The exit code is 1 when any
experiment run failed: it raised, ended as a failed engine task,
produced output bytes that differ between passes, or -- at the golden
seed -- failed a shape check or the golden comparison.  It is 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "golden.json"

sys.path.insert(0, str(HERE))
from layers import LAYERS  # noqa: E402
from workloads import (COUNTERS, ENGINE_METRICS, WORKLOADS,  # noqa: E402
                       expected_runs)

#: set-up samples per run: every child reports one, probes fill the rest
SETUP_SAMPLES = 3
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0


def load_spec() -> Dict[str, Any]:
    """The benchmark definition, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait it out."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def child(workload: str, seed: int, mode: str, work_dir: str,
          cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one ``workloads.py`` child; its JSON, or ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--golden", str(GOLDEN), "--work-dir", work_dir]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(REPRO_TRACE="0", TMPDIR=work_dir,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else [])))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        return {"error": f"{mode} pass timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        _stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"{mode} pass exited {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


class Tally:
    """Experiment runs attempted and failed across a workload's children,
    and the output digests every pass must reproduce."""

    def __init__(self) -> None:
        self.attempted = 0
        #: ``<child label><child number>:<run key>`` -> why it failed
        self.failures: Dict[str, List[str]] = {}
        self.digests: Dict[str, str] = {}
        self.setups: List[float] = []
        #: paper claims that did not hold away from the golden seed
        self.claims: Dict[str, List[str]] = {}
        self._children = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, res: Dict[str, Any], runs: int) -> bool:
        """Account one child's result; False when the child failed."""
        self.attempted += runs
        self._children += 1
        tag = f"{label}{self._children}"
        if "setup_s" in res:
            self.setups.append(res["setup_s"])
        if "error" in res:
            # every run the child should have made failed with it (a
            # failed set-up probe, which makes none, counts as one)
            for i in range(max(runs, 1)):
                self.failures[f"{tag}:run{i}"] = [res["error"]]
            return False
        for key, why in res.get("failures", {}).items():
            self.failures.setdefault(f"{tag}:{key}", []).extend(why)
        for key, why in res.get("claims", {}).items():
            self.claims.setdefault(key, why)
        for key, d in res.get("digests", {}).items():
            if self.digests.setdefault(key, d) != d:
                self.failures.setdefault(f"{tag}:{key}", []).append(
                    "output differs from the first pass")
        return True


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, want_e2e: bool,
            want_layers: bool, work_dir: str) -> Dict[str, Any]:
    """Run one workload's children and reduce them to its metrics."""
    tally = Tally()
    cache_dir = None
    if workload == "sweep_warm":
        # the cache a cold sweep fills is this workload's input; the fill
        # is timed as the sweep workload's wall_s
        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=work_dir)
        tally.record("fill", child("sweep", seed, "pass", work_dir,
                                   cache_dir), expected_runs("sweep"))
    passes: List[Dict[str, Any]] = []
    t0 = time.monotonic()
    while True:
        res = child(workload, seed, "pass", work_dir, cache_dir)
        if not tally.record("pass", res, expected_runs(workload)):
            break
        passes.append(res)
        if not want_e2e or time.monotonic() - t0 >= seconds:
            break
    walls = [p["wall_s"] for p in passes]
    traced = None
    ref_wall = _median(walls)
    if want_layers and passes:
        if workload.startswith("sweep"):
            # the traced sweeps run serially in-process; so does their
            # untraced reference
            ref = child(workload, seed, "serial", work_dir, cache_dir)
            if tally.record("serial", ref, expected_runs(workload)):
                ref_wall = ref["wall_s"]
        traced = child(workload, seed, "traced", work_dir, cache_dir)
        if not tally.record("traced", traced, expected_runs(workload)):
            traced = None
    while want_e2e and passes and len(tally.setups) < SETUP_SAMPLES:
        tally.record("setup", child(workload, seed, "setup", work_dir), 0)

    out: Dict[str, Any] = {
        "seed": seed, "walls_s": walls,
        "setups_s": tally.setups, "digests": tally.digests,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "claims": tally.claims,
        "e2e": {}, "layers": {}}
    if not passes:
        return out
    engine = {name: _median([p["engine"].get(name, 0) for p in passes])
              for name in ENGINE_METRICS}
    if want_e2e:
        out["e2e"] = {"wall_s": _median(walls),
                      "setup_s": _median(tally.setups),
                      "peak_rss_mb": max(p["rss_mb"] for p in passes)}
    if traced is not None:
        lay = dict(traced["layers"])
        self_ms = sum(lay[f"{name}.self_ms"] for name in LAYERS)
        lay["unattributed_ms"] = traced["wall_s"] * 1e3 - self_ms
        lay.update({f"ctr.{k}": v for k, v in traced["counters"].items()})
        lay.update(engine)
        lay["bench.trace_overhead_frac"] = traced["wall_s"] / ref_wall - 1
        lay["bench.traced_wall_s"] = traced["wall_s"]
        lay["bench.claims_failed"] = sum(map(len, tally.claims.values()))
        out["layers"] = lay
    return out


def declared(spec: Dict[str, Any], values: Dict[str, float],
             group: str) -> Dict[str, Dict[str, Any]]:
    """``values`` for every metric ``spec[group]`` declares, with units."""
    missing = [m["name"] for m in spec[group] if m["name"] not in values]
    if missing:
        raise KeyError(f"{group} metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[group]}


def print_tables(name: str, res: Dict[str, Any],
                 spec: Dict[str, Any]) -> None:
    print(f"== {name} (seed {res['seed']}): {len(res['walls_s'])} "
          f"untraced pass(es), {res['attempted']} runs, "
          f"{res['failed']} failed")
    for m in spec["end_to_end"]:
        if m["name"] in res["e2e"]:
            print(f"  {m['name']:14s} {res['e2e'][m['name']]:12.4f} "
                  f"{m['unit']}")
    lay = res["layers"]
    if lay:
        print(f"  {'layer':20s} {'self_ms':>10s} {'calls':>8s}")
        for layer in LAYERS:
            print(f"  {layer:20s} {lay[f'{layer}.self_ms']:10.1f} "
                  f"{lay[f'{layer}.calls']:8.0f}")
        print(f"  {'(unattributed)':20s} {lay['unattributed_ms']:10.1f}")
        print(f"  traced wall {lay['bench.traced_wall_s']:.2f} s, "
              f"overhead {lay['bench.trace_overhead_frac']:+.1%}")
        for k in COUNTERS:
            print(f"  ctr.{k:34s} {lay[f'ctr.{k}']:10.0f}")
        if name.startswith("sweep"):
            for k in ENGINE_METRICS:
                print(f"  {k:38s} {lay[k]:10.3f}")
    for key, why in res["claims"].items():
        print(f"  claim not held (seed is not the golden seed) {key}: "
              f"{'; '.join(why)}")
    for key, why in res["failures"].items():
        print(f"  FAILED {key}: {'; '.join(why)}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="untraced measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only, 1: per-layer only "
                         "(default: both)")
    ap.add_argument("--out", type=Path, help="write the full report here")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing",
              file=sys.stderr)
        return 2

    want_e2e = args.trace != 1
    want_layers = args.trace != 0
    # a terminated run still stops its children (they run in sessions of
    # their own, out of reach of a signal to this process group)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = [args.workload] if args.workload else list(WORKLOADS)
    work_root = ROOT / ".e2e_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    want_e2e, want_layers, work_dir)
            print_tables(name, results[name], spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics: Dict[str, Dict[str, Any]] = {}
    if failed == 0:
        for name, res in results.items():
            prefix = "" if args.workload else f"{name}."
            found = {}
            if want_e2e:
                found.update(declared(spec, res["e2e"], "end_to_end"))
            if want_layers:
                found.update(declared(spec, res["layers"], "per_layer"))
            metrics.update({prefix + k: v for k, v in found.items()})
    if args.out:
        args.out.write_text(json.dumps({
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "seed": args.seed,
            "seconds": args.seconds, "workloads": results},
            indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
