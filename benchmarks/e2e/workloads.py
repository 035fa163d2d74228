"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this file as a child process per pass, so every pass
pays its own imports and no pass inherits another's heap::

    python benchmarks/e2e/workloads.py --workload fullchip --seed 1 \
        --mode pass --golden tests/golden/golden.json

``--mode`` is ``setup`` (imports and ``make_process()`` only), ``pass``
(the workload untraced), ``traced`` (the workload with the layer
wrappers of ``layers.py`` installed; the sweeps run serially in-process
so the wrappers see the flows) or ``serial`` (untraced, executed as
``traced`` is: the reference for the tracing overhead of the sweeps).
The child prints one JSON object as its last line of standard output.

Each workload derives every input from ``--seed``:

* ``fullchip``: ``table5`` at scale 1 -- the paper's headline artifact
  and the only workload that runs chip assembly; at the golden seed its
  numbers are also held against ``tests/golden/golden.json``.
* ``bonding``: ``fig7`` at scale 2 -- eleven flows of one block across
  five partitions x F2B/F2F, the 3D-via path.
* ``eco``: the ``eco`` experiment at scale 4 for seeds ``s`` and
  ``s+1`` -- incremental timing and rerouting used for writes.
* ``sweep``: ``fig2``, ``table3`` and ``table4`` at scale 2 on the
  parallel engine (2 workers) against an empty disk cache.
* ``sweep_warm``: the same request against the cache a ``sweep`` pass
  filled (``--cache-dir``): worker start-up and cache loads, almost no
  flow work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional

WORKLOADS = ("fullchip", "bonding", "eco", "sweep", "sweep_warm")
SWEEP_IDS = ("fig2", "table3", "table4")
SWEEP_SCALE = 2.0
SWEEP_WORKERS = 2

#: the counters the traced pass reports, as ``ctr.<name>``
COUNTERS = ("sta.scalar_fallbacks", "sta.full_rebuilds",
            "sta.topology_patches", "opt.full_reroutes",
            "route.nets_rerouted", "route.nets_reextracted",
            "route.nets_extracted_batch", "place.qp_solves",
            "eco.moves_applied")
#: what the sweeps report from the engine's ``BenchReport``
ENGINE_METRICS = ("parallel.busy_s", "parallel.utilization",
                  "cache.disk_hits", "cache.misses", "cache.stores",
                  "tasks.retried", "tasks.failed")


def setup():
    """Import the program and build the process node; the set-up cost."""
    t0 = time.perf_counter()
    import repro.analysis.experiments  # noqa: F401
    import repro.analysis.golden  # noqa: F401
    import repro.parallel.engine  # noqa: F401
    from repro.tech import make_process
    process = make_process()
    return process, time.perf_counter() - t0


def digest(result: Dict[str, Any]) -> str:
    """sha256 of a result's ``experiment_json`` bytes."""
    text = json.dumps(result, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """What one pass produced, by run key: results, failures and the
    paper claims that did not hold; plus the engine's report for the
    sweeps.

    The paper's claims are pinned at the golden seed only, so a shape
    check failing there fails the run; at any other seed it is a finding
    about the model (``claims``), not a failure of the program.
    """

    def __init__(self) -> None:
        self.results: Dict[str, Dict[str, Any]] = {}
        self.failures: Dict[str, List[str]] = {}
        self.claims: Dict[str, List[str]] = {}
        self.engine: Dict[str, float] = {}

    def fail(self, key: str, why: str) -> None:
        self.failures.setdefault(key, []).append(why)

    def add(self, key: str, result: Dict[str, Any], seed: int) -> None:
        from repro.analysis.golden import GOLDEN_SEED
        self.results[key] = result
        for check in result["checks"]:
            if check["passed"]:
                continue
            why = (f"shape check failed: {check['name']} "
                   f"(measured {check['measured']})")
            if seed == GOLDEN_SEED:
                self.fail(key, why)
            else:
                self.claims.setdefault(key, []).append(why)


def _experiment(p: Pass, key: str, eid: str, scale: float, seed: int,
                process) -> None:
    from repro.analysis.experiments import (ExperimentOptions,
                                            result_to_dict, run_experiment)
    result = run_experiment(eid, ExperimentOptions(
        process=process, scale=scale, seed=seed))
    p.add(key, result_to_dict(result), seed)


def _sweep(p: Pass, seed: int, cache_dir: str, parallel: int,
           process) -> None:
    from repro.parallel.engine import run_sweep
    from repro.service.schema import SweepRequest
    report = run_sweep(SweepRequest.from_ids(SWEEP_IDS, scale=SWEEP_SCALE,
                                             seed=seed),
                       parallel=parallel, cache_dir=cache_dir,
                       process=process)
    for run in report.runs:
        if run.status != "ok":
            p.fail(run.experiment_id,
                   f"engine task {run.status}: {run.error}")
        else:
            p.add(run.experiment_id, run.result, seed)
    busy = sum(run.wall_s for run in report.runs)
    cache = report.cache_stats or {}
    counters = (report.metrics or {}).get("counters", {})
    p.engine = {
        "parallel.busy_s": busy,
        "parallel.utilization": busy / (SWEEP_WORKERS * report.total_wall_s),
        "cache.disk_hits": cache.get("disk_hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.stores": cache.get("stores", 0),
        "tasks.retried": counters.get("tasks.retried", 0),
        "tasks.failed": counters.get("tasks.failed", 0),
    }


def expected_runs(workload: str) -> int:
    """Experiment runs one pass of ``workload`` attempts."""
    return {"eco": 2, "sweep": len(SWEEP_IDS),
            "sweep_warm": len(SWEEP_IDS)}.get(workload, 1)


def run_workload(workload: str, seed: int, process, serial: bool,
                 cache_dir: Optional[str], work_dir: str) -> Pass:
    """Run one pass of ``workload``; the timed region of the benchmark.

    ``serial`` runs the sweeps in-process instead of on the engine's
    workers; the other workloads always run in-process.
    """
    p = Pass()
    workers = 0 if serial else SWEEP_WORKERS
    if workload == "fullchip":
        _experiment(p, "table5", "table5", 1.0, seed, process)
    elif workload == "bonding":
        _experiment(p, "fig7", "fig7", 2.0, seed, process)
    elif workload == "eco":
        for s in (seed, seed + 1):
            _experiment(p, f"eco@{s}", "eco", 4.0, s, process)
    elif workload == "sweep":
        own = cache_dir is None
        cache_dir = cache_dir or tempfile.mkdtemp(prefix="cache-",
                                                  dir=work_dir)
        try:
            _sweep(p, seed, cache_dir, workers, process)
        finally:
            if own:
                shutil.rmtree(cache_dir, ignore_errors=True)
    elif workload == "sweep_warm":
        if cache_dir is None:
            raise ValueError("sweep_warm needs the --cache-dir a sweep "
                             "pass filled")
        _sweep(p, seed, cache_dir, workers, process)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return p


def golden_failures(result: Dict[str, Any], golden_path: Path) -> List[str]:
    """Mismatches of a ``table5`` result against the golden fixture."""
    from repro.analysis.golden import (compare_to_golden, golden_metrics,
                                       load_golden)
    if not golden_path.is_file():
        return [f"golden fixture {golden_path} is missing"]
    golden = load_golden(golden_path)
    measured = golden_metrics({"table5": result})
    frozen = {k: v for k, v in golden["metrics"].items() if k in measured}
    return [f"golden mismatch: {problem}" for problem in
            compare_to_golden(measured, {**golden, "metrics": frozen})]


def main(argv: Optional[List[str]] = None) -> Dict[str, Any]:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "pass", "serial", "traced"))
    ap.add_argument("--golden", required=True, type=Path)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--cache-dir")
    args = ap.parse_args(argv)

    process, setup_s = setup()
    out: Dict[str, Any] = {"setup_s": setup_s}
    if args.mode == "setup":
        return out

    from repro.analysis.golden import GOLDEN_SEED
    from repro.obs.metrics import metrics
    from layers import LayerClock, installed
    clock = LayerClock()
    before = metrics().snapshot()
    with ExitStack() as stack:
        if args.mode == "traced":
            stack.enter_context(installed(clock))
        t0 = time.perf_counter()
        p = run_workload(args.workload, args.seed, process,
                         args.mode != "pass", args.cache_dir, args.work_dir)
        wall_s = time.perf_counter() - t0
    if args.mode == "traced":
        counters = metrics().diff(before)["counters"]
        out["layers"] = clock.metrics()
        out["counters"] = {name: counters.get(name, 0) for name in COUNTERS}
    if (args.workload == "fullchip" and args.seed == GOLDEN_SEED
            and "table5" in p.results):
        for why in golden_failures(p.results["table5"], args.golden):
            p.fail("table5", why)
    out.update({
        "wall_s": wall_s,
        # ru_maxrss is in kilobytes on Linux
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": {key: digest(r) for key, r in p.results.items()},
        "failures": p.failures,
        "claims": p.claims,
        "engine": p.engine,
    })
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main()) + "\n")
