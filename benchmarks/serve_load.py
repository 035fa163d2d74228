"""Concurrent-client load check for the experiment service (CI gate).

Starts an in-process broker, drives it with ``--clients`` threads all
submitting the *same* overlapping sweep, and verifies the service
contract under load:

* every client gets a complete, all-ok sweep back;
* every streamed result is byte-identical (canonical JSON) to a serial
  control run of the same point -- the result store, coalescing and
  supervised workers must never change the numbers;
* overlapping submissions are deduplicated: the coalescing hit rate
  ``(service.coalesced + service.result_hits) / service.points`` must
  be positive (with N identical sweeps, roughly ``(N-1)/N``).

Writes a JSON artifact (throughput, hit rate, p50/p99 per-point
latency, the ``service.*`` counter deltas) for the CI artifact trail.

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py \
        --clients 4 --quick --out serve_load.json

``--parallel`` means what it means for ``bench`` and ``serve``: the
default ``0`` runs points one at a time inside the broker's process,
``N > 1`` runs up to N at a time in supervised worker processes.
"""

import argparse
import json
import sys
import threading
import time

from repro.core.cache import DesignCache
from repro.obs.metrics import metrics
from repro.parallel.engine import run_sweep_point
from repro.service import Client, ServiceConfig, serve_background
from repro.service.schema import PointResult, PointSpec, SweepRequest
from repro.tech import make_process

QUICK_IDS = ("table1", "fig2", "fig6")
FULL_IDS = ("table1", "table2", "fig2", "fig6")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def drive_client(port, request, slot):
    """One client thread: submit, stream, record per-point latency."""
    latencies = []
    results = {}
    with Client(port=port, timeout=600.0) as client:
        t0 = time.perf_counter()
        rid = client.submit(request)
        for index, result in client.stream(rid):
            latencies.append(time.perf_counter() - t0)
            results[index] = result
    slot["latencies"] = latencies
    slot["results"] = results


def serial_control(points):
    """Ground truth: each unique point run serially in this process."""
    process = make_process()
    cache = DesignCache()
    control = {}
    for point in points:
        run = run_sweep_point(point, process=process, cache=cache)
        control[point] = PointResult.from_run(run, point,
                                              point.key(process))
    return control


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clients", type=int, default=4,
                    help="concurrent client threads (default 4)")
    ap.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="broker's concurrent points (0/1 = "
                         "in-process, N = supervised workers)")
    ap.add_argument("--quick", action="store_true",
                    help="small sweep at scale 0.4 (the CI smoke)")
    ap.add_argument("--ids", default=None,
                    help="comma-separated experiment ids (overrides "
                         "the quick/full presets)")
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated seeds; the sweep is the "
                         "cross product ids x seeds")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSON artifact here")
    args = ap.parse_args(argv)

    if args.ids is not None:
        ids = tuple(s for s in args.ids.split(",") if s)
    else:
        ids = QUICK_IDS if args.quick else FULL_IDS
    scale = args.scale if args.scale is not None else \
        (0.4 if args.quick else 0.7)
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    points = tuple(PointSpec(eid, scale, seed)
                   for seed in seeds for eid in ids)
    request = SweepRequest(points=points)

    print(f"serve_load: {args.clients} clients x {len(points)} points "
          f"({len(ids)} ids x {len(seeds)} seeds, scale {scale}), "
          f"parallel {args.parallel}")
    before = dict(metrics().snapshot()["counters"])
    config = ServiceConfig(port=0, parallel=args.parallel)
    slots = [{} for _ in range(args.clients)]
    t0 = time.perf_counter()
    with serve_background(config) as handle:
        threads = [threading.Thread(target=drive_client,
                                    args=(handle.port, request, slot))
                   for slot in slots]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall_s = time.perf_counter() - t0
    after = dict(metrics().snapshot()["counters"])
    deltas = {k: after.get(k, 0) - before.get(k, 0)
              for k in sorted(after)
              if k.startswith("service.")
              and after.get(k, 0) != before.get(k, 0)}

    failures = []
    latencies = []
    for i, slot in enumerate(slots):
        if "results" not in slot:
            failures.append(f"client {i} died without results")
            continue
        latencies.extend(slot["latencies"])
        if sorted(slot["results"]) != list(range(len(points))):
            failures.append(f"client {i} is missing point results")
            continue
        bad = [points[j].experiment_id
               for j, r in slot["results"].items() if not r.ok]
        if bad:
            failures.append(f"client {i} got failed points: {bad}")

    print("running the serial control ...")
    control = serial_control(points)
    mismatches = 0
    for slot in slots:
        for j, result in slot.get("results", {}).items():
            if result.canonical_json() != \
                    control[points[j]].canonical_json():
                mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} streamed results differ from "
                        f"the serial control")

    n_points = deltas.get("service.points", 0)
    saved = (deltas.get("service.coalesced", 0)
             + deltas.get("service.result_hits", 0))
    hit_rate = saved / n_points if n_points else 0.0
    if args.clients > 1 and hit_rate <= 0.0:
        failures.append("no coalescing under overlapping clients")

    done = args.clients * len(points)
    report = {
        "clients": args.clients,
        "parallel": args.parallel,
        "ids": list(ids),
        "scale": scale,
        "seeds": list(seeds),
        "points_per_client": len(points),
        "wall_s": wall_s,
        "throughput_points_per_s": done / wall_s if wall_s else 0.0,
        "coalescing_hit_rate": hit_rate,
        "latency_p50_s": percentile(latencies, 50) if latencies else None,
        "latency_p99_s": percentile(latencies, 99) if latencies else None,
        "counters": deltas,
        "byte_equal_vs_serial": mismatches == 0,
        "ok": not failures,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"artifact -> {args.out}")

    print(f"  wall {wall_s:.2f}s, "
          f"{report['throughput_points_per_s']:.1f} points/s, "
          f"hit rate {hit_rate:.0%}, "
          f"p50 {report['latency_p50_s']:.3f}s / "
          f"p99 {report['latency_p99_s']:.3f}s"
          if latencies else "  no latencies recorded")
    for key, value in deltas.items():
        print(f"  {key}: {value}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"serve_load OK: {done} results, one execution per unique "
          f"point, byte-equal to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
