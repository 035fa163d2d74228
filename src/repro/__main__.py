"""Command-line interface: ``python -m repro``.

Subcommands:

* ``experiments``               -- list every paper table/figure runner;
* ``run <id> [--scale S]``      -- regenerate one artifact and print it;
* ``bench [--parallel N] [--cache-dir D] [--trace-out T]`` -- run the
  whole experiment set, optionally fanned across worker processes with
  a persistent design cache, exporting the merged span/metrics trace;
* ``chaos [--seed N] [--plan SPECS] [--parallel N]`` -- run the bench
  under a deterministic fault plan and check it degrades cleanly
  (``--serve`` chaos-tests the broker instead: a fault plan kills a
  shard mid-sweep and the survivors must finish it);
* ``serve [--port P] [--shards N] [--cache-dir D]`` -- run the
  experiment broker (streaming sweep service; see docs/service.md);
* ``submit [--ids ...] [--port P]`` -- send one sweep to a running
  broker and stream its results back;
* ``trace summarize <file>``    -- roll a trace file up per span name;
* ``block <name> [options]``    -- design one T2 block (optionally folded);
* ``chip <style> [options]``    -- build a full chip in one design style;
* ``lint <block|style>``        -- run the static design checker;
* ``analyze [paths...]``        -- run the static *code* analyzer
  (determinism / concurrency / flow-contract / observability rules)
  over the repo's own source, or maintain the generated span/metric
  name registry (``--write-names`` / ``--check-names``).

The data-producing subcommands share their flag vocabulary: ``--scale``,
``--seed``, ``--cache-dir``, ``--json-out`` and ``--trace-out`` mean the
same thing wherever they appear -- and under the hood they share their
*request surface* too: ``run``, ``bench``, ``chaos``, ``serve`` and
``submit`` all build the frozen :class:`repro.service.schema.PointSpec`
/ :class:`~repro.service.schema.SweepRequest` objects instead of
threading ad-hoc flags into engine kwargs.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_experiments(_args) -> int:
    from .analysis.experiments import REGISTRY
    for eid, exp in REGISTRY.items():
        print(f"{eid:8s} {exp.description}")
    return 0


def _cmd_run(args) -> int:
    from .analysis.experiments import (UnknownExperimentError,
                                       run_experiment)
    from .service.schema import PointSpec
    cache = None
    if args.cache_dir:
        from .core.cache import DesignCache
        cache = DesignCache(cache_dir=args.cache_dir)
    point = PointSpec(experiment_id=args.id, scale=args.scale,
                      seed=args.seed)
    t0 = time.time()
    try:
        result = run_experiment(point.experiment_id,
                                point.to_options(cache=cache))
    except UnknownExperimentError as exc:
        print(f"{exc.args[0]}; see 'python -m repro experiments'",
              file=sys.stderr)
        return 2
    print(result.summary())
    print(f"\n({time.time() - t0:.1f}s, scale {args.scale})")
    if args.trace_out:
        from .obs import trace
        from .obs.export import write_trace
        from .obs.metrics import metrics
        write_trace(args.trace_out, trace.get_tracer().spans,
                    metrics=metrics().snapshot(),
                    meta={"experiment": args.id, "scale": args.scale,
                          "seed": args.seed})
        print(f"wrote {args.trace_out}")
    return 0 if result.all_passed else 1


def _cmd_bench(args) -> int:
    from .parallel.engine import run_sweep
    from .service.schema import SweepRequest
    ids = [i.strip() for i in args.ids.split(",") if i.strip()] \
        if args.ids else None
    try:
        request = SweepRequest.from_ids(
            ids, scale=args.scale, seed=args.seed,
            timeout_s=args.timeout or None, retries=args.retries)
        report = run_sweep(request, parallel=args.parallel,
                           cache_dir=args.cache_dir)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.summary())
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(report.results_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.timing_out:
        with open(args.timing_out, "w") as f:
            f.write(report.timing_json() + "\n")
        print(f"wrote {args.timing_out}")
    if args.trace_out:
        report.write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")
    if not report.completed():
        failed = ", ".join(r.experiment_id for r in report.failed_runs())
        print(f"bench degraded: no result for {failed}",
              file=sys.stderr)
        return 1
    if args.write_golden:
        from .analysis.golden import (GOLDEN_IDS, golden_metrics,
                                      save_golden)
        results = report.results_dict()
        missing = [i for i in GOLDEN_IDS if i not in results]
        if missing:
            print(f"cannot write golden file: missing experiments "
                  f"{', '.join(missing)} (run with --ids "
                  f"{','.join(GOLDEN_IDS)})", file=sys.stderr)
            return 2
        if args.scale != 1.0:
            print("cannot write golden file: golden values are frozen "
                  "at scale 1.0", file=sys.stderr)
            return 2
        save_golden(args.write_golden, golden_metrics(results))
        print(f"wrote {args.write_golden}")
    return 0 if report.all_passed else 1


def _cmd_chaos(args) -> int:
    """Run the bench under an active fault plan and check that it
    degrades cleanly: the report always comes back, every injection is
    observable, and a ``--no-faults`` control run stays byte-identical
    to a plain bench.  With ``--serve`` the same idea targets the
    service broker: the plan kills worker shards mid-sweep and the
    surviving shards must still complete it."""
    import json

    from .faults import FaultPlan, FaultPlanError, installed
    from .parallel.engine import run_sweep
    from .service.schema import SweepRequest

    ids = [i.strip() for i in args.ids.split(",") if i.strip()]
    if args.no_faults:
        plan = None
    elif args.plan:
        try:
            plan = FaultPlan.parse(args.plan, seed=args.seed)
        except FaultPlanError as exc:
            print(f"bad --plan: {exc}", file=sys.stderr)
            return 2
    elif args.serve:
        # the default broker chaos: assassinate the first shard the
        # moment it claims work -- work-stealing must absorb it
        plan = FaultPlan.parse("raise task=shard-0 stage=service.shard",
                               seed=args.seed)
    else:
        plan = FaultPlan.seeded(args.seed, tasks=ids)
    if plan is not None:
        print(f"fault plan (seed {args.seed}): {plan.to_text()}")
    else:
        print("fault plan: none (control run)")

    if args.serve:
        return _chaos_serve(args, plan)

    # install the resolved plan (or explicitly nothing) so the run is
    # deterministic even with a stray REPRO_FAULTS in the environment
    with installed(plan):
        try:
            request = SweepRequest.from_ids(
                ids, scale=args.scale, seed=args.seed,
                timeout_s=args.timeout or None, retries=args.retries)
            report = run_sweep(request, parallel=args.parallel,
                               cache_dir=args.cache_dir,
                               fault_plan=plan)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    print()
    print(report.summary())
    counters = (report.metrics or {}).get("counters", {})
    chaos_counters = {k: v for k, v in sorted(counters.items())
                      if k.startswith(("faults.", "tasks."))
                      or k == "cache.corrupt_drops"}
    injected = int(counters.get("faults.injected", 0))
    if chaos_counters:
        print()
        for name, value in chaos_counters.items():
            print(f"{name}: {value:.0f}")

    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(report.results_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.report_out:
        chaos_report = {
            "seed": args.seed,
            "plan": plan.to_text() if plan is not None else None,
            "parallel": report.parallel,
            "scale": args.scale,
            "faults_injected": injected,
            "counters": chaos_counters,
            "completed": report.completed(),
            "runs": [{"id": r.experiment_id, "status": r.status,
                      "attempts": r.attempts,
                      **({"error": r.error} if r.error else {})}
                     for r in report.runs],
        }
        with open(args.report_out, "w") as f:
            json.dump(chaos_report, f, sort_keys=True, indent=2)
            f.write("\n")
        print(f"wrote {args.report_out}")
    if args.trace_out:
        report.write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")

    # a killed or crashed worker cannot ship its injection records, so
    # resilience events count as evidence the plan fired too
    events = injected + sum(
        v for k, v in counters.items()
        if k in ("tasks.retried", "tasks.timed_out", "tasks.crashed",
                 "tasks.failed"))
    if plan is not None and events == 0:
        print("chaos run injected no faults: the plan never matched "
              "(check task/stage patterns)", file=sys.stderr)
        return 1
    degraded = report.failed_runs()
    if degraded:
        print(f"\ndegraded cleanly: {len(degraded)} of "
              f"{len(report.runs)} experiments without a result")
    elif plan is not None:
        print(f"\nrecovered fully: {injected} fault(s) injected, "
              "every experiment produced a result")
    return 0


def _chaos_serve(args, plan) -> int:
    """Chaos-test the service broker: run a sweep through an
    in-process broker while the fault plan kills shards, and require
    the surviving shards to complete every point."""
    import json

    from .service.broker import ServiceConfig, serve_background
    from .service.client import Client, ServiceError
    from .service.schema import SweepRequest

    ids = [i.strip() for i in args.ids.split(",") if i.strip()]
    request = SweepRequest.from_ids(
        ids, scale=args.scale, seed=args.seed,
        timeout_s=args.timeout or None, retries=args.retries)
    config = ServiceConfig(port=0, shards=args.shards,
                           shard_mode="inline",
                           cache_dir=args.cache_dir)
    handle = serve_background(config, fault_plan=plan)
    try:
        with Client(port=handle.port) as client:
            results = client.collect(request)
            stats = client.stats()
    except ServiceError as exc:
        print(f"broker sweep failed: {exc}", file=sys.stderr)
        return 1
    finally:
        handle.stop()

    counters = stats["counters"]
    deaths = int(counters.get("service.shard_deaths", 0))
    alive = [s for s in stats["shards"] if s["alive"]]
    completed = [r for r in results if r.status == "ok"]
    print(f"\n{len(completed)}/{len(results)} points completed; "
          f"{deaths} shard(s) killed, "
          f"{len(alive)}/{len(stats['shards'])} still alive")
    for name, value in sorted(counters.items()):
        print(f"{name}: {value:.0f}")
    if args.report_out:
        chaos_report = {
            "seed": args.seed,
            "plan": plan.to_text() if plan is not None else None,
            "shards": stats["shards"],
            "shard_deaths": deaths,
            "counters": counters,
            "completed": len(completed) == len(results),
            "runs": [{"id": r.point.experiment_id, "status": r.status,
                      "source": r.source,
                      **({"error": r.error} if r.error else {})}
                     for r in results],
        }
        with open(args.report_out, "w") as f:
            json.dump(chaos_report, f, sort_keys=True, indent=2)
            f.write("\n")
        print(f"wrote {args.report_out}")
    if plan is not None and deaths == 0:
        print("serve chaos run killed no shard: the plan never "
              "matched (check task=shard-<i> stage=service.shard)",
              file=sys.stderr)
        return 1
    if len(completed) != len(results):
        failed = ", ".join(r.point.experiment_id for r in results
                           if r.status != "ok")
        print(f"sweep did not survive the shard kill: no result for "
              f"{failed}", file=sys.stderr)
        return 1
    print("\nsweep survived: every point completed on the "
          "surviving shards")
    return 0


def _cmd_serve(args) -> int:
    from .service.broker import ServiceConfig, serve
    config = ServiceConfig(host=args.host, port=args.port,
                           socket_path=args.socket,
                           shards=args.shards,
                           cache_dir=args.cache_dir,
                           shard_mode=args.shard_mode,
                           timeout_s=args.timeout or None,
                           retries=args.retries)
    try:
        serve(config)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    import json

    from .service.client import Client, ServiceError
    from .service.schema import SweepRequest

    ids = [i.strip() for i in args.ids.split(",") if i.strip()] \
        if args.ids else None
    request = SweepRequest.from_ids(
        ids, scale=args.scale, seed=args.seed,
        timeout_s=args.timeout or None, retries=args.retries)
    collected = {}
    try:
        with Client(host=args.host, port=args.port,
                    socket_path=args.socket) as client:
            rid = client.submit(request)
            print(f"request {rid} accepted "
                  f"({len(request.points)} points)")
            for index, result in client.stream(rid):
                collected[index] = result
                if result.status != "ok":
                    mark = result.status.upper()
                elif result.all_passed:
                    mark = "PASS"
                else:
                    mark = "FAIL"
                print(f"  [{len(collected)}/{len(request.points)}] "
                      f"{result.point.experiment_id:8s} {mark:>7s} "
                      f"{result.wall_s:7.2f}s ({result.source})")
    except (ServiceError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        # same id-keyed shape as `bench --json-out`: byte-comparable
        results = {r.point.experiment_id: r.result
                   for r in collected.values() if r.status == "ok"}
        with open(args.json_out, "w") as f:
            f.write(json.dumps(results, sort_keys=True, indent=2)
                    + "\n")
        print(f"wrote {args.json_out}")
    failed = [r for r in collected.values() if r.status != "ok"]
    if failed:
        names = ", ".join(r.point.experiment_id for r in failed)
        print(f"sweep degraded: no result for {names}",
              file=sys.stderr)
        return 1
    return 0 if all(r.all_passed for r in collected.values()) else 1


def _cmd_trace(args) -> int:
    from .obs.export import format_summary, read_trace, summarize_spans
    from .obs.metrics import format_snapshot
    try:
        tf = read_trace(args.file)
    except FileNotFoundError:
        print(f"no such trace file: {args.file}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"unreadable trace file {args.file}: {exc}",
              file=sys.stderr)
        return 2
    if tf.meta:
        keys = ", ".join(f"{k}={tf.meta[k]}" for k in sorted(tf.meta))
        print(f"meta: {keys}")
    print(f"{len(tf.spans)} spans")
    if tf.spans:
        print()
        print(format_summary(summarize_spans(tf.spans)))
    if args.metrics and tf.metrics is not None:
        print()
        print(format_snapshot(tf.metrics))
    return 0


def _cmd_block(args) -> int:
    from .analysis.report import design_metric_rows, format_table
    from .core import FlowConfig, FoldSpec, run_block_flow
    from .tech import make_process
    fold = None
    if args.fold:
        fold = FoldSpec(mode=args.fold_mode)
    config = FlowConfig(scale=args.scale, seed=args.seed, fold=fold,
                        bonding=args.bonding, dual_vth=args.dual_vth)
    design = run_block_flow(args.name, config, make_process())
    print(format_table(f"block {args.name}", ["design"],
                       design_metric_rows([design])))
    print(f"\nworst slack: {design.sta.wns_ps:+.0f} ps")
    return 0


def _cmd_eco(args) -> int:
    from .analysis.report import design_metric_rows, format_table
    from .core import FlowConfig, FoldSpec, run_block_flow
    from .eco import EcoConfig
    from .eco.driver import derive_design
    from .tech import make_process
    fold = FoldSpec(mode=args.fold_mode) if args.fold else None
    eco = EcoConfig(target_wns_ps=args.target_wns,
                    max_rounds=args.max_rounds,
                    full_recompute=args.full_recompute)
    process = make_process()
    base_cfg = FlowConfig(scale=args.scale, seed=args.seed, fold=fold,
                          bonding=args.bonding,
                          io_budget_ps=args.io_budget)
    base = run_block_flow(args.name, base_cfg, process)
    if args.derive_io_budget is None and not args.derive_dual_vth:
        # close timing on the base scenario itself
        from dataclasses import replace
        cfg = replace(base_cfg, eco=eco)
        design = run_block_flow(args.name, cfg, process)
        report = design.eco_report
    else:
        from dataclasses import replace
        neighbor = replace(
            base_cfg,
            io_budget_ps=(args.derive_io_budget
                          if args.derive_io_budget is not None
                          else args.io_budget),
            dual_vth=args.derive_dual_vth, eco=eco)
        design, report = derive_design(base, neighbor, process)
    print(format_table(f"eco {args.name}", ["base", "after ECO"],
                       design_metric_rows([base, design])))
    print(f"\nclosure: {report.status} after {len(report.rounds)} "
          f"round(s), {report.moves_applied} move(s) applied")
    print(f"worst slack: {report.wns_ps:+.1f} ps "
          f"(target {report.target_wns_ps:+.1f} ps)")
    stats = report.session_stats
    if stats:
        print(f"reuse: {stats.get('nets_rerouted', 0)} nets rerouted, "
              f"{stats.get('sta_full_rebuilds', 0)} full STA rebuilds, "
              f"{stats.get('full_reroutes', 0)} full reroutes")
    return 0 if report.status == "met" or args.best_effort else 1


def _cmd_report(args) -> int:
    from .analysis.report_card import chip_report_card
    from .core.fullchip import ChipConfig, build_chip
    from .tech import make_process
    process = make_process()
    chip = build_chip(ChipConfig(style=args.style, scale=args.scale,
                                 dual_vth=args.dual_vth), process)
    text = chip_report_card(chip, process,
                            include_signoff=args.signoff)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_signoff(args) -> int:
    from .core.chip_sta import build_signed_off_chip
    from .core.fullchip import ChipConfig
    from .tech import make_process
    chip, sta = build_signed_off_chip(
        ChipConfig(style=args.style, scale=args.scale,
                   dual_vth=args.dual_vth), make_process(),
        max_iterations=args.iterations)
    print(sta.report(args.paths))
    print(f"\nchip power {chip.power.total_uw / 1e3:.1f} mW, "
          f"{chip.n_3d_connections} 3D connections")
    return 0 if sta.wns_ps >= -30.0 else 1


def _cmd_lint(args) -> int:
    from .core import FlowConfig, FoldSpec, run_block_flow
    from .core.fullchip import ChipConfig, build_chip
    from .lint import LintConfig, Waiver, lint_block, lint_chip
    from .tech import make_process

    config = LintConfig(
        disabled=tuple(args.disable or ()),
        waivers=tuple(Waiver(rule_id=w, reason="waived on command line")
                      for w in (args.waive or ())))
    process = make_process()
    cache = None
    if args.cache_dir:
        from .core.cache import DesignCache
        cache = DesignCache(cache_dir=args.cache_dir)
    if args.target in ("2d", "core_cache", "core_core", "fold_f2b",
                       "fold_f2f") or args.style:
        style = args.style or args.target
        chip = build_chip(ChipConfig(style=style, scale=args.scale),
                          process, cache=cache)
        report = lint_chip(chip, config=config)
    else:
        from .designgen.t2 import t2_block_types
        known = [bt.name for bt in t2_block_types()]
        if args.target not in known:
            print(f"unknown block or chip style {args.target!r}; "
                  f"blocks: {', '.join(known)}; styles: 2d, core_cache, "
                  f"core_core, fold_f2b, fold_f2f", file=sys.stderr)
            return 2
        fold = FoldSpec(mode=args.fold_mode) if args.fold else None
        fc = FlowConfig(scale=args.scale, seed=args.seed, fold=fold,
                        bonding=args.bonding)
        if cache is not None:
            design = cache.get_or_run(args.target, fc, process)
        else:
            design = run_block_flow(args.target, fc, process)
        report = lint_block(design, config=config)

    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(report.to_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.json:
        print(report.to_json())
    elif args.markdown:
        print(report.to_markdown())
    else:
        print(report.summary())
        for v in report.violations:
            print(f"  {v}")
    return 0 if report.clean else 1


def _cmd_analyze(args) -> int:
    from .analyze import (CODE_REGISTRY, WaiverSyntaxError,
                          analyze_paths, check_names, default_config,
                          write_names)
    from .lint.framework import all_rules

    if args.list_rules:
        for r in all_rules(CODE_REGISTRY):
            print(f"{r.id:8s} [{r.severity}] {r.title}")
        return 0
    if args.write_names:
        path, changed = write_names()
        print(f"{'wrote' if changed else 'unchanged'} {path}")
        return 0
    if args.check_names:
        path, fresh = check_names()
        if not fresh:
            print(f"{path} is stale; regenerate with "
                  f"'python -m repro analyze --write-names'",
                  file=sys.stderr)
            return 1
        print(f"{path} is fresh")
        return 0

    try:
        config = default_config(
            waiver_paths=args.waivers or None,
            use_default_waivers=not args.no_default_waivers,
            disabled=tuple(args.disable or ()))
    except (WaiverSyntaxError, OSError) as exc:
        print(f"bad waiver file: {exc}", file=sys.stderr)
        return 2
    report = analyze_paths(paths=args.paths or None, config=config,
                           rules=args.rules or None)

    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(report.to_json() + "\n")
        print(f"wrote {args.json_out}")
    if args.json:
        print(report.to_json())
    elif args.markdown:
        print(report.to_markdown())
    else:
        print(report.summary())
        for v in report.violations:
            print(f"  {v}")
    return 0 if report.clean else 1


def _cmd_chip(args) -> int:
    from .analysis.report import design_metric_rows, format_table
    from .core.fullchip import ChipConfig, build_chip
    from .tech import make_process
    chip = build_chip(ChipConfig(style=args.style, scale=args.scale,
                                 dual_vth=args.dual_vth), make_process())
    print(format_table(f"chip {args.style}", ["design"],
                       design_metric_rows([chip], kind="chip")))
    print(f"\nworst slack: {chip.wns_ps:+.0f} ps; "
          f"inter-block wirelength {chip.interblock_wl_um / 1e6:.2f} m")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the DAC'14 3D-IC block folding and "
                    "bonding styles study.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments",
                   help="list the paper-artifact runners").set_defaults(
        func=_cmd_experiments)

    p_run = sub.add_parser("run", help="regenerate one table/figure")
    p_run.add_argument("id")
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent design-cache directory")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the run's span/metrics trace (JSONL)")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser(
        "bench", help="run the experiment set (parallel workers, "
                      "persistent design cache, timing report)")
    p_bench.add_argument("--ids", default=None,
                         help="comma-separated experiment ids "
                              "(default: all)")
    p_bench.add_argument("--parallel", type=int, default=0, metavar="N",
                         help="worker processes (0/1 = serial)")
    p_bench.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent design-cache directory "
                              "(shared by all workers)")
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--json-out", default=None, metavar="FILE",
                         help="write key-sorted results JSON "
                              "(byte-comparable across runs)")
    p_bench.add_argument("--timing-out", default=None, metavar="FILE",
                         help="write per-experiment wall-clock JSON")
    p_bench.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the merged span/metrics trace "
                              "(JSONL; workers included)")
    p_bench.add_argument("--write-golden", default=None, metavar="FILE",
                         help="refresh the golden regression fixtures "
                              "(requires fig2,fig6,table5 at scale 1.0)")
    p_bench.add_argument("--timeout", type=float, default=0.0,
                         metavar="S",
                         help="per-experiment wall-clock budget per "
                              "attempt (0 = unlimited)")
    p_bench.add_argument("--retries", type=int, default=0,
                         help="extra attempts for failed or timed-out "
                              "experiments")
    p_bench.set_defaults(func=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos", help="run the bench under a seeded fault plan and "
                      "check it degrades cleanly")
    p_chaos.add_argument("--seed", type=int, default=1,
                         help="fault-plan seed (same seed = same "
                              "injected fault sequence)")
    p_chaos.add_argument("--plan", default=None, metavar="SPECS",
                         help="explicit fault plan in REPRO_FAULTS "
                              "grammar (overrides the seeded plan)")
    p_chaos.add_argument("--no-faults", action="store_true",
                         help="control run: no plan active, output "
                              "must match a plain bench byte for byte")
    p_chaos.add_argument("--ids", default="fig6,table4",
                         help="comma-separated experiment ids")
    p_chaos.add_argument("--scale", type=float, default=0.7)
    p_chaos.add_argument("--parallel", type=int, default=0, metavar="N",
                         help="worker processes (0/1 = serial)")
    p_chaos.add_argument("--timeout", type=float, default=300.0,
                         metavar="S",
                         help="per-experiment wall-clock budget per "
                              "attempt (0 = unlimited)")
    p_chaos.add_argument("--retries", type=int, default=2,
                         help="extra attempts for failed or timed-out "
                              "experiments")
    p_chaos.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent design-cache directory")
    p_chaos.add_argument("--json-out", default=None, metavar="FILE",
                         help="write key-sorted results JSON (completed "
                              "experiments only)")
    p_chaos.add_argument("--report-out", default=None, metavar="FILE",
                         help="write the chaos report JSON (plan, "
                              "injections, per-run status)")
    p_chaos.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the merged span/metrics trace")
    p_chaos.add_argument("--serve", action="store_true",
                         help="chaos-test the service broker instead: "
                              "kill shards mid-sweep and require the "
                              "survivors to finish it")
    p_chaos.add_argument("--shards", type=int, default=2, metavar="N",
                         help="broker shard count for --serve")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="run the experiment broker (streaming sweep "
                      "service over newline-delimited JSON)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7341,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a unix socket instead of TCP")
    p_serve.add_argument("--shards", type=int, default=2, metavar="N",
                         help="work-stealing worker shard count")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared persistent tier (design cache + "
                              "result store)")
    p_serve.add_argument("--shard-mode", default="process",
                         choices=["process", "inline"],
                         help="run points in supervised worker "
                              "processes (default) or in-process")
    p_serve.add_argument("--timeout", type=float, default=0.0,
                         metavar="S",
                         help="default per-point wall-clock budget "
                              "(0 = unlimited)")
    p_serve.add_argument("--retries", type=int, default=0,
                         help="default extra attempts per point")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="send one sweep to a running broker and "
                       "stream the results back")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7341)
    p_submit.add_argument("--socket", default=None, metavar="PATH",
                          help="connect over a unix socket")
    p_submit.add_argument("--ids", default=None,
                          help="comma-separated experiment ids "
                               "(default: all)")
    p_submit.add_argument("--scale", type=float, default=1.0)
    p_submit.add_argument("--seed", type=int, default=1)
    p_submit.add_argument("--timeout", type=float, default=0.0,
                          metavar="S",
                          help="per-point wall-clock budget "
                               "(0 = server default)")
    p_submit.add_argument("--retries", type=int, default=0,
                          help="extra attempts per point")
    p_submit.add_argument("--json-out", default=None, metavar="FILE",
                          help="write id-keyed results JSON (same "
                               "shape as bench --json-out)")
    p_submit.set_defaults(func=_cmd_submit)

    p_trace = sub.add_parser(
        "trace", help="inspect a JSONL trace file")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="per-span-name rollup (count/total/self/max)")
    p_tsum.add_argument("file")
    p_tsum.add_argument("--metrics", action="store_true",
                        help="also print the trace's metrics snapshot")
    p_tsum.set_defaults(func=_cmd_trace)

    p_block = sub.add_parser("block", help="design one T2 block")
    p_block.add_argument("name")
    p_block.add_argument("--fold", action="store_true")
    p_block.add_argument("--fold-mode", default="mincut")
    p_block.add_argument("--bonding", default="F2B",
                         choices=["F2B", "F2F"])
    p_block.add_argument("--dual-vth", action="store_true")
    p_block.add_argument("--scale", type=float, default=1.0)
    p_block.add_argument("--seed", type=int, default=1)
    p_block.set_defaults(func=_cmd_block)

    p_chip = sub.add_parser("chip", help="build a full chip")
    p_chip.add_argument("style", choices=["2d", "core_cache", "core_core",
                                          "fold_f2b", "fold_f2f"])
    p_chip.add_argument("--dual-vth", action="store_true")
    p_chip.add_argument("--scale", type=float, default=1.0)
    p_chip.set_defaults(func=_cmd_chip)

    p_eco = sub.add_parser(
        "eco", help="close timing / derive a neighboring scenario "
        "with the incremental ECO engine")
    p_eco.add_argument("name", help="T2 block type (e.g. l2t)")
    p_eco.add_argument("--fold", action="store_true")
    p_eco.add_argument("--fold-mode", default="mincut")
    p_eco.add_argument("--bonding", default="F2B",
                       choices=["F2B", "F2F"])
    p_eco.add_argument("--scale", type=float, default=1.0)
    p_eco.add_argument("--seed", type=int, default=1)
    p_eco.add_argument("--io-budget", type=float, default=0.0,
                       help="base scenario I/O budget (ps)")
    p_eco.add_argument("--derive-io-budget", type=float, default=None,
                       help="derive a neighboring scenario with this "
                       "I/O budget instead of closing the base")
    p_eco.add_argument("--derive-dual-vth", action="store_true",
                       help="derive with the dual-Vth power stage")
    p_eco.add_argument("--target-wns", type=float, default=0.0,
                       help="slack target in ps (default 0)")
    p_eco.add_argument("--max-rounds", type=int, default=4)
    p_eco.add_argument("--full-recompute", action="store_true",
                       help="disable every incremental path (parity "
                       "baseline)")
    p_eco.add_argument("--best-effort", action="store_true",
                       help="exit 0 even when the target is not met")
    p_eco.set_defaults(func=_cmd_eco)

    p_so = sub.add_parser(
        "signoff", help="run the chip-level timing sign-off loop")
    p_so.add_argument("style", choices=["2d", "core_cache", "core_core",
                                        "fold_f2b", "fold_f2f"])
    p_so.add_argument("--dual-vth", action="store_true")
    p_so.add_argument("--scale", type=float, default=0.7)
    p_so.add_argument("--iterations", type=int, default=2)
    p_so.add_argument("--paths", type=int, default=6)
    p_so.set_defaults(func=_cmd_signoff)

    p_lint = sub.add_parser(
        "lint", help="run the static design checker on a block or chip")
    p_lint.add_argument(
        "target",
        help="T2 block name (spc, ccx, ...) or chip style (2d, "
             "core_cache, core_core, fold_f2b, fold_f2f)")
    p_lint.add_argument("--style", default=None,
                        choices=["2d", "core_cache", "core_core",
                                 "fold_f2b", "fold_f2f"],
                        help="force chip-style interpretation of target")
    p_lint.add_argument("--fold", action="store_true")
    p_lint.add_argument("--fold-mode", default="mincut")
    p_lint.add_argument("--bonding", default="F2B",
                        choices=["F2B", "F2F"])
    p_lint.add_argument("--scale", type=float, default=0.5)
    p_lint.add_argument("--seed", type=int, default=1)
    p_lint.add_argument("--disable", action="append", metavar="RULE",
                        help="disable a rule id (fnmatch pattern, "
                             "repeatable)")
    p_lint.add_argument("--waive", action="append", metavar="RULE",
                        help="waive violations of a rule id (fnmatch "
                             "pattern, repeatable)")
    p_lint.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent design-cache directory")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    p_lint.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the machine-readable report to a "
                             "file")
    p_lint.add_argument("--markdown", action="store_true",
                        help="emit the markdown report")
    p_lint.set_defaults(func=_cmd_lint)

    p_an = sub.add_parser(
        "analyze",
        help="run the static code analyzer over the repo's own source")
    p_an.add_argument("paths", nargs="*",
                      help="files or directories to analyze (default: "
                           "the installed repro package)")
    p_an.add_argument("--rules", action="append", metavar="RULE",
                      help="run only this rule id (exact, repeatable)")
    p_an.add_argument("--disable", action="append", metavar="RULE",
                      help="disable a rule id (fnmatch pattern, "
                           "repeatable)")
    p_an.add_argument("--waivers", action="append", metavar="FILE",
                      help="extra waiver file (repeatable; format: "
                           "'RULE_ID obj-pattern -- reason' per line)")
    p_an.add_argument("--no-default-waivers", action="store_true",
                      help="ignore the committed waiver file")
    p_an.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")
    p_an.add_argument("--json-out", default=None, metavar="FILE",
                      help="write the machine-readable report to a file")
    p_an.add_argument("--markdown", action="store_true",
                      help="emit the markdown report")
    p_an.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    p_an.add_argument("--write-names", action="store_true",
                      help="regenerate the span/metric name registry "
                           "(repro/obs/names.py) and exit")
    p_an.add_argument("--check-names", action="store_true",
                      help="fail if the committed name registry is "
                           "stale")
    p_an.set_defaults(func=_cmd_analyze)

    p_rep = sub.add_parser("report",
                           help="write a markdown design report card")
    p_rep.add_argument("style", choices=["2d", "core_cache", "core_core",
                                         "fold_f2b", "fold_f2f"])
    p_rep.add_argument("--dual-vth", action="store_true")
    p_rep.add_argument("--scale", type=float, default=0.7)
    p_rep.add_argument("--signoff", action="store_true")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
