#!/usr/bin/env python3
"""An engineering-change-order session on a finished design.

Shows the incremental tooling on a signed-off block: open a persistent
timing view, apply Vth swaps with instant re-timing, check and fix hold,
and gate low-activity flops -- the kind of late-stage surgery a real
project does without re-running the whole flow.

Usage::

    python examples/eco_session.py [--block l2t]
"""

import argparse
import time

from repro.core import FlowConfig, run_block_flow
from repro.cts import synthesize_clock_tree
from repro.opt import insert_clock_gates
from repro.power import analyze_power, apply_activity, propagate_activity
from repro.tech import VTH_HVT, make_process
from repro.timing import (IncrementalSTA, TimingConfig, fix_hold,
                          run_hold_analysis)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--block", default="l2t")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    process = make_process()
    print(f"baseline flow on {args.block!r} ...")
    design = run_block_flow(args.block, FlowConfig(seed=args.seed),
                            process)
    domain = design.generated.block_type.logic.clock_domain
    timing = TimingConfig(domain)
    # use propagated per-net activities for the whole session so the
    # before/after power comparison shares one activity model
    signals = propagate_activity(design.netlist)
    apply_activity(design.netlist, signals)
    cts = synthesize_clock_tree(design.netlist, process)
    power0 = analyze_power(design.netlist, design.routing, process,
                           domain, cts=cts).total_uw
    print(f"  power {power0 / 1e3:.2f} mW (propagated activities), "
          f"WNS {design.sta.wns_ps:+.0f} ps")

    print("\nECO 1: opportunistic HVT swaps via incremental STA")
    # a swap patches the view's timing graph in place and re-times the
    # block with one sweep; batch edits where the policy allows to
    # share that sweep
    inc = IncrementalSTA(design.netlist, design.routing, process, timing)
    t0 = time.time()
    swaps = tried = 0
    snapshot = inc.to_result()
    for cell in list(design.netlist.cells):
        if cell.is_sequential or cell.master.vth == VTH_HVT:
            continue
        if snapshot.slack.get(cell.id, 0.0) < 120.0:
            continue
        tried += 1
        old = cell.master
        inc.swap_masters([(cell.id,
                           process.library.variant(old, vth=VTH_HVT))])
        snapshot = inc.to_result()
        if snapshot.wns_ps < 0:
            inc.swap_masters([(cell.id, old)])  # revert
            snapshot = inc.to_result()
        else:
            swaps += 1
        if tried >= 300:
            break
    print(f"  {swaps} swaps accepted of {tried} tried in "
          f"{time.time() - t0:.1f}s, WNS {snapshot.wns_ps:+.0f} ps")

    print("\nECO 2: hold sign-off")
    cts = synthesize_clock_tree(design.netlist, process)
    hold = run_hold_analysis(design.netlist, design.routing, process,
                             timing, cts=cts)
    print(f"  worst hold slack {hold.whs_ps:+.0f} ps "
          f"({hold.violations} violations, skew {cts.skew_ps:.0f} ps)")
    if hold.violations:
        added = fix_hold(design.netlist, design.routing, hold, process)
        print(f"  padded {added} capture pins")

    print("\nECO 3: clock gating from propagated activities")
    gating = insert_clock_gates(design.netlist, process, signals)
    print(f"  {gating.n_gates} gates over {gating.gated_flops}/"
          f"{gating.total_flops} flops "
          f"(mean enable {gating.mean_enable:.2f})")

    from repro.route import route_block
    routing = route_block(design.netlist, process.metal_stack)
    cts = synthesize_clock_tree(design.netlist, process)
    power1 = analyze_power(design.netlist, routing, process, domain,
                           cts=cts).total_uw
    print(f"\nfinal power {power1 / 1e3:.2f} mW "
          f"({power1 / power0 - 1:+.1%} vs baseline)")


if __name__ == "__main__":
    main()
