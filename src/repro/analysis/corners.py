"""Multi-corner sign-off of finished block designs.

Re-times and re-measures a design at the SS / TT / FF corners: setup is
signed off where silicon is slowest, leakage where it is fastest.  The
design's masters are swapped to the corner library for the duration of
the analysis (an STA view change, not an ECO) and restored afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List

from ..core.flow import BlockDesign
from ..power.analysis import analyze_power
from ..tech.corners import corner_process
from ..tech.process import ProcessNode
from ..timing.sta import TimingConfig, run_sta


@dataclass
class CornerReport:
    """One corner's timing and power view of a design."""

    corner: str
    wns_ps: float
    total_uw: float
    leakage_uw: float


@contextmanager
def _corner_view(design: BlockDesign, process: ProcessNode):
    """Temporarily swap the design's cell masters to a corner library."""
    netlist = design.netlist
    saved = {}
    for inst in list(netlist.instances.values()):
        if inst.is_macro:
            continue
        saved[inst.id] = inst.master
        netlist.replace_master(inst.id, process.library.master(
            inst.master.name))
    try:
        yield
    finally:
        for iid, master in saved.items():
            netlist.replace_master(iid, master)


def analyze_corners(design: BlockDesign, base_process: ProcessNode,
                    corners: List[str] = ("ss", "tt", "ff")
                    ) -> Dict[str, CornerReport]:
    """Timing + power of a finished design at each corner."""
    domain = design.generated.block_type.logic.clock_domain
    timing = TimingConfig(clock_domain=domain,
                          default_io_delay_ps=design.config.io_budget_ps)
    out: Dict[str, CornerReport] = {}
    for name in corners:
        proc = corner_process(base_process, name)
        with _corner_view(design, proc):
            sta = run_sta(design.netlist, design.routing, proc, timing)
            power = analyze_power(design.netlist, design.routing, proc,
                                  domain, cts=design.cts)
        out[name] = CornerReport(corner=name, wns_ps=sta.wns_ps,
                                 total_uw=power.total_uw,
                                 leakage_uw=power.leakage_uw)
    return out


def signoff_summary(reports: Dict[str, CornerReport]) -> str:
    """Render the corner table, flagging the sign-off criteria."""
    lines = [f"{'corner':8s}{'WNS ps':>10s}{'power mW':>12s}"
             f"{'leakage mW':>12s}"]
    for name, r in reports.items():
        lines.append(f"{name:8s}{r.wns_ps:10.0f}{r.total_uw / 1e3:12.2f}"
                     f"{r.leakage_uw / 1e3:12.2f}")
    if "ss" in reports:
        met = reports["ss"].wns_ps >= 0
        lines.append(f"setup sign-off at SS: "
                     f"{'MET' if met else 'VIOLATED'}")
    return "\n".join(lines)
