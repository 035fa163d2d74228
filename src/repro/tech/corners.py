"""Process corners (SS / TT / FF).

Industrial sign-off times setup at the slow corner and checks power and
leakage at the fast one; the paper's single-corner numbers are implicitly
TT.  This module derives corner-derated libraries from the typical one:
slow silicon is slower but leaks less, fast silicon is faster and leaks
far more, and the supply tracks the corner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict

from .cells import CellLibrary, CellMaster
from .process import ProcessNode


@dataclass(frozen=True)
class Corner:
    """A process/voltage corner's derating factors vs. typical."""

    name: str
    delay_factor: float
    leakage_factor: float
    internal_factor: float
    vdd_factor: float


#: the classic three-corner set
CORNERS: Dict[str, Corner] = {
    "ss": Corner("ss", delay_factor=1.28, leakage_factor=0.55,
                 internal_factor=0.92, vdd_factor=0.90),
    "tt": Corner("tt", delay_factor=1.00, leakage_factor=1.00,
                 internal_factor=1.00, vdd_factor=1.00),
    "ff": Corner("ff", delay_factor=0.80, leakage_factor=2.30,
                 internal_factor=1.08, vdd_factor=1.10),
}


def derate_master(master: CellMaster, corner: Corner) -> CellMaster:
    """A corner-derated copy of one cell master."""
    return dc_replace(
        master,
        drive_res_kohm=master.drive_res_kohm * corner.delay_factor,
        intrinsic_delay_ps=master.intrinsic_delay_ps *
        corner.delay_factor,
        leakage_uw=master.leakage_uw * corner.leakage_factor,
        internal_energy_fj=master.internal_energy_fj *
        corner.internal_factor,
    )


class _CornerLibrary(CellLibrary):
    """A cell library whose masters are derated copies of another's."""

    def __init__(self, base: CellLibrary, corner: Corner) -> None:
        self._drives = base.drives
        self._flavors = ("RVT", "HVT")
        self._masters = {m.name: derate_master(m, corner)
                         for m in base.masters}


def corner_library(base: CellLibrary, corner_name: str) -> CellLibrary:
    """The library derated to a named corner."""
    return _CornerLibrary(base, CORNERS[corner_name])


def corner_process(base: ProcessNode, corner_name: str) -> ProcessNode:
    """A process node view at a corner: derated library + supply."""
    corner = CORNERS[corner_name]
    return dc_replace(base,
                      name=f"{base.name}_{corner_name}",
                      vdd=base.vdd * corner.vdd_factor,
                      library=corner_library(base.library, corner_name))
