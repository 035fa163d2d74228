"""What the checker looks at: a bundle of flow artifacts.

A :class:`LintContext` carries every artifact a rule might inspect --
netlist, outline, macro rectangles, 3D via sites, routing, CTS, STA,
congestion, the whole chip.  All fields are optional: rules declare what
they *require* and the runner skips rules whose inputs are missing, so
the same deck runs on a bare netlist right after generation, on a placed
block mid-flow, on a finished :class:`~repro.core.flow.BlockDesign`, or
on a full :class:`~repro.core.fullchip.ChipDesign`.

The builders here derive everything from the design objects the flow
already produces -- lint never re-runs any flow stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..netlist.core import Netlist
from ..place.grid import Rect
from ..place.legalize import macro_rects_of
from ..place.placer2d import UTILIZATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.flow import BlockDesign
    from ..core.fullchip import ChipDesign
    from ..place.placer3d import ViaSite
    from ..route.estimate import RoutingResult


@dataclass
class LintContext:
    """Everything one checker run may inspect.  All artifacts optional."""

    name: str
    netlist: Optional[Netlist] = None
    outline: Optional[Rect] = None
    #: die index -> macro obstruction rectangles (the "holes")
    macro_rects: Optional[Dict[int, List[Rect]]] = None
    #: bonding style when folded ("F2B" / "F2F"); None for 2D blocks
    bonding: Optional[str] = None
    #: legalized 3D via sites (fold placement result)
    vias: Optional[List["ViaSite"]] = None
    #: placement utilization target (for area-sanity checks)
    utilization: Optional[float] = None
    #: cell ``x`` semantics: True for the global-place / row-snap
    #: convention (x = cell center, the flow default), False after the
    #: Tetris legalizer (x = left edge)
    x_is_center: bool = True
    routing: Optional["RoutingResult"] = None
    cts: Optional[object] = None
    sta: Optional[object] = None
    #: block-level congestion report (detailed route) when available
    congestion: Optional[object] = None
    chip: Optional["ChipDesign"] = None

    def has(self, names: Tuple[str, ...]) -> bool:
        """True when every named artifact is present."""
        return all(getattr(self, n) is not None for n in names)

    def macros_of_die(self, die: int) -> List[Rect]:
        if not self.macro_rects:
            return []
        return self.macro_rects.get(die, [])

    def all_macro_rects(self) -> List[Rect]:
        if not self.macro_rects:
            return []
        return [r for rects in self.macro_rects.values() for r in rects]


def context_for_netlist(netlist: Netlist,
                        name: Optional[str] = None) -> LintContext:
    """A netlist-only context (electrical rules only)."""
    return LintContext(name=name or netlist.name, netlist=netlist)


def context_for_placement(netlist: Netlist, outline: Rect,
                          bonding: Optional[str] = None,
                          vias: Optional[List["ViaSite"]] = None,
                          utilization: Optional[float] = None,
                          name: Optional[str] = None,
                          x_is_center: bool = True) -> LintContext:
    """A mid-flow context right after placement (electrical + physical)."""
    return LintContext(name=name or netlist.name, netlist=netlist,
                       outline=outline, macro_rects=macro_rects_of(netlist),
                       bonding=bonding, vias=vias, utilization=utilization,
                       x_is_center=x_is_center)


def context_for_block(design: "BlockDesign") -> LintContext:
    """The full sign-off context for a finished block design."""
    fold = design.fold_result
    bonding = fold.bonding if fold is not None else None
    vias = fold.vias if fold is not None else None
    return LintContext(
        name=design.name,
        netlist=design.netlist,
        outline=design.outline,
        macro_rects=macro_rects_of(design.netlist),
        bonding=bonding,
        vias=vias,
        utilization=UTILIZATION,
        routing=design.routing,
        cts=design.cts,
        sta=design.sta,
        congestion=design.congestion,
    )


def context_for_chip(chip: "ChipDesign") -> LintContext:
    """The chip-scope context (floorplan / global-routing rules)."""
    return LintContext(name=f"chip/{chip.style}", chip=chip)
