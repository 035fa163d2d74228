"""Full-recompute live-edit session (parity oracle).

The library's :class:`repro.eco.session.EcoSession` edits a routed
block incrementally: master swaps refresh the touched nets' pin caps
and patch the live timing view in place, and structural edits re-route
only the nets they touched, then re-time the view once.
:class:`FullRecomputeSession` is the same session with every
incremental path replaced by a recompute: each edit re-routes the
whole block with :meth:`repro.route.estimate.RouteContext.route_block`
and drops the timing view, and the next read builds a fresh
:class:`~repro.timing.incremental.IncrementalSTA`, a from-scratch STA.
It ignores the design's STA snapshot.  Validation, legalization,
netlist surgery and the clock-tree memo are the session's own (the
memo's replay is bit-exact with a from-scratch CTS).

The parity suites hold the two byte-equal, values and dict orders:
``tests/test_eco_properties.py`` opens both through ``from_design``;
``tests/test_opt_flow.py`` and ``tests/test_eco_engine.py`` open the
oracle wherever the library opens a session, with :func:`use_oracle`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.eco.session import EcoSession
from repro.tech.cells import CellMaster
from repro.timing.incremental import IncrementalSTA
from repro.timing.sta import TimingConfig


class FullRecomputeSession(EcoSession):
    """An :class:`EcoSession` that recomputes routing and timing from
    scratch after every edit.

    ``stats["nets_rerouted"]`` counts every net of every whole-block
    route, ``stats["full_reroutes"]`` the routes themselves and
    ``stats["sta_full_rebuilds"]`` the views built.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # time every read on a view built from scratch: drop the one
        # the session opened with, adopted or built
        self._view = None
        self.stats["full_reroutes"] = 0

    @property
    def view(self) -> IncrementalSTA:
        if self._view is None:
            self._view = IncrementalSTA(self.netlist, self.routing,
                                        self.process, self.timing)
            self.stats["sta_full_rebuilds"] += 1
        return self._view

    def retarget(self, timing: TimingConfig) -> None:
        self.timing = timing
        self._view = None

    def swap_masters(self, moves: Sequence[Tuple[int, CellMaster]]) -> int:
        n = 0
        for iid, master in moves:
            if self.netlist.instances[iid].master is master:
                continue
            self.netlist.replace_master(iid, master)
            n += 1
        if n:
            self._route_block()
            self.stats["swaps"] += n
            self.cts.invalidate()
        return n

    def _resync(self, net_ids, *, surgery: bool) -> None:
        self._route_block()

    def _route_block(self) -> None:
        self.routing = self.ctx.route_block(self.netlist)
        self.stats["full_reroutes"] += 1
        self.stats["nets_rerouted"] += len(self.routing.nets)
        self._view = None


def use_oracle(monkeypatch, *modules) -> List[FullRecomputeSession]:
    """Open every session the given ``repro`` modules open on the
    oracle (each module names the class ``EcoSession``).

    Returns the list the opened sessions join, in opening order.
    """
    opened: List[FullRecomputeSession] = []

    class Recorded(FullRecomputeSession):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            opened.append(self)

    for module in modules:
        monkeypatch.setattr(module, "EcoSession", Recorded)
    return opened
