"""Per-layer self time measured from outside the program.

The benchmark's traced pass wraps each layer's public functions with a
timer and never edits ``src/``.  :data:`LAYERS` names the functions;
:func:`installed` rebinds them for the duration of a ``with`` block.

Binding is by object identity: every attribute of every loaded
``repro.*`` module that *is* a target function is replaced, so call
sites that did ``from x import f`` are caught as well as ``x.f()``.
Methods are patched on their class (a ``classmethod`` stays one).  A
target that cannot be resolved, or resolves to something that is not a
function, raises :class:`LayerBindError` -- a rename must not silently
zero a layer.

A layer's self time is the wall time of its wrapped calls minus the
wrapped calls nested inside them, so the self times of one pass add up
to the time spent inside wrapped calls, and ``wall - sum(self)`` is the
time no layer owns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: layer name -> wrapped public functions, ``module:qualname``
LAYERS: Dict[str, Tuple[str, ...]] = {
    "designgen": ("repro.designgen.generate:generate_block",),
    "place.partition": ("repro.place.partition:fm_bipartition",
                        "repro.place.partition:partition_by_clusters"),
    "place": ("repro.place.placer2d:place_block_2d",
              "repro.place.placer3d:fold_place_3d"),
    "route": ("repro.route.estimate:route_block",
              "repro.route.estimate:route_net"),
    "route.route3d": ("repro.route.route3d:place_f2f_vias",),
    "timing": ("repro.timing.sta:run_sta",),
    "timing.incremental": tuple(
        f"repro.timing.incremental:IncrementalSTA.{m}"
        for m in ("from_snapshot", "swap_masters", "try_swap",
                  "apply_routing_update", "patch_topology", "retarget",
                  "to_result")),
    "cts": ("repro.cts.tree:synthesize_clock_tree",),
    "opt": ("repro.opt.flow:optimize_block",),
    "opt.plan": ("repro.opt.buffering:plan_buffers",
                 "repro.opt.buffering:apply_buffer_plan",
                 "repro.opt.sizing:plan_upsizes",
                 "repro.opt.sizing:plan_downsizes",
                 "repro.opt.dualvth:plan_hvt_swaps",
                 "repro.opt.dualvth:plan_rvt_restores"),
    "power": ("repro.power.analysis:analyze_power",),
    "chip": ("repro.core.fullchip:build_chip",),
    "eco": ("repro.eco.driver:derive_design",),
    "flow": ("repro.core.flow:run_flow_on",),
    # lookups, pickling and disk I/O of the design cache; without it the
    # warm sweep, which does almost nothing else, would be unattributed
    "cache": ("repro.core.cache:DesignCache.get_or_run",),
}


class LayerBindError(RuntimeError):
    """A wrapper target does not resolve to a function."""


class LayerClock:
    """Self time and call count per layer, accumulated by the wrappers.

    Not thread-safe: the traced pass runs its flows in one thread.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: one cell per open wrapped call: time spent in nested calls
        self._stack: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed into ``layer``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.self_s[layer] += dur - nested[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += dur

        return timed

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_ms`` and ``<layer>.calls`` for every layer."""
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
            out[f"{name}.calls"] = self.calls[name]
        return out


def _resolve(spec: str):
    """``(owner, attribute, raw value)`` of one ``module:qualname``."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
    except (ImportError, AttributeError, KeyError) as exc:
        raise LayerBindError(f"layer target {spec} does not resolve: "
                             f"{exc}") from exc
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
        else raw
    if not callable(fn) or not hasattr(fn, "__code__"):
        raise LayerBindError(f"layer target {spec} is "
                             f"{type(raw).__name__}, not a function")
    return owner, attr, raw


@contextmanager
def installed(clock: LayerClock) -> Iterator[int]:
    """Wrap every target in :data:`LAYERS` for the ``with`` block.

    Yields the number of bindings replaced; every binding is restored on
    exit.
    """
    undo: List[Tuple[object, str, object]] = []
    by_id: Dict[int, Tuple[Callable, Callable]] = {}
    try:
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, attr, raw = _resolve(spec)
                if isinstance(owner, type):
                    kind = type(raw) if isinstance(
                        raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    timed = clock.wrap(layer, fn)
                    setattr(owner, attr, kind(timed) if kind else timed)
                    undo.append((owner, attr, raw))
                else:
                    by_id[id(raw)] = (raw, clock.wrap(layer, raw))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        yield len(undo)
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
