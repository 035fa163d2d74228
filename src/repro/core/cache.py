"""Block-design caching for sweeps: in-memory plus a persistent disk tier.

Design-space sweeps rebuild the same (block type, flow config) pairs
over and over -- unfolded control blocks recur identically across chip
styles, RVT blocks across bonding variants.  ``FlowConfig`` is a frozen
dataclass (fold specs included), so (block, config, process) is a proper
cache key; a finished :class:`~repro.core.flow.BlockDesign` is immutable
*by convention* after the flow (the aggregation layers only read it), so
cache hits can share the object.

Two tiers:

* **memory** -- a dict keyed by the content hash, shared objects, FIFO
  capped at :data:`MAX_ENTRIES`;
* **disk** (optional) -- pass ``cache_dir`` and every finished design is
  pickled under ``<cache_dir>/<sha256>.pkl``.  Keys hash the *content*
  of the request -- block name, every ``FlowConfig`` field (fold spec
  included), a :func:`process_fingerprint` of the technology node, and
  :data:`CODE_VERSION` -- so a stale tree from an older flow can never
  satisfy a new request.  Writes are atomic (:func:`write_atomic`) so
  concurrent workers sharing one directory never observe a torn file;
  loads are corruption-tolerant (a truncated or garbage file counts as a
  miss, is deleted, and the design is recomputed).

Every block-design request goes through :func:`block_design`, which
asks the cache of the enclosing :func:`run_scope`.  ``run_experiment``
opens one scope per run over ``ExperimentOptions.cache`` (a fresh
memory-only cache when that is ``None``), so one run never repeats a
flow; point several runs (or several ``multiprocessing`` workers) at one
``cache_dir`` to make reruns near-free.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, Optional, Union

from ..faults.inject import corrupt_point
from ..obs import trace
from ..obs.metrics import metrics
from ..tech.process import ProcessNode
from .flow import BlockDesign, FlowConfig, block_memo, run_block_flow

#: Version stamp baked into every disk-cache key.  Bump whenever the
#: flow's numerics change (placement, routing, timing, power models) or
#: a cached object's pickled layout does (the slotted netlist records
#: made "3", the placer's symmetric-mode solve "4"): old entries then
#: silently become misses instead of serving stale designs.
CODE_VERSION = "4"
#: in-memory entry cap of one cache (FIFO eviction); sweeps rarely
#: exceed it
MAX_ENTRIES = 256


def process_fingerprint(process: ProcessNode) -> Dict[str, object]:
    """Stable identity of a technology node for cache keying.

    Captures every process parameter the block flow reads -- supply,
    clocks, activity, the 3D via electricals and the metal stack shape --
    as plain JSON-serializable values.  Two nodes with equal fingerprints
    produce equal designs for equal configs.
    """
    def via(v) -> Dict[str, object]:
        return {
            "style": v.style,
            "diameter_um": v.diameter_um,
            "height_um": v.height_um,
            "pitch_um": v.pitch_um,
            "resistance_kohm": v.resistance_kohm,
            "capacitance_ff": v.capacitance_ff,
            "occupies_silicon": v.occupies_silicon,
            "landing_pad_um": v.landing_pad_um,
        }
    return {
        "name": process.name,
        "vdd": process.vdd,
        "clock_freq_ghz": dict(sorted(process.clock_freq_ghz.items())),
        "default_activity": process.default_activity,
        "cell_height_um": process.cell_height_um,
        "n_metal_layers": len(process.metal_stack.layers),
        "tsv": via(process.tsv),
        "f2f_via": via(process.f2f_via),
    }


def design_key(block: str, config: FlowConfig,
               process: ProcessNode) -> str:
    """Content hash of one block-flow request.

    The key covers the block name, the whole ``FlowConfig`` (fold spec,
    bonding, seed, scale, budgets, ...), the process fingerprint and
    :data:`CODE_VERSION`, so any input that can change the finished
    design changes the key.
    """
    payload = {
        "block": block,
        "config": asdict(config),
        "process": process_fingerprint(process),
        "version": CODE_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> bool:
    """Write ``path`` whole or not at all.

    ``write`` fills a temp file in ``path``'s directory (created on
    demand), which then replaces ``path``, so a reader sharing the
    directory never sees a torn file; a write that raises leaves
    neither file behind.  Returns whether ``path`` was written: an
    ``OSError`` (unwritable directory, full disk) returns ``False``,
    which degrades a disk tier to memory-only; any other exception
    propagates.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
        tmp = None
        return True
    except OSError:
        return False
    finally:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)


@dataclass
class CacheStats:
    """Hit/miss/store counters across both tiers."""

    hits: int = 0            # in-memory hits
    disk_hits: int = 0       # loaded from the persistent tier
    misses: int = 0          # full flow runs
    stores: int = 0          # designs written to disk
    evictions: int = 0       # entries dropped (either tier)
    corrupt_drops: int = 0   # unreadable disk entries discarded

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.disk_hits + self.misses
        return (self.hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        d = asdict(self)
        d["hit_rate"] = self.hit_rate
        return d


class DesignCache:
    """Memoizes finished block designs by content-hashed request.

    Args:
        cache_dir: optional directory for the persistent tier; created
            on demand.  Safe to share between processes.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._store: Dict[str, BlockDesign] = {}
        self.cache_dir: Optional[Path] = \
            Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    # ---- disk tier -----------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def _load_disk(self, key: str) -> Optional[BlockDesign]:
        if self.cache_dir is None:
            return None
        path = self._path(key)
        # chaos hook: an active "corrupt" fault spec garbles the entry
        # here, immediately before the read, so the tolerant-load path
        # below is exercised for real (inert without a fault plan)
        corrupt_point(path)
        try:
            with open(path, "rb") as f:
                design = pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            design = None
        if isinstance(design, BlockDesign):
            return design
        # truncated write, foreign bytes, unpicklable after a code
        # change: drop the entry and recompute
        self.stats.corrupt_drops += 1
        metrics().counter("cache.corrupt_drops").inc()
        with suppress(OSError):
            path.unlink()
        return None

    def _store_disk(self, key: str, design: BlockDesign) -> None:
        if self.cache_dir is None:
            return
        if write_atomic(self._path(key), lambda f: pickle.dump(
                design, f, protocol=pickle.HIGHEST_PROTOCOL)):
            self.stats.stores += 1
            metrics().counter("cache.stores").inc()

    # ---- the lookup ----------------------------------------------------

    def _remember(self, key: str, design: BlockDesign) -> None:
        if len(self._store) >= MAX_ENTRIES:
            # simple FIFO eviction
            oldest = next(iter(self._store))
            del self._store[oldest]
            self.stats.evictions += 1
        self._store[key] = design

    def get_or_run(self, block: str, config: FlowConfig,
                   process: ProcessNode) -> BlockDesign:
        """Return the cached design or run the flow and cache it.

        The cached object is shared: treat it as read-only.  Flows that
        intend to mutate the netlist afterwards (ECO sessions) should
        call :func:`run_block_flow` directly.

        Every lookup records a ``cache.lookup`` span whose ``outcome``
        attribute is ``memory_hit`` / ``disk_hit`` / ``miss``, and
        increments the matching ``cache.*`` counters.
        """
        with trace.span("cache.lookup", block=block) as sp:
            key = design_key(block, config, process)
            hit = self._store.get(key)
            if hit is not None:
                self.stats.hits += 1
                metrics().counter("cache.memory_hits").inc()
                sp.set(outcome="memory_hit")
                return hit
            design = self._load_disk(key)
            if design is not None:
                self.stats.disk_hits += 1
                metrics().counter("cache.disk_hits").inc()
                sp.set(outcome="disk_hit")
                self._remember(key, design)
                return design
            self.stats.misses += 1
            metrics().counter("cache.misses").inc()
            sp.set(outcome="miss")
            design = run_block_flow(block, config, process)
            self._remember(key, design)
            self._store_disk(key, design)
            return design

    def clear(self) -> None:
        """Drop the in-memory tier and reset the counters (the disk tier
        survives)."""
        self._store.clear()
        self.stats = CacheStats()


#: the design cache of the enclosing :func:`run_scope`
_RUN_CACHE: contextvars.ContextVar[Optional[DesignCache]] = \
    contextvars.ContextVar("repro_run_cache", default=None)


@contextmanager
def run_scope(cache: Optional[DesignCache] = None
              ) -> Iterator[DesignCache]:
    """Scope one run's design cache, next to its block memo.

    Outside any scope this binds ``cache`` (a fresh memory-only one
    when ``None``) and opens a :func:`~repro.core.flow.block_memo`;
    both end with the ``with`` block.  Inside an open scope,
    ``run_scope(None)`` joins it and ``run_scope(cache)`` binds
    ``cache`` for the ``with`` block, keeping the enclosing memo.
    """
    if cache is None:
        active = _RUN_CACHE.get()
        if active is not None:
            yield active
            return
        cache = DesignCache()
    token = _RUN_CACHE.set(cache)
    try:
        with block_memo():
            yield cache
    finally:
        _RUN_CACHE.reset(token)


def block_design(block: str, config: FlowConfig,
                 process: ProcessNode) -> BlockDesign:
    """The finished design of one block-flow request, through the
    enclosing :func:`run_scope`'s cache (outside any scope, through one
    that dies with the call).

    The design may be shared with every other request of the run for
    the same key: treat it as read-only, and call
    :func:`~repro.core.flow.run_block_flow` for a private one.
    """
    with run_scope() as cache:
        return cache.get_or_run(block, config, process)
