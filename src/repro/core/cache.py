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
  capped at ``max_entries``;
* **disk** (optional) -- pass ``cache_dir`` and every finished design is
  pickled under ``<cache_dir>/<sha256>.pkl``.  Keys hash the *content*
  of the request -- block name, every ``FlowConfig`` field (fold spec
  included), a :func:`process_fingerprint` of the technology node, and
  :data:`CODE_VERSION` -- so a stale tree from an older flow can never
  satisfy a new request.  Writes are atomic (temp file + ``os.replace``)
  so concurrent workers sharing one directory never observe a torn file;
  loads are corruption-tolerant (a truncated or garbage file counts as a
  miss, is deleted, and the design is recomputed).

Pass one :class:`DesignCache` through
:func:`~repro.core.fullchip.build_chip` calls (or the design-space
explorer) to deduplicate the work; point several runs (or several
``multiprocessing`` workers) at one ``cache_dir`` to make reruns
near-free.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..faults.inject import corrupt_point
from ..obs import trace
from ..obs.metrics import metrics
from ..tech.process import ProcessNode
from .flow import BlockDesign, FlowConfig, run_block_flow

#: Version stamp baked into every disk-cache key.  Bump whenever the
#: flow's numerics change (placement, routing, timing, power models) or
#: a cached object's pickled layout does (the slotted netlist records
#: made "3", the placer's symmetric-mode solve "4"): old entries then
#: silently become misses instead of serving stale designs.
CODE_VERSION = "4"


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
        max_entries: in-memory entry cap (FIFO eviction).
        cache_dir: optional directory for the persistent tier; created
            on demand.  Safe to share between processes.
        max_disk_entries: optional cap on on-disk entries; the oldest
            (by mtime) are pruned after each store.
    """

    def __init__(self, max_entries: int = 256,
                 cache_dir: Optional[Union[str, Path]] = None,
                 max_disk_entries: Optional[int] = None) -> None:
        self._store: Dict[str, BlockDesign] = {}
        self.max_entries = max_entries
        self.max_disk_entries = max_disk_entries
        self.cache_dir: Optional[Path] = \
            Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    # ---- disk tier -----------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def disk_entries(self) -> int:
        """Number of entries currently in the persistent tier."""
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

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
            # truncated write, foreign bytes, unpicklable after a code
            # change: drop the entry and recompute
            self.stats.corrupt_drops += 1
            metrics().counter("cache.corrupt_drops").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(design, BlockDesign):
            self.stats.corrupt_drops += 1
            metrics().counter("cache.corrupt_drops").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return design

    def _store_disk(self, key: str, design: BlockDesign) -> None:
        if self.cache_dir is None:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.cache_dir),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(design, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stats.stores += 1
            metrics().counter("cache.stores").inc()
            self._prune_disk()
        except OSError:
            # an unwritable cache directory degrades to memory-only
            pass

    def _prune_disk(self) -> None:
        if self.max_disk_entries is None or self.cache_dir is None:
            return
        entries = sorted(self.cache_dir.glob("*.pkl"),
                         key=lambda p: p.stat().st_mtime)
        while len(entries) > self.max_disk_entries:
            victim = entries.pop(0)
            try:
                victim.unlink()
                self.stats.evictions += 1
            except OSError:
                pass

    def clear_disk(self) -> None:
        """Delete every entry of the persistent tier."""
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        for path in self.cache_dir.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass

    # ---- the lookup ----------------------------------------------------

    def _remember(self, key: str, design: BlockDesign) -> None:
        if len(self._store) >= self.max_entries:
            # simple FIFO eviction; sweeps rarely exceed the default cap
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
        survives; see :meth:`clear_disk`)."""
        self._store.clear()
        self.stats = CacheStats()
