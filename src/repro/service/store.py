"""Shared result tier for the experiment broker.

A two-tier store of finished :class:`~repro.service.schema.PointResult`
objects keyed by :meth:`PointSpec.key` content hashes -- the broker
consults it before queuing a point to run, so a point any
client ever completed is served instantly to every later request:

* **memory** -- a FIFO-capped dict (same policy as the design cache's
  memory tier);
* **disk** -- pass ``cache_dir`` and every successful result is also
  written to ``<cache_dir>/results/<key>.json``, making the tier
  shared across broker restarts and across brokers pointed at one
  cache directory.

The disk tier borrows the design cache's failure contract: writes are
atomic (temp file + ``os.replace``, so concurrent brokers sharing a
directory never observe a torn file) and loads are
corruption-tolerant (a truncated, garbage or wrong-versioned file
counts as a miss and is deleted).  Only ``status == "ok"`` results are
stored -- failures must re-run, never replay.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .schema import PointResult, SchemaError, decode_line, encode_line

#: memory-tier entry cap of one store (FIFO eviction)
MAX_ENTRIES = 1024


class ResultStore:
    """Memory + optional disk store of canonical point results."""

    def __init__(self, cache_dir=None):
        self._memory: Dict[str, PointResult] = {}
        self.dir: Optional[Path] = None
        if cache_dir is not None:
            self.dir = Path(cache_dir) / "results"
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError:
                # unwritable directory degrades to memory-only
                self.dir = None

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Path:
        assert self.dir is not None
        return self.dir / f"{key}.json"

    def get(self, key: str) -> Optional[PointResult]:
        """The stored result for ``key``, or ``None`` on a miss."""
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        if self.dir is None:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            result = PointResult.from_wire(decode_line(raw))
            if result.key != key:
                raise SchemaError("stored under the wrong key")
        except SchemaError:
            # corrupt or stale-schema entry: drop it and recompute
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._remember(key, result)
        return result

    def put(self, result: PointResult) -> None:
        """Store a successful result under its content-hash key."""
        if result.status != "ok":
            return
        self._remember(result.key, result)
        if self.dir is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.dir), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(encode_line(result.to_wire()))
                os.replace(tmp, self._path(result.key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def _remember(self, key: str, result: PointResult) -> None:
        if key not in self._memory and \
                len(self._memory) >= MAX_ENTRIES:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
        self._memory[key] = result

    def clear(self) -> None:
        """Drop the memory tier (disk entries stay)."""
        self._memory.clear()
