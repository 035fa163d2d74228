"""Frozen wire schema for the experiment service.

One request surface for every way of running experiments: the CLI's
``bench`` / ``run`` subcommands, the library's
:func:`repro.parallel.run_sweep`, and the network broker
(``python -m repro serve`` / ``submit``) all construct and consume the
same three frozen dataclasses instead of re-threading ad-hoc argparse
flags into engine kwargs:

* :class:`PointSpec` -- one ``(experiment id, scale, seed)`` sweep
  point.  Its :meth:`PointSpec.key` is a content hash over the point
  *plus* the process fingerprint and the flow's ``CODE_VERSION`` --
  the coalescing/caching identity used by the broker, built from the
  same ingredients as the design cache's keys.
* :class:`SweepRequest` -- an ordered tuple of points plus resilience
  knobs, stamped with :data:`SCHEMA_VERSION`.
* :class:`PointResult` -- one point's outcome.  Its
  :meth:`PointResult.canonical_json` excludes timing/provenance
  (``wall_s`` / ``attempts`` / ``source``), so a streamed, coalesced
  or cache-served result is byte-identical to a serial control run of
  the same point.

Wire form is newline-delimited, key-sorted JSON (:func:`encode_line` /
:func:`decode_line`); every ``to_wire`` embeds the schema version and
every ``from_wire`` rejects versions it does not speak with
:class:`SchemaError` -- protocol mistakes fail loudly at the edge, not
deep inside a running point.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.experiments import ExperimentOptions
from ..core.cache import CODE_VERSION, process_fingerprint

#: bump when a wire message's shape changes incompatibly
SCHEMA_VERSION = 1

#: the statuses a point can finish with (mirrors ``ExperimentRun``)
RESULT_STATUSES = ("ok", "failed", "timeout")

#: where a streamed result came from
RESULT_SOURCES = ("computed", "cache")


class SchemaError(ValueError):
    """A malformed or version-incompatible wire object."""


def _check_version(payload: Dict[str, Any], what: str) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{what}: unsupported schema version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})")


def check_resilience(timeout_s: Optional[float], retries: int) -> None:
    """Reject resilience knobs no run can honour: a ``timeout_s`` that
    is neither ``None`` nor a finite number > 0, or ``retries`` < 0."""
    if timeout_s is not None and not (math.isfinite(timeout_s)
                                      and timeout_s > 0):
        raise SchemaError(f"timeout_s must be a finite number > 0 "
                          f"(or absent), got {timeout_s!r}")
    if retries < 0:
        raise SchemaError(f"retries must be >= 0, got {retries!r}")


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One wire message: key-sorted compact JSON plus a newline."""
    return (json.dumps(obj, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a dict; :class:`SchemaError` on junk."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"undecodable wire line: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(
            f"wire line must be a JSON object, got {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: which experiment, at what scale, which seed."""

    experiment_id: str
    scale: float = 1.0
    seed: int = 1

    def key(self, process=None) -> str:
        """Content-hash identity of this point's computation.

        Two points with the same key produce byte-identical canonical
        results, so the broker may compute one and fan the result out
        to every subscriber (coalescing) or serve it from the result
        store.  The key hashes the same ingredients as the design
        cache: the request fields, the technology-node fingerprint and
        the flow's ``CODE_VERSION`` -- a numerics change invalidates
        both tiers at once.
        """
        payload = {
            "kind": "experiment-point",
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "process": process_fingerprint(
                self._resolved_process(process)),
            "code_version": CODE_VERSION,
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @staticmethod
    def _resolved_process(process):
        if process is not None:
            return process
        from ..tech.process import make_process
        return make_process()

    def to_options(self, process=None, cache=None,
                   trace: bool = True) -> ExperimentOptions:
        """The :class:`ExperimentOptions` that runs this point."""
        return ExperimentOptions(process=process, scale=self.scale,
                                 seed=self.seed, cache=cache,
                                 trace=trace)

    def to_wire(self) -> Dict[str, Any]:
        return {"experiment_id": self.experiment_id,
                "scale": self.scale, "seed": self.seed}

    @staticmethod
    def from_wire(payload: Dict[str, Any]) -> "PointSpec":
        try:
            return PointSpec(experiment_id=str(payload["experiment_id"]),
                             scale=float(payload.get("scale", 1.0)),
                             seed=int(payload.get("seed", 1)))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad point spec {payload!r}: {exc}") \
                from None


@dataclass(frozen=True)
class SweepRequest:
    """A batch of sweep points plus their resilience knobs.

    The single request object every execution path consumes -- built
    by the CLI, sent over the wire by clients, and handed to
    :func:`repro.parallel.run_sweep` or the broker unchanged.
    """

    points: Tuple[PointSpec, ...]
    timeout_s: Optional[float] = None
    retries: int = 0

    @staticmethod
    def from_ids(ids: Optional[Iterable[str]] = None,
                 scale: float = 1.0, seed: int = 1,
                 timeout_s: Optional[float] = None,
                 retries: int = 0) -> "SweepRequest":
        """A uniform sweep over experiment ids (default: the whole
        registry, in registry order)."""
        if ids is None:
            from ..analysis.experiments import REGISTRY
            ids = list(REGISTRY)
        return SweepRequest(
            points=tuple(PointSpec(experiment_id=eid, scale=scale,
                                   seed=seed) for eid in ids),
            timeout_s=timeout_s, retries=retries)

    def experiment_ids(self) -> List[str]:
        return [p.experiment_id for p in self.points]

    def validate(self, known: Optional[Iterable[str]] = None) -> None:
        """Reject empty requests, unknown ids, duplicate points and
        impossible resilience knobs (:func:`check_resilience`).

        Duplicate *points* (same id, scale and seed twice in one
        request) are always an error: within one request they are pure
        waste -- coalescing exists for *concurrent* requests -- and
        historically they silently overwrote each other in id-keyed
        reports.
        """
        if not self.points:
            raise SchemaError("empty sweep request (no points)")
        check_resilience(self.timeout_s, self.retries)
        if known is not None:
            known = set(known)
            unknown = [p.experiment_id for p in self.points
                       if p.experiment_id not in known]
            if unknown:
                raise SchemaError(
                    f"unknown experiment ids: {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(known))}")
        seen = set()
        dupes = []
        for p in self.points:
            ident = (p.experiment_id, p.scale, p.seed)
            if ident in seen:
                dupes.append(p.experiment_id)
            seen.add(ident)
        if dupes:
            raise SchemaError(
                f"duplicate points in one request: {', '.join(dupes)} "
                f"(submit each (id, scale, seed) once; identical "
                f"concurrent requests coalesce server-side)")

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "points": [p.to_wire() for p in self.points],
            "retries": self.retries,
        }
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        return out

    @staticmethod
    def from_wire(payload: Dict[str, Any]) -> "SweepRequest":
        _check_version(payload, "sweep request")
        points = payload.get("points")
        if not isinstance(points, list):
            raise SchemaError("sweep request: 'points' must be a list")
        timeout_s = payload.get("timeout_s")
        try:
            return SweepRequest(
                points=tuple(PointSpec.from_wire(p) for p in points),
                timeout_s=None if timeout_s is None else float(timeout_s),
                retries=int(payload.get("retries", 0)))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad sweep request: {exc}") from None


@dataclass(frozen=True)
class PointResult:
    """One point's outcome as streamed back to a client.

    ``result`` is the :func:`repro.analysis.experiments.result_to_dict`
    serialization (empty for failed points); ``source`` records whether
    the broker computed the point or served it from the result store.
    """

    point: PointSpec
    key: str
    status: str
    all_passed: bool
    result: Dict[str, Any]
    attempts: int = 1
    wall_s: float = 0.0
    source: str = "computed"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def with_source(self, source: str) -> "PointResult":
        return replace(self, source=source)

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic identity of this result.

        Excludes timing and provenance (``wall_s`` / ``attempts`` /
        ``source``), so a coalesced, cached or streamed result is
        byte-comparable against a serial control run.
        """
        return {
            "point": self.point.to_wire(),
            "key": self.key,
            "status": self.status,
            "all_passed": self.all_passed,
            "result": self.result,
            "error": self.error,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "point": self.point.to_wire(),
            "key": self.key,
            "status": self.status,
            "all_passed": self.all_passed,
            "result": self.result,
            "attempts": self.attempts,
            "wall_s": self.wall_s,
            "source": self.source,
            "error": self.error,
        }

    @staticmethod
    def from_wire(payload: Dict[str, Any]) -> "PointResult":
        _check_version(payload, "point result")
        status = payload.get("status")
        if status not in RESULT_STATUSES:
            raise SchemaError(f"bad result status {status!r}")
        source = payload.get("source", "computed")
        if source not in RESULT_SOURCES:
            raise SchemaError(f"bad result source {source!r}")
        try:
            return PointResult(
                point=PointSpec.from_wire(payload["point"]),
                key=str(payload["key"]),
                status=status,
                all_passed=bool(payload.get("all_passed", False)),
                result=dict(payload.get("result") or {}),
                attempts=int(payload.get("attempts", 1)),
                wall_s=float(payload.get("wall_s", 0.0)),
                source=source,
                error=payload.get("error"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad point result: {exc}") from None

    @staticmethod
    def from_run(run, point: PointSpec, key: str,
                 source: str = "computed") -> "PointResult":
        """Wrap an engine :class:`~repro.parallel.ExperimentRun`."""
        return PointResult(point=point, key=key, status=run.status,
                           all_passed=run.all_passed, result=run.result,
                           attempts=run.attempts, wall_s=run.wall_s,
                           source=source, error=run.error)
