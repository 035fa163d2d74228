"""Fault plans: what to break, where, and on which attempt.

A :class:`FaultSpec` names one fault: a *kind* plus the coordinates it
fires at -- task id (experiment id or grid-point label), stage name
(``generate`` / ``place`` / ``optimize`` / ``power`` / ``task`` /
``cache.load``) and attempt number.  Task and stage are ``fnmatch``
patterns, so ``task=fig*`` or ``stage=*`` sweep whole families.  A
:class:`FaultPlan` bundles specs with the seed that (optionally)
generated them; matching is a pure function of ``(task, stage,
attempt)``, which is what makes a chaos run replayable: the same plan
against the same request injects the identical fault sequence.

The plan grammar (``REPRO_FAULTS``) is a ``;``-separated list of
specs, each a kind followed by ``key=value`` fields::

    REPRO_FAULTS="raise task=fig6 stage=optimize attempt=1; \
                  slow task=* stage=place seconds=0.05"

Fields: ``task`` (default ``*``), ``stage`` (default ``*``),
``attempt`` (default ``1``; ``0`` fires on *every* attempt, making the
fault unrecoverable), ``seconds`` (hang/slow duration).
:meth:`FaultPlan.to_text` prints the same grammar back, so plans
round-trip through the environment and into engine workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import List, Optional, Sequence, Tuple

#: the supported fault kinds
FAULT_KINDS = ("raise", "hang", "slow", "corrupt", "crash")

#: default hang length -- "forever" at task scale; a hung worker is
#: expected to be killed by the engine's timeout, not to wake up
DEFAULT_HANG_S = 3600.0
#: default slow-stage delay
DEFAULT_SLOW_S = 0.05


class FaultPlanError(ValueError):
    """A fault-plan string that does not parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind + the (task, stage, attempt) it fires at.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        task: ``fnmatch`` pattern on the task id (experiment id).
        stage: ``fnmatch`` pattern on the hook's stage name.
        attempt: 1-based attempt that triggers the fault; ``0`` means
            every attempt (the fault is unrecoverable by retrying).
        seconds: duration for ``hang``/``slow`` kinds.
    """

    kind: str
    task: str = "*"
    stage: str = "*"
    attempt: int = 1
    seconds: float = DEFAULT_SLOW_S

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}")
        if self.attempt < 0:
            raise FaultPlanError("attempt must be >= 0 "
                                 f"(got {self.attempt})")
        if self.seconds < 0:
            raise FaultPlanError("seconds must be >= 0 "
                                 f"(got {self.seconds})")

    def matches(self, task: str, stage: str, attempt: int) -> bool:
        """Does this spec fire at (task, stage, attempt)?"""
        if self.attempt and attempt != self.attempt:
            return False
        return (fnmatchcase(task, self.task)
                and fnmatchcase(stage, self.stage))

    def to_text(self) -> str:
        """The spec in ``REPRO_FAULTS`` grammar."""
        parts = [self.kind, f"task={self.task}", f"stage={self.stage}",
                 f"attempt={self.attempt}"]
        if self.kind in ("hang", "slow"):
            parts.append(f"seconds={self.seconds:g}")
        return " ".join(parts)


def _parse_spec(text: str) -> FaultSpec:
    tokens = text.split()
    kind = tokens[0]
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise FaultPlanError(
                f"expected key=value, got {tok!r} in {text!r}")
        key, _, value = tok.partition("=")
        if key in ("task", "stage"):
            kwargs[key] = value
        elif key == "attempt":
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise FaultPlanError(
                    f"attempt must be an integer, got {value!r}") from None
        elif key == "seconds":
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise FaultPlanError(
                    f"seconds must be a number, got {value!r}") from None
        else:
            raise FaultPlanError(
                f"unknown fault field {key!r} in {text!r}; "
                f"fields: task, stage, attempt, seconds")
    if kind == "hang" and "seconds" not in kwargs:
        kwargs["seconds"] = DEFAULT_HANG_S
    return FaultSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs plus the seed that derives any
    randomness (corruption bytes, generated specs)."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __len__(self) -> int:
        return len(self.specs)

    def match(self, task: str, stage: str,
              attempt: int) -> List[Tuple[int, FaultSpec]]:
        """Specs firing at (task, stage, attempt), with their indices.

        The index is the spec's position in the plan -- stable across
        processes, it keys the fire-once bookkeeping and the seeded
        corruption bytes.
        """
        return [(i, s) for i, s in enumerate(self.specs)
                if s.matches(task, stage, attempt)]

    def to_text(self) -> str:
        """The whole plan in ``REPRO_FAULTS`` grammar (round-trips
        through :meth:`parse`)."""
        return "; ".join(s.to_text() for s in self.specs)

    @staticmethod
    def parse(text: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar into a plan.

        Raises:
            FaultPlanError: on unknown kinds, malformed fields or
                unparseable numbers.
        """
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if chunk:
                specs.append(_parse_spec(chunk))
        return FaultPlan(specs=tuple(specs), seed=seed)

    @staticmethod
    def seeded(seed: int,
               tasks: Optional[Sequence[str]] = None,
               n_faults: Optional[int] = None,
               kinds: Sequence[str] = ("raise", "slow", "hang",
                                       "corrupt")) -> "FaultPlan":
        """Generate a deterministic chaos plan from a seed.

        The same ``(seed, tasks)`` always yields the identical plan
        (string-seeded :class:`random.Random` is stable across
        processes and hash randomization).  The plan always contains
        at least one ``raise`` at the engine-level ``task`` stage on
        attempt 1, so a chaos run against any task set is guaranteed
        to inject (and recover from, given one retry) at least one
        fault.

        Args:
            seed: plan seed; recorded on the plan for replay.
            tasks: concrete task ids to aim at (default: ``*``).
            n_faults: number of extra random specs (default 2-3,
                seed-derived).
            kinds: the fault kinds the generator may pick from.
        """
        rng = random.Random(f"repro-fault-plan:{seed}")
        pool = list(tasks) if tasks else ["*"]
        stages = ("generate", "place", "optimize", "power", "task")
        n = n_faults if n_faults is not None else 2 + rng.randrange(2)
        specs: List[FaultSpec] = [
            FaultSpec(kind="raise", task=rng.choice(pool), stage="task",
                      attempt=1)]
        for _ in range(n):
            kind = rng.choice(list(kinds))
            task = rng.choice(pool)
            if kind == "corrupt":
                specs.append(FaultSpec(kind="corrupt", task=task,
                                       stage="cache.load", attempt=1))
            elif kind == "hang":
                specs.append(FaultSpec(kind="hang", task=task,
                                       stage=rng.choice(stages),
                                       attempt=1,
                                       seconds=DEFAULT_HANG_S))
            else:
                attempt = 0 if rng.random() < 0.15 else 1
                seconds = (round(0.01 + rng.random() * 0.05, 3)
                           if kind == "slow" else DEFAULT_SLOW_S)
                specs.append(FaultSpec(kind=kind, task=task,
                                       stage=rng.choice(stages),
                                       attempt=attempt, seconds=seconds))
        return FaultPlan(specs=tuple(specs), seed=seed)
