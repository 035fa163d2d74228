"""The typed ECO move vocabulary.

An ECO (engineering change order) edits a *finished* design in place --
no re-synthesis, no fresh placement.  The vocabulary here covers the
post-route edits the paper's flow would see in practice:

* :class:`Resize` -- swap a cell to another drive strength;
* :class:`VthSwap` -- swap a cell's threshold flavor (RVT/HVT);
* :class:`BufferInsert` -- repeater a long or overloaded net (the
  plan/apply split of :mod:`repro.opt.buffering` decides chain vs
  fanout form);
* :class:`BufferRemove` -- delete a repeater and heal the wiring
  through it;
* :class:`Displace` -- move a cell, optionally re-legalizing it into
  its row neighborhood.

Moves are frozen dataclasses so batches hash and compare -- the closure
driver fingerprints planned move sets with :func:`move_key` to detect
oscillation (the same set planned twice means the engine is undoing its
own work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..opt.buffering import BUFFER_DRIVE


class EcoError(ValueError):
    """An ECO move batch failed validation; nothing was applied."""


@dataclass(frozen=True)
class Resize:
    """Swap ``inst_id`` to the drive-``drive`` variant of its master."""

    inst_id: int
    drive: int


@dataclass(frozen=True)
class VthSwap:
    """Swap ``inst_id`` to the ``vth`` flavor of its master."""

    inst_id: int
    vth: str


@dataclass(frozen=True)
class BufferInsert:
    """Buffer net ``net_id`` (chain or fanout split, per the planner).

    A no-op (applied count 0) when the net no longer triggers the
    buffering rules -- e.g. it was already repaired by a prior move.
    """

    net_id: int
    drive: int = BUFFER_DRIVE


@dataclass(frozen=True)
class BufferRemove:
    """Remove buffer ``inst_id``; its output net is rewired to the
    buffer's own driver and the now-dangling input net is deleted."""

    inst_id: int


@dataclass(frozen=True)
class Displace:
    """Move ``inst_id`` to ``(x, y)``; ``legalize`` snaps it to a legal
    row slot near the target (needs the session's outline)."""

    inst_id: int
    x: float
    y: float
    legalize: bool = False


EcoMove = Union[Resize, VthSwap, BufferInsert, BufferRemove, Displace]


def move_key(move: EcoMove) -> Tuple:
    """A hashable fingerprint of one move (kind + target + payload)."""
    kind = type(move).__name__
    if isinstance(move, Resize):
        return (kind, move.inst_id, move.drive)
    if isinstance(move, VthSwap):
        return (kind, move.inst_id, move.vth)
    if isinstance(move, BufferInsert):
        return (kind, move.net_id, move.drive)
    if isinstance(move, BufferRemove):
        return (kind, move.inst_id)
    if isinstance(move, Displace):
        return (kind, move.inst_id, move.x, move.y, move.legalize)
    raise EcoError(f"unknown ECO move type: {kind}")
