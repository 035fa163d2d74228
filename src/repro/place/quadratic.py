"""Quadratic global placement (bound-to-bound net model).

Solves the classic force-directed formulation used by Kraftwerk2 (paper
reference [7]) and the mixed-size 3D placer of reference [6]: wirelength
is approximated by a quadratic form whose minimum is found by solving two
sparse SPD linear systems (x and y separate).  Fixed objects -- ports,
macro pins, spreading anchors -- enter the right-hand side.

The bound-to-bound (B2B) weights are refreshed from the previous solution
so that the quadratic form approximates HPWL rather than squared star
length; two or three refresh rounds are ample for this model's scale.

The system is assembled in one shot from flat pin arrays: per-net lo/hi
endpoints come from ``np.minimum.reduceat``/``np.maximum.reduceat``, pair
weights from one vectorized formula, and the Laplacian triplets plus the
diagonal/rhs accumulation are emitted in exactly the order the legacy
per-pin loop produced them, so both paths build bit-identical systems
(``np.add.at`` is unbuffered and processes indices sequentially, and
scipy's duplicate summation only depends on the per-coordinate emission
order).  The legacy per-pin loop is kept as a test oracle for the parity
harness.

Each axis system is factored once in SuperLU's symmetric mode
(:func:`factor_b2b`) and solved.  That is the only solve path: the
oracle's general ``spsolve`` agrees with it to about 1e-10 um, which the
parity harness's HPWL band covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import SuperLU, splu

from ..obs import trace
from ..obs.metrics import metrics


@dataclass
class QPNet:
    """A net as seen by the quadratic solver.

    ``movable`` holds indices into the movable-cell arrays; ``fixed``
    holds (x, y) coordinates of fixed endpoints (ports, macro pins, via
    sites).  ``weight`` multiplies the net's contribution.
    """

    movable: List[int]
    fixed: List[Tuple[float, float]]
    weight: float = 1.0

    @property
    def degree(self) -> int:
        return len(self.movable) + len(self.fixed)


def b2b_weights(pa: np.ndarray, pb: np.ndarray,
                degree: np.ndarray) -> np.ndarray:
    """Vectorized B2B pair weights.

    Bit-identical to the legacy per-pair formula applied elementwise:
    the integer degree converts to float exactly, and both evaluate ``2.0 / (max(degree-1, 1) * max(|pa-pb|, 1.0))`` in
    the same operation order.
    """
    md = np.maximum(np.asarray(degree) - 1, 1).astype(np.float64)
    ms = np.maximum(np.abs(pa - pb), 1.0)
    return 2.0 / (md * ms)


class _FlatNets:
    """Net structure flattened to arrays for one-shot assembly.

    Pin layout matches the legacy loop's ``pts`` list: per net, movable
    endpoints first (in list order) then fixed endpoints -- the lo/hi
    tie-breaks and the per-pair emission order depend on it.
    """

    def __init__(self, nets: Sequence[QPNet]) -> None:
        nn = len(nets)
        self.weight = np.fromiter((net.weight for net in nets),
                                  dtype=np.float64, count=nn)
        self.deg = np.fromiter((net.degree for net in nets),
                               dtype=np.int64, count=nn)
        pin_idx: List[int] = []
        fx: List[float] = []
        fy: List[float] = []
        for net in nets:
            pin_idx.extend(net.movable)
            fx.extend([0.0] * len(net.movable))
            fy.extend([0.0] * len(net.movable))
            for gx, gy in net.fixed:
                pin_idx.append(-1)
                fx.append(gx)
                fy.append(gy)
        #: movable index per pin, -1 for fixed endpoints
        self.pin_idx = np.array(pin_idx, dtype=np.int64)
        #: fixed-endpoint coordinate per axis (0.0 at movable pins)
        self.fixed = (np.array(fx, dtype=np.float64),
                      np.array(fy, dtype=np.float64))
        self.total = int(self.deg.sum())
        self.start = np.zeros(nn, dtype=np.int64)
        if nn > 1:
            np.cumsum(self.deg[:-1], out=self.start[1:])
        self.pin_net = np.repeat(np.arange(nn, dtype=np.int64), self.deg)
        self.local = (np.arange(self.total, dtype=np.int64) -
                      self.start[self.pin_net])
        mov_mask = self.pin_idx >= 0
        self.mov_pos = np.flatnonzero(mov_mask)
        self.mov_idx = self.pin_idx[self.mov_pos]
        # a net of degree p emits (p-1) lo pairs + (p-2) hi pairs; the
        # p == 2 case collapses to the single lo pair (2p-3 == 1)
        npair = 2 * self.deg - 3
        self.pair_start = np.zeros(nn, dtype=np.int64)
        if nn > 1:
            np.cumsum(npair[:-1], out=self.pair_start[1:])
        self.n_pairs = int(npair.sum())
        self.pair_net = np.repeat(np.arange(nn, dtype=np.int64), npair)


def factor_b2b(mat: csr_matrix) -> SuperLU:
    """SuperLU factorization of one assembled B2B system.

    The matrix is exactly symmetric and diagonally dominant (every
    diagonal holds its row's off-diagonal weights plus fixed-pin,
    anchor and regularization terms), so diagonal pivots are stable:
    the factorization runs in symmetric mode, orders on ``A + A^T`` and
    never pivots off the diagonal (``perm_r == perm_c``).  On spc at
    scale 2 the factor holds about a third of the entries that a
    general COLAMD order with partial pivoting fills in.
    """
    return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class QuadraticPlacer:
    """Minimizes B2B quadratic wirelength for movable points."""

    def __init__(self, n_movable: int, nets: Sequence[QPNet]) -> None:
        self.n = n_movable
        self.nets = [net for net in nets if net.degree >= 2
                     and len(net.movable) >= 1]
        self._flat: Optional[_FlatNets] = None

    def solve(self, x0: np.ndarray, y0: np.ndarray,
              anchors: Optional[Tuple[np.ndarray, np.ndarray, float]] = None,
              rounds: int = 2) -> Tuple[np.ndarray, np.ndarray]:
        """Return placed (x, y) starting from ``(x0, y0)``.

        Args:
            x0, y0: initial coordinates (used for the first B2B weights).
            anchors: optional (ax, ay, strength) pseudo-net pulling every
                movable cell toward its anchor -- the standard spreading
                feedback force.
            rounds: B2B reweighting rounds.
        """
        x, y = x0.copy(), y0.copy()
        for _ in range(max(1, rounds)):
            x = self._solve_axis(x, axis=0, anchors=anchors)
            y = self._solve_axis(y, axis=1, anchors=anchors)
        return x, y

    def _solve_axis(self, coords: np.ndarray, axis: int,
                    anchors) -> np.ndarray:
        metrics().counter("place.qp_solves").inc()
        mat, rhs = self._assemble_axis(coords, axis, anchors)
        with trace.span("place.solve", axis=axis, cells=self.n) as sp:
            lu = factor_b2b(mat)
            sp.set(fill=lu.nnz)
            return lu.solve(rhs)

    def _assemble_axis(self, coords: np.ndarray, axis: int,
                       anchors) -> Tuple[csr_matrix, np.ndarray]:
        """Batched one-shot build of the B2B system for one axis."""
        f = self._flat
        if f is None:
            f = self._flat = _FlatNets(self.nets)
        n = self.n
        rhs = np.zeros(n)
        diag = np.zeros(n)

        if f.n_pairs:
            pc = f.fixed[axis].copy()
            pc[f.mov_pos] = coords[f.mov_idx]
            posn = np.arange(f.total, dtype=np.int64)
            # lo = first pin attaining the net min, hi = last attaining
            # the max -- the stable-sort semantics of the legacy loop
            minv = np.minimum.reduceat(pc, f.start)
            maxv = np.maximum.reduceat(pc, f.start)
            lo_g = np.minimum.reduceat(
                np.where(pc == minv[f.pin_net], posn, f.total), f.start)
            hi_g = np.maximum.reduceat(
                np.where(pc == maxv[f.pin_net], posn, -1), f.start)
            lo_loc = lo_g - f.start
            hi_loc = hi_g - f.start
            lo_pin = lo_g[f.pin_net]
            hi_pin = hi_g[f.pin_net]
            # slot arithmetic places every pair at its legacy stream
            # position: net-major, lo-phase then hi-phase, pins in order
            m1 = posn != lo_pin
            slot1 = (f.pair_start[f.pin_net] + f.local -
                     (f.local > lo_loc[f.pin_net]))
            m2 = m1 & (posn != hi_pin)
            slot2 = (f.pair_start[f.pin_net] + f.deg[f.pin_net] - 1 +
                     f.local - (f.local > lo_loc[f.pin_net]) -
                     (f.local > hi_loc[f.pin_net]))
            a_pos = np.empty(f.n_pairs, dtype=np.int64)
            b_pos = np.empty(f.n_pairs, dtype=np.int64)
            a_pos[slot1[m1]] = lo_pin[m1]
            b_pos[slot1[m1]] = posn[m1]
            a_pos[slot2[m2]] = hi_pin[m2]
            b_pos[slot2[m2]] = posn[m2]

            ai = f.pin_idx[a_pos]
            bi = f.pin_idx[b_pos]
            ac = pc[a_pos]
            bc = pc[b_pos]
            w = f.weight[f.pair_net] * b2b_weights(ac, bc,
                                                   f.deg[f.pair_net])
            amov = ai >= 0
            bmov = bi >= 0

            # off-diagonals: (a, b, -w) then (b, a, -w) per pair --
            # scipy's duplicate summation follows this emission order
            rows2 = np.empty(2 * f.n_pairs, dtype=np.int64)
            cols2 = np.empty(2 * f.n_pairs, dtype=np.int64)
            rows2[0::2] = ai
            cols2[0::2] = bi
            rows2[1::2] = bi
            cols2[1::2] = ai
            keep = np.repeat(amov & bmov, 2)
            orows = rows2[keep]
            ocols = cols2[keep]
            ovals = np.repeat(-w, 2)[keep]

            # diag/rhs: np.add.at is unbuffered, so feeding it the pair
            # stream (a slot before b slot) reproduces the legacy
            # per-entry accumulation order, hence the exact float sums
            d_idx = np.empty(2 * f.n_pairs, dtype=np.int64)
            d_idx[0::2] = np.where(amov, ai, -1)
            d_idx[1::2] = np.where(bmov, bi, -1)
            d_keep = d_idx >= 0
            np.add.at(diag, d_idx[d_keep], np.repeat(w, 2)[d_keep])

            r_idx = np.empty(2 * f.n_pairs, dtype=np.int64)
            r_val = np.empty(2 * f.n_pairs)
            r_idx[0::2] = np.where(amov & ~bmov, ai, -1)
            r_val[0::2] = w * bc
            r_idx[1::2] = np.where(bmov & ~amov, bi, -1)
            r_val[1::2] = w * ac
            r_keep = r_idx >= 0
            np.add.at(rhs, r_idx[r_keep], r_val[r_keep])
        else:
            orows = np.empty(0, dtype=np.int64)
            ocols = np.empty(0, dtype=np.int64)
            ovals = np.empty(0)

        if anchors is not None:
            ax, ay, strength = anchors
            target = ax if axis == 0 else ay
            diag += strength
            rhs += strength * target

        # tiny regularization keeps the system SPD even for isolated cells
        diag += 1e-6
        rows = np.concatenate([orows, np.arange(n, dtype=np.int64)])
        cols = np.concatenate([ocols, np.arange(n, dtype=np.int64)])
        vals = np.concatenate([ovals, diag])
        mat = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return mat, rhs
