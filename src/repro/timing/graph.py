"""Levelized structure-of-arrays timing graph.

Setup STA (:func:`repro.timing.sta.run_sta`), hold
(:func:`repro.timing.hold.run_hold_analysis`) and the I/O path halves
(:func:`repro.timing.paths.io_path_delays`) all run on a
**TimingGraph**: a flat array view of the routed netlist (instances,
per-sink Elmore wire delays, driver loads, combinational edges) plus a
one-shot Kahn levelization.  Each analysis is a handful of vectorized
gathers and segment reductions per level instead of per-node Python.

Bit-exactness contract against the per-node dict/deque walk kept as a
test oracle (verified by ``tests/test_sta_parity.py``; the full
argument lives in ``docs/timing.md``):

* order-free reductions (arrival max, required/hold min, WNS/WHS) are
  computed with vector ``max``/``min`` -- comparison-based and
  therefore bit-exact regardless of evaluation order;
* ordered float accumulations (driver loads, TNS) keep the scalar
  path's sequential order -- loads via ``np.bincount`` (which adds
  per-segment weights in flat element order) over nets in netlist
  order, TNS via a small Python loop over the canonical arrival order;
* every elementwise float expression (cell delay, Elmore terms,
  backward-edge requireds) replicates the scalar operand order
  operation for operation;
* dict *iteration order* of ``STAResult.arrival`` reproduces the
  scalar engine's FIFO completion order.  That order is purely
  structural: seeds enqueue in instance order, and a node enqueues the
  moment its last predecessor edge relaxes, i.e. at the lexicographic
  max over its in-edges of ``(predecessor completion position, edge
  construction index)`` -- so the canonical order is recovered level by
  level without running the scalar walk.  ``required`` iterates in the
  scalar backward order ``sorted by (-arrival, instance id)``.

The graph assumes every cell delay is positive (true for the whole
generated library), which makes arrivals strictly increasing along
edges; the scalar backward pass's arrival-sorted order is then a
reverse topological order and level-descending processing matches it.

Rejected inputs: a combinational cycle or a net endpoint on an
instance missing from the netlist raises ``ValueError`` naming the
cells or nets; setup STA additionally rejects routed sinks out of
positional sync with the netlist (stale routing after surgery).

Caching: the flat net view lives on the :class:`RoutingResult`
(:meth:`~repro.route.estimate.RoutingResult.net_arrays`, keyed by the
netlist's connectivity revision); the levelized graph with its delay
tables is cached on that view keyed by the netlist's master revision,
so a setup + hold + I/O-path sweep over one snapshot builds the graph
once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..route.estimate import NetArrays, RoutingResult
from .sta import MACRO_SETUP_PS, SETUP_PS

_NEG_INF = float("-inf")
_INF = float("inf")


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], ends[i])`` ranges into one index array."""
    cnts = ends - starts
    total = int(cnts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.repeat(np.cumsum(cnts) - cnts, cnts)
    return np.repeat(starts, cnts) + np.arange(total, dtype=np.int64) - offs


class TimingGraph:
    """Levelized array form of one routed netlist snapshot."""

    def __init__(self, netlist: Netlist, arrays: NetArrays) -> None:
        self.mrev = netlist.mrev

        insts = netlist.instances
        iids: List[int] = []
        mac: List[bool] = []
        seq: List[bool] = []
        intr: List[float] = []
        res: List[float] = []
        memo: Dict[int, Tuple[bool, bool, float, float]] = {}
        for inst in insts.values():
            m = inst.master
            t = memo.get(id(m))
            if t is None:
                im = inst.is_macro
                t = (im, (not im) and m.is_sequential,
                     m.intrinsic_delay_ps, m.drive_res_kohm)
                memo[id(m)] = t
            iids.append(inst.id)
            mac.append(t[0])
            seq.append(t[1])
            intr.append(t[2])
            res.append(t[3])

        self.iids = np.asarray(iids, dtype=np.int64)
        V = self.V = len(iids)
        self.is_macro = np.asarray(mac, dtype=bool)
        self.is_seq = np.asarray(seq, dtype=bool)
        intrinsic = np.asarray(intr, dtype=np.float64)
        drive_res = np.asarray(res, dtype=np.float64)

        # -- dense endpoint indices ------------------------------------
        # ids come from Netlist._next_inst in insertion order, so
        # self.iids is strictly increasing and searchsorted is exact
        s_raw = arrays.sink_inst
        net_row = arrays.sink_net
        sp = arrays.sink_is_port
        d_raw = arrays.drv_inst
        drvp = arrays.drv_is_port
        if V:
            sd = np.searchsorted(self.iids, np.clip(s_raw, 0, None))
            sd = np.clip(sd, 0, V - 1)
            dd = np.searchsorted(self.iids, np.clip(d_raw, 0, None))
            dd = np.clip(dd, 0, V - 1)
            bad_sink = (~sp) & (self.iids[sd] != s_raw)
            bad_drv = (~drvp) & (self.iids[dd] != d_raw)
        else:
            sd = np.zeros(len(s_raw), dtype=np.int64)
            dd = np.zeros(len(d_raw), dtype=np.int64)
            bad_sink, bad_drv = ~sp, ~drvp
        if bool(bad_sink.any()) or bool(bad_drv.any()):
            rows = np.union1d(net_row[bad_sink], np.flatnonzero(bad_drv))
            nets = [netlist.nets[nid].name
                    for nid in arrays.net_ids[rows].tolist()]
            raise ValueError(
                f"dangling endpoint: net(s) {_names(nets)} connect to "
                f"instances missing from netlist {netlist.name!r}")

        mac_sd = self.is_macro[sd] if V else np.zeros(len(sd), dtype=bool)
        seq_sd = self.is_seq[sd] if V else np.zeros(len(sd), dtype=bool)
        mac_dd = self.is_macro[dd] if V else np.zeros(len(dd), dtype=bool)
        #: nets whose routed sinks no longer match the netlist's sinks
        #: position for position (see :meth:`reject_stale`)
        self.stale_nets = [netlist.nets[nid].name for nid in
                           arrays.net_ids[~arrays.matched].tolist()]

        # -- driver loads and cell delays (ordered accumulation) -------
        # predicate = net_loads_driver: non-clock (already filtered),
        # instance driver, pin 0 or macro; the bincount adds
        # total_cap_ff per driver sequentially in netlist net order,
        # matching the scalar loops bit for bit
        mask_load = (~drvp) & ((arrays.drv_pin == 0) | mac_dd)
        if V:
            self.loads = np.bincount(dd[mask_load],
                                     weights=arrays.total_cap[mask_load],
                                     minlength=V)
        else:
            self.loads = np.zeros(0, dtype=np.float64)
        # CellMaster.delay_ps: intrinsic + drive_res * load; macros
        # launch with their intrinsic access time
        self.delay = np.where(self.is_macro, intrinsic,
                              intrinsic + drive_res * self.loads)

        # -- edge groups over the flat sink rows -----------------------
        drvp_row = drvp[net_row]
        nonport = ~sp
        tmac = nonport & mac_sd
        tseq = nonport & seq_sd
        term = tmac | tseq

        m_comb = (~drvp_row) & nonport & ~term
        self.e_src = dd[net_row[m_comb]]
        self.e_dst = sd[m_comb]
        self.e_wd = arrays.sink_wd[m_comb]
        e_idx = np.flatnonzero(m_comb)   # scalar succ-list append order

        m_ti = (~drvp_row) & term
        self.t_i_drv = dd[net_row[m_ti]]
        self.t_i_wd = arrays.sink_wd[m_ti]
        self.t_i_macro = tmac[m_ti]
        self.t_i_sink_raw = s_raw[m_ti]  # hold capture instance ids
        # the I/O-path capture setup margin per entry (constant)
        self.io_cap_setup = np.where(self.t_i_macro, MACRO_SETUP_PS,
                                     SETUP_PS)

        m_tp = (~drvp_row) & sp
        self.t_p_drv = dd[net_row[m_tp]]
        self.t_p_wd = arrays.sink_wd[m_tp]
        tp_rows = np.flatnonzero(m_tp)
        tp_names = [arrays.sink_ports[i] for i in tp_rows.tolist()]
        self.tp_names, self.t_p_name_idx = _intern(tp_names)

        m_pf = drvp_row & nonport & ~term
        self.pf_dst = sd[m_pf]
        self.pf_wd = arrays.sink_wd[m_pf]
        pf_rows = net_row[m_pf]
        pf_names = [arrays.drv_ports[i] for i in pf_rows.tolist()]
        self.pf_names, self.pf_name_idx = _intern(pf_names)

        # I/O-path port seeds: max(0, wire delays) per port-driven node
        mb = np.full(V, _NEG_INF)
        np.maximum.at(mb, self.pf_dst, self.pf_wd)
        self.port_base = np.where(mb > _NEG_INF, np.maximum(mb, 0.0),
                                  _NEG_INF)

        # hold capture emission order: drivers by first appearance,
        # entries per driver in append order (scalar dict iteration)
        C = len(self.t_i_drv)
        first: Dict[int, int] = {}
        rank = np.empty(C, dtype=np.int64)
        drv_list = self.t_i_drv.tolist()
        for i, d in enumerate(drv_list):
            r = first.get(d)
            if r is None:
                r = first[d] = len(first)
            rank[i] = r
        self.cap_perm = np.lexsort((np.arange(C, dtype=np.int64), rank))

        # -- levelization (pure structure, value-independent) ----------
        E = len(self.e_src)
        pred = np.bincount(self.e_dst, minlength=V) if V else \
            np.zeros(0, dtype=np.int64)
        self.pred_count = pred
        s_ord = np.argsort(self.e_src, kind="stable")
        s_src = self.e_src[s_ord]
        s_indptr = np.searchsorted(s_src, np.arange(V + 1))
        d_ord = np.argsort(self.e_dst, kind="stable")
        d_dst = self.e_dst[d_ord]
        d_indptr = np.searchsorted(d_dst, np.arange(V + 1))
        d_src = self.e_src[d_ord]
        d_wd = self.e_wd[d_ord]
        d_eidx = e_idx[d_ord]
        s_dst = self.e_dst[s_ord]
        s_wd = self.e_wd[s_ord]

        seed = self.is_macro | self.is_seq | (pred == 0)
        self.seed_mask = seed
        proc_pos = np.full(V, -1, dtype=np.int64)
        w0 = np.flatnonzero(seed)
        proc_pos[w0] = np.arange(len(w0), dtype=np.int64)
        next_pos = len(w0)
        waves = [w0]
        # per-wave cached gathers: forward in-edges (grouped per node in
        # wave order) and backward out-edges (nodes that have any)
        self.fin: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (np.empty(0, np.int64), np.empty(0, np.float64),
             np.empty(0, np.int64))]
        remaining = pred.copy()
        done = seed.copy()
        frontier = w0
        while True:
            rows = _ranges(s_indptr[frontier], s_indptr[frontier + 1])
            if rows.size == 0:
                break
            cnt = np.bincount(s_dst[rows], minlength=V)
            remaining -= cnt
            new = np.flatnonzero((remaining == 0) & (cnt > 0) & ~done)
            if new.size == 0:
                break
            # completion keys: lex-max over in-edges of
            # (pred completion position, edge construction index)
            r2 = _ranges(d_indptr[new], d_indptr[new + 1])
            cnt2 = d_indptr[new + 1] - d_indptr[new]
            owner = np.repeat(np.arange(len(new), dtype=np.int64), cnt2)
            p = proc_pos[d_src[r2]]
            e = d_eidx[r2]
            perm = np.lexsort((e, p, owner))
            last = np.cumsum(cnt2) - 1
            kp = p[perm][last]
            ke = e[perm][last]
            worder = np.lexsort((ke, kp))
            wave_nodes = new[worder]
            proc_pos[wave_nodes] = next_pos + \
                np.arange(len(wave_nodes), dtype=np.int64)
            next_pos += len(wave_nodes)
            done[new] = True
            waves.append(wave_nodes)
            # in-edge gather for the forward value pass, in wave order
            r3 = _ranges(d_indptr[wave_nodes], d_indptr[wave_nodes + 1])
            cnt3 = d_indptr[wave_nodes + 1] - d_indptr[wave_nodes]
            starts3 = np.cumsum(cnt3) - cnt3
            self.fin.append((d_src[r3], d_wd[r3], starts3))
            frontier = wave_nodes

        if V and not bool(done.all()):
            stuck = self.iids[~done].tolist()
            raise ValueError(
                f"combinational cycle in netlist {netlist.name!r}: cells "
                f"{_names([insts[i].name for i in stuck])} lie on or "
                f"behind a loop with no flop or macro")

        self.waves = waves
        self.canon = np.concatenate(waves) if waves else \
            np.empty(0, dtype=np.int64)
        self.canon_iids = self.iids[self.canon].tolist()
        self.seed_comb = w0[~(self.is_macro[w0] | self.is_seq[w0])]
        self.n_levels = len(waves)

        # backward out-edge gathers per wave (only nodes with edges)
        self.bout: List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]] = []
        for nodes in waves:
            has = s_indptr[nodes + 1] > s_indptr[nodes]
            bn = nodes[has]
            r4 = _ranges(s_indptr[bn], s_indptr[bn + 1])
            cnt4 = s_indptr[bn + 1] - s_indptr[bn]
            starts4 = np.cumsum(cnt4) - cnt4
            self.bout.append((bn, s_dst[r4], s_wd[r4], starts4))

    def reject_stale(self) -> None:
        """Raise if any routed net's sinks are out of sync with the netlist.

        Setup STA walks sinks in netlist order and takes wire delays from
        the routing, so a routing taken before netlist surgery would pair
        delays with the wrong sinks.  Hold and the I/O path halves walk
        the routed sinks only and do not need this check.
        """
        if self.stale_nets:
            raise ValueError(
                f"stale routing: net(s) {_names(self.stale_nets)} changed "
                f"sinks since they were routed; re-route before timing")

    # -- forward max/min value propagation -----------------------------

    def forward_max(self, comb_in: np.ndarray,
                    seed_arr: np.ndarray) -> np.ndarray:
        """Levelized longest-arrival pass.

        ``comb_in`` carries the external seeds (port arrivals) and is
        updated in place; ``seed_arr`` holds level-0 arrivals.
        """
        arr = seed_arr
        for ell in range(1, len(self.waves)):
            nodes = self.waves[ell]
            src, wd, starts = self.fin[ell]
            t = arr[src] + wd
            m = np.maximum.reduceat(t, starts) if len(t) else \
                np.empty(0, np.float64)
            ci = np.maximum(m, comb_in[nodes])
            comb_in[nodes] = ci
            arr[nodes] = ci + self.delay[nodes]
        return arr

    def forward_min(self, seed_arr: np.ndarray) -> np.ndarray:
        """Levelized shortest-arrival pass (hold)."""
        arr = seed_arr
        for ell in range(1, len(self.waves)):
            nodes = self.waves[ell]
            src, wd, starts = self.fin[ell]
            t = arr[src] + wd
            m = np.minimum.reduceat(t, starts) if len(t) else \
                np.empty(0, np.float64)
            arr[nodes] = m + self.delay[nodes]
        return arr

    def backward_min(self, req: np.ndarray) -> np.ndarray:
        """Levelized required-time pass, level-descending.

        ``req`` arrives seeded with the terminal requirements and is
        tightened in place: each node takes the min over its out-edges
        of ``(req[sink] - delay[sink]) - wire_delay`` (the scalar
        ``r_sink < INF`` guard is a no-op because ``inf`` minus a
        finite delay stays ``inf``).
        """
        for ell in range(len(self.waves) - 1, -1, -1):
            bn, dst, wd, starts = self.bout[ell]
            if len(bn) == 0:
                continue
            t = (req[dst] - self.delay[dst]) - wd
            m = np.minimum.reduceat(t, starts)
            req[bn] = np.minimum(req[bn], m)
        return req


def _intern(names: List[Optional[str]]
            ) -> Tuple[List[Optional[str]], np.ndarray]:
    """(unique names, per-entry index) for cheap per-call io lookups."""
    uniq: List[Optional[str]] = []
    where: Dict[Optional[str], int] = {}
    idx = np.empty(len(names), dtype=np.int64)
    for i, nm in enumerate(names):
        j = where.get(nm)
        if j is None:
            j = where[nm] = len(uniq)
            uniq.append(nm)
        idx[i] = j
    return uniq, idx


def _names(names: List[str], limit: int = 8) -> str:
    """``'a', 'b', ... (+N more)`` for error messages."""
    shown = ", ".join(repr(n) for n in names[:limit])
    extra = len(names) - limit
    return f"{shown} (+{extra} more)" if extra > 0 else shown


def graph_for(netlist: Netlist, routing: RoutingResult) -> TimingGraph:
    """The cached levelized graph for a routed snapshot.

    Raises:
        ValueError: on a combinational cycle or a dangling endpoint.
    """
    from ..obs.metrics import metrics

    arrays = routing.net_arrays(netlist)
    g = getattr(arrays, "_graph", None)
    if g is None or g.mrev != netlist.mrev:
        g = TimingGraph(netlist, arrays)
        arrays._graph = g
        metrics().counter("sta.levels").inc(g.n_levels)
    return g
