"""Snapshot Bellman-Ford: hop-indexed label rows with per-step predecessors.

Each step computes every new label from the previous step's row only, so
after k steps ``labels[k][v]`` is exactly the least weight of a
source-to-v walk with at most k hops.  Edge relaxation order inside a step
can never change the result: the step is a pure min over candidates, and
ties pick the smallest attaining source vertex (then smallest edge index).

Two engines share these semantics.  The default one vectorizes all sources
of a run at once through numpy; `_run_multi_generic` accepts any weight
domain through an ops object (used for exact rationals and for affine
values during the parametric search), batching its comparisons into rounds
so a comparison resolver can process each parallel round at once.

Every numpy step goes through `_min_in_edges`.  `relax` applies it to
distance rows alone, from any start rows, and keeps no per-step tables;
the label engine adds the snapshots and predecessors the hub layer reads.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Digraph, Path, INF
from .meter import CostMeter


class HopLabels:
    """Label snapshots from one source.

    ``labels`` is a (steps+1, n) table of hop-limited distances.
    ``pred_edges`` row i holds the edge that strictly improved v between
    snapshots i and i+1 (-1 when none); `preds` exposes the same rows as
    source vertex ids.  ``relaxed`` row i is the best in-edge candidate for
    each vertex at step i+1 regardless of improvement, with the attaining
    edge in ``relax_edges``; the cycle detectors use it to examine
    closed-walk values without the zero-weight empty walk shadowing them.
    Runs that skip the relax rows leave the last two fields None.
    """

    __slots__ = ("graph", "source", "steps", "labels", "pred_edges",
                 "relaxed", "relax_edges", "_cmp")

    def __init__(self, graph, source, steps, labels, pred_edges, relaxed,
                 relax_edges, cmp=None):
        self.graph = graph
        self.source = source
        self.steps = steps
        self.labels = labels
        self.pred_edges = pred_edges
        self.relaxed = relaxed
        self.relax_edges = relax_edges
        self._cmp = cmp

    @property
    def preds(self):
        """Per-step predecessor vertex ids; -1 where no strict improvement."""
        if self.pred_edges is None:
            raise ValueError("run did not record predecessors")
        if isinstance(self.pred_edges, np.ndarray):
            out = np.full_like(self.pred_edges, -1)
            mask = self.pred_edges >= 0
            out[mask] = self.graph._edge_src()[self.pred_edges[mask]]
            return out
        edges = self.graph.edges
        return [
            [edges[e][0] if e >= 0 else -1 for e in row]
            for row in self.pred_edges
        ]

    def _less(self, a, b) -> bool:
        if self._cmp is not None:
            return self._cmp(a, b) < 0
        return a < b


def _min_in_edges(g: Digraph, cur: np.ndarray, first: bool = False):
    """One snapshot step's candidates: min over in-edges of cur[:, u] + w(u, v).

    ``cur`` is an (S, n) array of label rows.  Returns ``(red, pos)``, where
    ``red[:, j]`` is the least candidate into ``dst_with_in[j]`` of
    `Digraph._in_arrays`.  When ``first`` is set, ``pos[:, j]`` is the
    sorted-edge position of the first candidate attaining it; in-edges sort
    by (source vertex, edge index), so ties go to the smallest pair.  ``pos``
    is meaningful only where ``red`` is finite, and is None otherwise.
    """
    src, w, _eidx, seg_starts, _dst, edge_seg = g._in_arrays()
    cand = cur[:, src] + w
    red = np.minimum.reduceat(cand, seg_starts, axis=1)
    if not first:
        return red, None
    hit = cand == red[:, edge_seg]
    pos = np.where(hit, np.arange(len(src)), len(src))
    return red, np.minimum.reduceat(pos, seg_starts, axis=1)


def relax(g: Digraph, rows, steps: int) -> np.ndarray:
    """Apply ``steps`` snapshot steps to an (S, n) array of start rows.

    Distances only: each step sets every label to the min of itself and its
    best in-edge candidate, alternating between two buffers.  Entry v of a
    result row is the least ``row[t] + (weight of a t-to-v walk of at most
    steps hops)`` over all t, so from a row that is 0 at s and infinite
    elsewhere it is ``bf_run(g, s, steps)``'s last label row.  The input is
    not modified.
    """
    a = np.array(rows, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != g.n:
        raise ValueError(f"start rows must have shape (S, {g.n})")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    dst = g._in_arrays()[4]
    b = np.empty_like(a)
    for _ in range(steps):
        red, _ = _min_in_edges(g, a)
        np.copyto(b, a)
        b[:, dst] = np.minimum(a[:, dst], red)
        a, b = b, a
    return a


def _bf_run_numpy_batch(
    g: Digraph,
    sources: Sequence[int],
    k: int,
    collect_relax: bool = True,
) -> Dict[int, "HopLabels"]:
    """All sources advance in lockstep; one vectorized relaxation per step."""
    n = g.n
    S = len(sources)
    if S == 0:
        return {}
    _src, _w, eidx, _seg, dst_with_in, _eseg = g._in_arrays()
    src_ids = np.asarray(sources, dtype=np.int64)

    labels = np.full((k + 1, S, n), INF)
    labels[0, np.arange(S), src_ids] = 0.0
    preds = np.full((k, S, n), -1, dtype=np.int64)
    relaxed = np.full((k, S, n), INF) if collect_relax else None
    relax_edges = (np.full((k, S, n), -1, dtype=np.int64)
                   if collect_relax else None)

    for i in range(k):
        cur = labels[i]
        val = np.full((S, n), INF)
        esel = np.full((S, n), -1, dtype=np.int64)
        if len(dst_with_in):
            red, first = _min_in_edges(g, cur, first=True)
            fin = red < INF
            val[:, dst_with_in] = red
            esel[:, dst_with_in] = np.where(
                fin, eidx[np.minimum(first, len(eidx) - 1)], -1)
        improved = val < cur
        labels[i + 1] = np.where(improved, val, cur)
        preds[i] = np.where(improved, esel, -1)
        if collect_relax:
            relaxed[i] = val
            relax_edges[i] = esel

    out = {}
    for i, s in enumerate(sources):
        out[s] = HopLabels(
            g, s, k, labels[:, i, :], preds[:, i, :],
            None if relaxed is None else relaxed[:, i, :],
            None if relax_edges is None else relax_edges[:, i, :])
    return out


class NumberOps:
    """Plain ordered-number domain (floats, ints, Fractions)."""

    INF = INF
    ZERO = 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def cmp_batch(pairs):
        # math.inf orders correctly against ints and Fractions, so plain
        # comparisons cover the whole domain.
        return [(-1 if a < b else (1 if a > b else 0)) for a, b in pairs]

    def cmp(self, a, b):
        return self.cmp_batch([(a, b)])[0]


def _run_multi_generic(
    g: Digraph,
    sources: Sequence[int],
    k: int,
    ops,
) -> Dict[int, HopLabels]:
    """Sequential reference engine over an arbitrary weight domain.

    Runs all sources in lockstep so each step's comparisons form parallel
    rounds: the per-destination candidate tournament round by round, then
    one improvement round against the previous snapshot.  Tie outcomes keep
    the earlier element, which makes predecessor choice the smallest
    attaining (source vertex, edge index) exactly like the numpy engine.
    """
    n = g.n
    inf = ops.INF
    in_lists = g._in_lists()

    rows = {s: [[inf] * n] for s in sources}
    pred_rows = {s: [] for s in sources}
    relax_rows = {s: [] for s in sources}
    relax_e_rows = {s: [] for s in sources}
    for s in sources:
        rows[s][0][s] = ops.ZERO

    for _ in range(k):
        folds = []  # [s, v, [(value, eidx, u), ...]]
        for s in sources:
            cur = rows[s][-1]
            for v in range(n):
                cands = [
                    (ops.add(cur[u], wt), e, u)
                    for (u, wt, e) in in_lists[v]
                    if cur[u] != inf
                ]
                if cands:
                    folds.append([s, v, cands])
        # Tournament rounds across all (source, vertex) pairs at once.
        while True:
            requests = []
            slots = []
            for item in folds:
                cands = item[2]
                for j in range(0, len(cands) - 1, 2):
                    requests.append((cands[j][0], cands[j + 1][0]))
                    slots.append((item, j))
            if not requests:
                break
            signs = ops.cmp_batch(requests)
            for (item, j), sg in zip(slots, signs):
                # Mark the loser; a tie keeps the earlier candidate.
                item[2][j + (1 if sg <= 0 else 0)] = None
            for item in folds:
                item[2] = [c for c in item[2] if c is not None]

        # Improvement round against the previous snapshot.
        requests = [(cands[0][0], rows[s][-1][v]) for (s, v, cands) in folds]
        signs = ops.cmp_batch(requests)

        new_rows = {s: list(rows[s][-1]) for s in sources}
        new_pred = {s: [-1] * n for s in sources}
        new_relax = {s: [inf] * n for s in sources}
        new_relax_e = {s: [-1] * n for s in sources}
        for (s, v, cands), sg in zip(folds, signs):
            value, e, _u = cands[0]
            new_relax[s][v] = value
            new_relax_e[s][v] = e
            if sg < 0:
                new_rows[s][v] = value
                new_pred[s][v] = e
        for s in sources:
            rows[s].append(new_rows[s])
            pred_rows[s].append(new_pred[s])
            relax_rows[s].append(new_relax[s])
            relax_e_rows[s].append(new_relax_e[s])

    cmp = getattr(ops, "cmp", None)
    return {
        s: HopLabels(g, s, k, rows[s], pred_rows[s], relax_rows[s],
                     relax_e_rows[s], cmp=cmp)
        for s in sources
    }


def bf_step(g: Digraph, current) -> Tuple[np.ndarray, List[Optional[int]]]:
    """One relaxation step from a label row.

    Returns the next row and the predecessor vertex per strictly improved
    vertex (None elsewhere).  The result is a pure function of ``current``;
    evaluation order cannot leak into it.
    """
    cur = np.asarray(current, dtype=np.float64)
    if cur.shape != (g.n,):
        raise ValueError(f"label row must have length {g.n}")
    src, _w, _eidx, _seg, dst_with_in, _eseg = g._in_arrays()
    nxt = cur.copy()
    preds: List[Optional[int]] = [None] * g.n
    if len(src) == 0:
        return nxt, preds
    red, first = _min_in_edges(g, cur[None, :], first=True)
    red, first = red[0], first[0]
    improved = red < cur[dst_with_in]
    nxt[dst_with_in[improved]] = red[improved]
    for seg_pos in np.nonzero(improved)[0]:
        preds[int(dst_with_in[seg_pos])] = int(src[first[seg_pos]])
    return nxt, preds


def bf_run(g: Digraph, source: int, k: int, meter: Optional[CostMeter] = None) -> HopLabels:
    """k snapshot steps from one source; row i is the exact i-hop-limited distance."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    labels = _bf_run_numpy_batch(g, [source], k)[source]
    if meter is not None:
        w, d = g._step_cost()
        meter.parallel_region([(k * w, k * d)])
    return labels


def bf_run_multi(
    g: Digraph,
    sources: Sequence[int],
    k: int,
    direction: str = "forward",
    meter: Optional[CostMeter] = None,
) -> Dict[int, HopLabels]:
    """Independent runs from several sources; reverse direction transposes g.

    Labels of a reverse run read as distances *to* the source in g.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be forward or reverse, got {direction!r}")
    host = g if direction == "forward" else g.reverse()
    srcs = sorted(set(int(s) for s in sources))
    out = _bf_run_numpy_batch(host, srcs, k)
    if meter is not None:
        w, d = host._step_cost()
        meter.parallel_region([(k * w, k * d)] * len(out))
    return out


def extract_minimal_path(labels: HopLabels, v: int, h: int) -> Path:
    """Reconstruct an exactly-h-hop walk of weight labels[h][v].

    Valid when the h-th snapshot strictly improves on the (h-1)-th at v;
    every backward step then lands on a vertex whose previous snapshot also
    strictly improved, so the walk reaches the source in exactly h hops.
    """
    if h < 1 or h > labels.steps:
        raise ValueError(f"hop count {h} outside 1..{labels.steps}")
    if labels.pred_edges is None:
        raise ValueError("run did not record predecessors")
    row_h = labels.labels[h]
    row_p = labels.labels[h - 1]
    if not labels._less(row_h[v], row_p[v]):
        raise ValueError(f"no minimal {h}-hop path to vertex {v}")
    edges = labels.graph.edges
    verts = [v]
    eidx = []
    cur = v
    for i in range(h, 0, -1):
        e = int(labels.pred_edges[i - 1][cur])
        if e < 0:
            raise AssertionError("predecessor chain broken; labels are inconsistent")
        eidx.append(e)
        cur = edges[e][0]
        verts.append(cur)
    if cur != labels.source:
        raise AssertionError("walk did not terminate at the source")
    verts.reverse()
    eidx.reverse()
    return Path(tuple(verts), labels.labels[h][v], h, tuple(eidx))
