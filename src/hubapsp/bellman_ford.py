"""Snapshot Bellman-Ford: hop-indexed label rows with per-step predecessors.

Each step computes every new label from the previous step's row only, so
after k steps ``labels[k][v]`` is exactly the least weight of a
source-to-v walk with at most k hops.  Edge relaxation order inside a step
can never change the result: the step is a pure min over candidates, and
ties pick the smallest attaining source vertex (then smallest edge index).

Two engines share these semantics.  The default one vectorizes all sources
of a run at once through numpy, in the dtype of the graph's weight array
(`Digraph._in_arrays`): float64, or Python ints on an object array when
the integer weights are too large for float64 to add exactly.  Its tables,
and those of `relax` and `bf_step`, take that dtype, and their zero is the
int 0, so an object table never holds a float but infinity.
`_run_multi_generic` accepts any weight domain through an ops object (the
parametric search runs its affine values through it), batching its
comparisons into rounds so a comparison resolver can process each parallel
round at once.

Every numpy step goes through `_min_in_edges`.  `relax` applies it to
distance rows alone, from any start rows, and keeps no per-step tables.
Both label engines return one `LabelRun`: the snapshot and predecessor
tables of all sources plus each source's closed-walk candidates, which the
hub layer reads whole; ``run[s]`` is the per-source `HopLabels` view.
Both also take an optional earlier run to resume from: a source it covers
copies its first rows from there and steps on from the last, so the hub
hierarchy runs each surviving hub's label steps once over all its levels,
and the tables come out bit-identical to a run from scratch.
"""
from __future__ import annotations

from collections.abc import Mapping
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import Digraph, Path, INF
from .meter import CostMeter


class HopLabels:
    """Label snapshots from one source: one source's slice of a `LabelRun`.

    ``labels`` is a (steps+1, n) table of hop-limited distances.
    ``pred_edges`` is the int32 (steps, n) table whose row i holds the edge
    that strictly improved v between snapshots i and i+1 (-1 when none);
    `preds` exposes the same rows as source vertex ids.  The view of a
    source whose run resumed reads exactly as the view of a run from scratch.
    """

    __slots__ = ("graph", "source", "steps", "labels", "pred_edges")

    def __init__(self, graph, source, steps, labels, pred_edges):
        self.graph = graph
        self.source = source
        self.steps = steps
        self.labels = labels
        self.pred_edges = pred_edges

    @property
    def preds(self):
        """Per-step predecessor vertex ids; -1 where no strict improvement."""
        out = np.full_like(self.pred_edges, -1)
        mask = self.pred_edges >= 0
        out[mask] = self.graph._edge_src()[self.pred_edges[mask]]
        return out


class LabelRun(Mapping):
    """One lockstep label run from several sources, kept as whole tables.

    ``sources`` is sorted, and axis 1 of every table follows it.
    ``labels`` is the (steps+1, S, n) snapshot table, in the graph's weight
    dtype from the numpy engine and object from an ops engine.
    ``pred_edges`` is the (steps, S, n) int32 table of strictly improving
    edges (-1 when none).  ``closed`` row i holds each source's best
    in-edge candidate into itself at step i+1, whether or not it improved,
    with the attaining edge in the int32 ``closed_edges`` (-1 when none);
    the cycle sweep reads closed-walk values there without the zero-weight
    empty walk shadowing them.  As a mapping, ``run[s]`` is source s's
    `HopLabels` view.

    Every row of a source depends on that source alone, so a longer run
    over other sources can resume from this one's rows (`_resume_from`),
    and `select` keeps just the rows of the sources worth resuming.
    ``ran`` lists the steps each source ran itself: all of them, or those
    after the rows it resumed.
    """

    def __init__(self, graph, sources, labels, pred_edges, closed, closed_edges):
        self.graph = graph
        self.sources = sources
        self.labels = labels
        self.pred_edges = pred_edges
        self.closed = closed
        self.closed_edges = closed_edges
        self.ran = [len(pred_edges)] * len(sources)
        self._index = {s: i for i, s in enumerate(sources)}

    def __getitem__(self, s) -> HopLabels:
        i = self._index[s]
        return HopLabels(self.graph, s, len(self.pred_edges),
                         self.labels[:, i], self.pred_edges[:, i])

    def __contains__(self, s) -> bool:
        return s in self._index

    def __iter__(self):
        return iter(self.sources)

    def __len__(self):
        return len(self.sources)

    def select(self, sources) -> "LabelRun":
        """A run over the given subset of the sources, with copies of their tables."""
        keep = tuple(sorted(set(sources)))
        at = [self._index[s] for s in keep]
        out = LabelRun(self.graph, keep, self.labels[:, at],
                       self.pred_edges[:, at], self.closed[:, at],
                       self.closed_edges[:, at])
        out.ran = [self.ran[i] for i in at]
        return out

    def _resume_from(self, resume: Optional["LabelRun"]):
        """Copy in the rows ``resume`` holds for this run's sources.

        Each source ``resume`` covers gets its label rows 0..r and its
        predecessor and closed-walk rows 0..r-1, where r is the smaller step
        count of the two runs, and runs r steps fewer.  Returns r and the
        positions of the other sources, which start from row 0; r is 0 when
        no source resumes.
        """
        held = {} if resume is None else resume._index
        old = [i for i, s in enumerate(self.sources) if s in held]
        fresh = np.array([i for i, s in enumerate(self.sources) if s not in held],
                         dtype=np.int64)
        if not old:
            return 0, fresh
        r = min(len(resume.pred_edges), len(self.pred_edges))
        at = [resume._index[self.sources[i]] for i in old]
        # Row by row, so no temporary as large as the copied rows.
        for t in range(r + 1):
            self.labels[t, old] = resume.labels[t, at]
        for t in range(r):
            self.pred_edges[t, old] = resume.pred_edges[t, at]
        self.closed[:r, old] = resume.closed[:r, at]
        self.closed_edges[:r, old] = resume.closed_edges[:r, at]
        for i in old:
            self.ran[i] -= r
        return r, fresh


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
    # Free the candidates before the (S, m) position table: together they
    # would set the label engine's peak memory.
    del cand
    pos = np.where(hit, np.arange(len(src), dtype=np.int32), len(src))
    return red, np.minimum.reduceat(pos, seg_starts, axis=1)


def relax(g: Digraph, rows, steps: int) -> np.ndarray:
    """Apply ``steps`` snapshot steps to an (S, n) array of start rows.

    Distances only: each step sets every label to the min of itself and its
    best in-edge candidate, alternating between two buffers.  Entry v of a
    result row is the least ``row[t] + (weight of a t-to-v walk of at most
    steps hops)`` over all t, so from a row that is 0 at s and infinite
    elsewhere it is ``bf_run(g, s, steps)``'s last label row.  The input is
    not modified.  The result takes the dtype of g's weights; on an object
    graph every finite start value must be a Python int, since a float
    would turn each sum it enters into a rounded float.
    """
    a = np.array(rows, dtype=g._in_arrays()[1].dtype)
    if a.ndim != 2 or a.shape[1] != g.n:
        raise ValueError(f"start rows must have shape (S, {g.n})")
    if a.dtype == object and not all(type(x) is int for x in a[a != INF]):
        raise ValueError("start rows on exact integer weights must hold ints or inf")
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


def _bf_run_numpy_batch(g: Digraph, sources: Sequence[int], k: int,
                        resume: Optional[LabelRun] = None) -> LabelRun:
    """All sources advance in lockstep; one vectorized relaxation per step.

    Sources that ``resume`` covers start from its rows (see
    `LabelRun._resume_from`); until they catch up, a step advances only the
    others, through a copy of their rows.  Steps that advance every source
    work on the tables in place.
    """
    n = g.n
    srcs = tuple(sorted(set(map(int, sources))))
    S = len(srcs)
    _src, w, eidx, _seg, dst_with_in, _eseg = g._in_arrays()
    src_ids = np.asarray(srcs, dtype=np.int64)

    labels = np.full((k + 1, S, n), INF, dtype=w.dtype)
    labels[0, np.arange(S), src_ids] = 0
    run = LabelRun(g, srcs, labels, np.full((k, S, n), -1, dtype=np.int32),
                   np.full((k, S), INF, dtype=w.dtype),
                   np.full((k, S), -1, dtype=np.int32))
    r, fresh = run._resume_from(resume)
    # A caller that handed over its only reference frees the copied rows
    # here, before the steps add their own temporaries.
    del resume

    # A run from no sources has empty tables; the hub layer makes one from
    # every empty level, so skip its steps.
    for i in range(0 if len(fresh) else r, k if S else 0):
        act = fresh if i < r else slice(None)
        cur = labels[i, act]
        val = np.full(cur.shape, INF, dtype=w.dtype)
        esel = np.full(cur.shape, -1, dtype=np.int32)
        if len(dst_with_in):
            red, first = _min_in_edges(g, cur, first=True)
            fin = red < INF
            val[:, dst_with_in] = red
            esel[:, dst_with_in] = np.where(
                fin, eidx[np.minimum(first, len(eidx) - 1)], -1)
        improved = val < cur
        labels[i + 1, act] = np.where(improved, val, cur)
        run.pred_edges[i, act] = np.where(improved, esel, -1)
        rows, ids = np.arange(len(cur)), src_ids[act]
        run.closed[i, act] = val[rows, ids]
        run.closed_edges[i, act] = esel[rows, ids]
    return run


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


def _run_multi_generic(g: Digraph, sources: Sequence[int], k: int, ops,
                       resume: Optional[LabelRun] = None) -> LabelRun:
    """Sequential reference engine over an arbitrary weight domain.

    Runs all sources in lockstep so each step's comparisons form parallel
    rounds: the per-destination candidate tournament round by round, then
    one improvement round against the previous snapshot.  Tie outcomes keep
    the earlier element, which makes predecessor choice the smallest
    attaining (source vertex, edge index) exactly like the numpy engine.
    ``resume`` works as in `_bf_run_numpy_batch`: a resumed source asks
    none of the comparisons of the steps it copied.
    """
    n = g.n
    inf = ops.INF
    in_lists = g._in_lists()
    srcs = tuple(sorted(set(map(int, sources))))
    S = len(srcs)

    labels = np.full((k + 1, S, n), inf, dtype=object)
    for j, s in enumerate(srcs):
        labels[0, j, s] = ops.ZERO
    run = LabelRun(g, srcs, labels, np.full((k, S, n), -1, dtype=np.int32),
                   np.full((k, S), inf, dtype=object),
                   np.full((k, S), -1, dtype=np.int32))
    r, fresh = run._resume_from(resume)
    del resume  # frees the copied rows, as in `_bf_run_numpy_batch`
    fresh = fresh.tolist()
    rows = [list(labels[r, j]) for j in range(S)]
    for j in fresh:
        rows[j] = list(labels[0, j])

    for i in range(k):
        active = fresh if i < r else range(S)
        folds = []  # [j, v, [(value, eidx, u), ...]]
        for j in active:
            cur = rows[j]
            for v in range(n):
                cands = [
                    (ops.add(cur[u], wt), e, u)
                    for (u, wt, e) in in_lists[v]
                    if cur[u] != inf
                ]
                if cands:
                    folds.append([j, v, cands])
        # Tournament rounds across all (source, vertex) pairs at once.
        while True:
            requests = []
            slots = []
            for item in folds:
                cands = item[2]
                for t in range(0, len(cands) - 1, 2):
                    requests.append((cands[t][0], cands[t + 1][0]))
                    slots.append((item, t))
            if not requests:
                break
            signs = ops.cmp_batch(requests)
            for (item, t), sg in zip(slots, signs):
                # Mark the loser; a tie keeps the earlier candidate.
                item[2][t + (1 if sg <= 0 else 0)] = None
            for item in folds:
                item[2] = [c for c in item[2] if c is not None]

        # Improvement round against the previous snapshot.
        requests = [(cands[0][0], rows[j][v]) for (j, v, cands) in folds]
        signs = ops.cmp_batch(requests)

        for (j, v, cands), sg in zip(folds, signs):
            value, e, _u = cands[0]
            if v == srcs[j]:
                run.closed[i, j] = value
                run.closed_edges[i, j] = e
            if sg < 0:
                rows[j][v] = value
                run.pred_edges[i, j, v] = e
        for j in active:
            labels[i + 1, j] = rows[j]
    return run


def bf_step(g: Digraph, current) -> Tuple[np.ndarray, List[Optional[int]]]:
    """One relaxation step from a label row.

    Returns the next row and the predecessor vertex per strictly improved
    vertex (None elsewhere).  The result is a pure function of ``current``;
    evaluation order cannot leak into it.
    """
    src, w, _eidx, _seg, dst_with_in, _eseg = g._in_arrays()
    cur = np.asarray(current, dtype=w.dtype)
    if cur.shape != (g.n,):
        raise ValueError(f"label row must have length {g.n}")
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
) -> LabelRun:
    """Independent runs from several sources; reverse direction transposes g.

    Returns one `LabelRun` over the distinct sources; ``run[s]`` is source
    s's labels.  Labels of a reverse run read as distances *to* the source
    in g.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be forward or reverse, got {direction!r}")
    host = g if direction == "forward" else g.reverse()
    out = _bf_run_numpy_batch(host, sources, k)
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
    if not labels.labels[h][v] < labels.labels[h - 1][v]:
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
