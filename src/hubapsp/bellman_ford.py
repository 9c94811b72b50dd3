"""Snapshot Bellman-Ford: hop-indexed label rows, attaining edges on demand.

Each step computes every new label from the previous step's row only, so
after k steps ``labels[k][v]`` is exactly the least weight of a
source-to-v walk with at most k hops.  Edge relaxation order inside a step
can never change the result: the step is a pure min over candidates, and
ties pick the smallest attaining source vertex (then smallest edge index).

One label engine, `_label_run`, runs all sources of a run in lockstep
over whole tables, with one table setup, one resume and one step loop.
Its tables, and those of `relax` and `bf_step`, take the dtype of the
graph's weight array (`Digraph._in_arrays`): float64, or an object array
that keeps exact weights exact (integers too large for float64 to add
exactly, or Fractions).  Their zero is the int 0 and their infinity `INF`,
so an object table never holds a float but infinity.  Labels are stored,
added, equated and looked up the same way whatever decides their order;
only a step's candidate minimum and the `_less` that decides each
improvement depend on it.  Without an ops object the step goes through
`_min_in_edges`, which computes distances only: one reduceat over all
candidates for a small step, and for a step with many candidates one
``np.minimum`` per in-edge slot (`Digraph._in_slots`), chosen by
`_SLOT_BUDGET`.  Both give the same values, and on float64 every zero
minimum is +0.0, so a row's result does not depend on the path its row
count picked.  Both kernels return full (S, n) rows, `INF` at a vertex
with no in-edge, so the label run, `relax`, `bf_step` and Karp read and
write whole rows and keep no index of the vertices with in-edges; since
``np.minimum(x, INF)`` keeps x bit for bit, such a vertex's label stays
as it was.  An ops object orders the labels by its one method,
``cmp_batch(a, b)``, the signs of a - b over two arrays (the ratio
search's symbolic run signs its packed affine values at the unknown
optimum through one); the step's kernel is then `_tournament`,
which batches the comparisons of every candidate fold into rounds, so a
comparison resolver processes each parallel round at once.  `relax`
applies `_min_in_edges` from any start rows, and steps a row only while
it still changes.

A run is one `LabelRun`: the snapshot table of all sources plus each
source's closed-walk candidates, which the hub layer reads whole;
``run[s]`` is the per-source `HopLabels` view.  No run keeps a
predecessor table: `_attaining_edges` finds the in-edge that attains a
label from the row before it, in the step's tie order, `LabelRun.edges`
asks it only for the entries a walk follows, and `LabelRun.walk_back` is
the one walk from an entry back to its source.  A run may resume from an
earlier one: a source it covers copies its first rows from there and
steps on from the last, so the hub hierarchy runs each surviving hub's
label steps once over all its levels, and the tables come out
bit-identical to a run from scratch.
"""
from __future__ import annotations

from collections.abc import Mapping
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import Digraph, Path, INF


class HopLabels:
    """Label snapshots from one source: one source's slice of a `LabelRun`.

    ``labels`` is a (steps+1, n) table of hop-limited distances.  The view
    of a source whose run resumed reads exactly as the view of a run from
    scratch.  Its edges are read through the run (`LabelRun.edges`,
    `LabelRun.walk_back`), as `extract_minimal_path` does.
    """

    __slots__ = ("graph", "source", "steps", "labels", "_run", "_at")

    def __init__(self, run: "LabelRun", source: int):
        self.graph = run.graph
        self.source = source
        self.steps = run.steps
        self._run = run
        self._at = run._index[source]
        self.labels = run.labels[:, self._at]


# A lookup costs a fixed few dozen numpy calls plus a little per entry.  The
# dedup adds a few calls and a pass over the run's S*n entry marks per hop;
# below a few hundred rows the entries it saves cost less than that.
_DEDUP_ROWS = 256


class LabelRun(Mapping):
    """One lockstep label run from several sources, kept as whole tables.

    ``sources`` is sorted, and axis 1 of every table follows it.
    ``labels`` is the (steps+1, S, n) snapshot table, in the graph's weight
    dtype.  ``closed`` row i holds each source's best in-edge candidate
    into itself at step i+1, whether or not it improved, and `INF` where
    there is none; the cycle sweep reads closed-walk values there without
    the zero-weight empty walk shadowing them.  As a mapping, ``run[s]`` is
    source s's `HopLabels` view.

    No run stores an edge: `edges` finds the in-edge attaining each entry
    asked in the label rows (`_attaining_edges`), and `walk_back` follows
    those edges back to the sources, so the hub layer pays only for the
    edges its walks follow.  Both step kernels take the first minimal
    candidate in (source vertex, edge index) order and change a label only
    on a strict decrease, so an entry improved exactly where it differs
    from the row before.  The search returns the first candidate equal to
    the label.  On an ops run that is still the winner: minimal means
    minimal where the comparisons are decided, and every earlier candidate
    compares strictly larger there, so it is a different value.  The
    search compares nothing, so it leaves an ops run's comparison count
    alone.  These two are the only way to read an edge: no run keeps an
    edge table.

    Every row of a source depends on that source alone, so a longer run
    over other sources can resume from this one's rows (`_resume_from`),
    and `select` keeps just the rows of the sources worth resuming.
    ``ran`` lists the steps each source ran itself: all of them, or those
    after the rows it resumed.
    """

    def __init__(self, graph, sources, labels, closed):
        self.graph = graph
        self.sources = sources
        self.labels = labels
        self.closed = closed
        self.steps = len(labels) - 1
        self.ran = [self.steps] * len(sources)
        self._index = {s: i for i, s in enumerate(sources)}

    def __getitem__(self, s) -> HopLabels:
        return HopLabels(self, s)

    def __contains__(self, s) -> bool:
        return s in self._index

    def __iter__(self):
        return iter(self.sources)

    def __len__(self):
        return len(self.sources)

    def edges(self, i: int, at, ends=None) -> np.ndarray:
        """The in-edges attaining entries of snapshot i+1, as int64 edge ids.

        With ``ends``, entry j is the edge that strictly improved vertex
        ends[j] for the source at position at[j] between snapshots i and
        i+1.  Without, it is the edge of that source's closed-walk
        candidate ``closed[i, at[j]]``.  -1 where there is none.
        """
        at = np.asarray(at, dtype=np.int64)
        if ends is None:
            ends = np.asarray(self.sources, dtype=np.int64)[at]
            target = self.closed[i, at]
            live = target != INF
        else:
            ends = np.asarray(ends, dtype=np.int64)
            target = self.labels[i + 1, at, ends]
            live = target != self.labels[i, at, ends]
        out = np.full(len(at), -1, dtype=np.int64)
        out[live] = _attaining_edges(self.graph, self.labels[i], at[live],
                                     ends[live], target[live])
        return out

    def walk_back(self, h: int, at, ends=None) -> Tuple[np.ndarray, np.ndarray]:
        """(vertices, edges) of the h-hop walks behind entries of snapshot h.

        Row j runs from the source at position at[j] to ends[j], whose hop-h
        label must strictly improve on its hop-(h-1) one; without ``ends``
        it is the closed walk of candidate ``closed[h-1, at[j]]``, back to
        the source.  Every hop takes its `edges` entry, so each row is a
        chain of strict improvements back to its source, and the arrays
        are int64 of shapes (rows, h+1) and (rows, h).  All rows walk back
        at once.  Walks that converge share their (source, vertex) entry at
        a hop, so with at least `_DEDUP_ROWS` rows each hop below h looks up
        every distinct entry once, in (source, vertex) order, and hands the
        edge to all rows that hold it.  The distinct entries are found
        without a sort: the hop marks its entries in a direct-address table
        over the run's S*n entries, reads them back with ``flatnonzero``,
        and each row finds its entry's place through a second table.
        """
        edge_src = self.graph._edge_src()
        n = self.graph.n
        at = np.asarray(at, dtype=np.int64)
        verts = np.empty((len(at), h + 1), dtype=np.int64)
        edges = np.empty((len(at), h), dtype=np.int64)
        if not len(at):
            return verts, edges
        starts = np.asarray(self.sources, dtype=np.int64)[at]
        e = self.edges(h - 1, at, ends)
        verts[:, h] = starts if ends is None else ends
        dedup = h > 1 and len(at) >= _DEDUP_ROWS
        if dedup:
            # Direct-address tables over the run's S*n entries: marks of the
            # entries a hop holds, and each marked entry's place among them.
            mark = np.zeros(len(self.sources) * n, dtype=bool)
            place = np.empty(len(mark), dtype=np.int64)
        for i in range(h, 0, -1):
            if i < h and not dedup:
                e = self.edges(i - 1, at, verts[:, i])
            elif i < h:
                flat = at * n + verts[:, i]
                mark[flat] = True
                key = np.flatnonzero(mark)
                mark[key] = False
                place[key] = np.arange(len(key))
                e = self.edges(i - 1, key // n, key % n)[place[flat]]
            if (e < 0).any():
                raise AssertionError("predecessor chain broken; labels are inconsistent")
            edges[:, i - 1] = e
            verts[:, i - 1] = edge_src[e]
        if not np.array_equal(verts[:, 0], starts):
            raise AssertionError("walk did not terminate at the source")
        return verts, edges

    def select(self, sources) -> "LabelRun":
        """A run over the given subset of the sources, with copies of their rows."""
        keep = tuple(sorted(set(sources)))
        at = [self._index[s] for s in keep]
        out = LabelRun(self.graph, keep, self.labels[:, at], self.closed[:, at])
        out.ran = [self.ran[i] for i in at]
        return out

    def _resume_from(self, resume: Optional["LabelRun"]):
        """Copy in the rows ``resume`` holds for this run's sources.

        Each source ``resume`` covers gets its label rows 0..r and its
        closed-walk rows 0..r-1, where r is the smaller step count of the
        two runs, and runs r steps fewer.  Returns r and the positions of
        the other sources, which start from row 0; r is 0 when no source
        resumes.
        """
        held = {} if resume is None else resume._index
        old = [i for i, s in enumerate(self.sources) if s in held]
        fresh = np.array([i for i, s in enumerate(self.sources) if s not in held],
                         dtype=np.int64)
        if not old:
            return 0, fresh
        r = min(resume.steps, self.steps)
        at = np.array([held[self.sources[i]] for i in old], dtype=np.int64)
        for i in old:
            self.ran[i] -= r
        old = np.array(old, dtype=np.int64)
        # Row by row, so no temporary as large as the copied rows.
        for t in range(r + 1):
            self.labels[t, old] = resume.labels[t, at]
        self.closed[:r, old] = resume.closed[:r, at]
        return r, fresh


# Requests per chunk of `_attaining_edges` are cut so that a chunk's
# candidates, one per in-edge of each requested vertex, number at most this.
_LOOKUP_CHUNK = 1 << 15


def _attaining_edges(g: Digraph, rows: np.ndarray, at, ends, target) -> np.ndarray:
    """First in-edge (u, ends[j]) with ``rows[at[j], u] + w == target[j]``.

    Edges are tried in `Digraph._in_arrays` order, by (source vertex, edge
    index), and each candidate is formed exactly as `_min_in_edges` forms
    it, so for a target that is the step's minimum this is the edge that
    minimum's first attaining position names.  Returns int64 edge ids, -1
    where no edge attains the target.  Targets must be finite, since an
    infinite label plus any weight would attain an infinite one.
    Requests go in chunks of at most `_LOOKUP_CHUNK` candidates, and of no
    more than the (len(rows), m) candidates of a step over ``rows``; only a
    single request with more in-edges than the budget makes a larger one.
    """
    src, w, eidx, _seg, _dst, in_ptr, _edge_dst = g._in_arrays()
    at, ends = np.asarray(at, dtype=np.int64), np.asarray(ends, dtype=np.int64)
    out = np.full(len(ends), -1, dtype=np.int64)
    if not len(ends):
        return out
    lo = in_ptr[ends]
    cnt = in_ptr[ends + 1] - lo
    # Request j's candidates are positions cum[j]:cum[j+1] of the flat list.
    cum = np.concatenate(([0], np.cumsum(cnt)))
    budget = min(_LOOKUP_CHUNK, len(rows) * len(src))
    a = 0
    while a < len(ends):
        b = max(a + 1, int(np.searchsorted(cum, cum[a] + budget, side="right")) - 1)
        req = np.repeat(np.arange(a, b), cnt[a:b])
        pos = np.arange(cum[a], cum[b]) - cum[req] + lo[req]
        hit = np.flatnonzero(rows[at[req], src[pos]] + w[pos] == target[req])
        r = req[hit]
        first = np.ones(len(r), dtype=bool)
        first[1:] = r[1:] != r[:-1]
        out[r[first]] = eidx[pos[hit[first]]]
        a = b
    return out


# A step takes the slot path once it has this many candidates, rows x m,
# per in-edge slot.  Each slot costs a few numpy calls of a few microseconds
# each; reduceat pays an inner loop per (row, vertex) segment instead.  On
# reweighted rings of 24 to 1024 vertices (7 to 12 slots) the two paths
# broke even at 500 to 1000 candidates per slot, and on a star, where one
# vertex holds n-1 slots, a fixed total budget would send steps to a slot
# loop 3 to 25 times slower than reduceat.
_SLOT_BUDGET = 1024


def _min_in_edges(g: Digraph, cur: np.ndarray) -> np.ndarray:
    """One snapshot step's candidates: min over in-edges of cur[:, u] + w(u, v).

    ``cur`` is an (S, n) array of label rows, and so is the result: entry
    v of a result row is the least candidate into v, and `INF` where v has
    no in-edge.  `_attaining_edges` finds the edge that attains it.  Only a
    graph with a vertex of no in-edge pays for the full rows: its
    candidates are scattered into rows of `INF`.  Otherwise the columns
    the kernel computes are already the full row, and nothing is copied.

    Two paths give the same values.  A small step runs one
    ``np.minimum.reduceat`` over the (S, m) candidates.  A step with at
    least `_SLOT_BUDGET` candidates per in-edge slot (`Digraph._in_slots`)
    folds slot by slot instead: it gathers and adds slot 0, then takes one
    ``np.minimum`` per further slot over that slot's prefix of columns.
    Both fold each vertex's candidates in `_in_arrays` order, so on an
    object table a tie keeps the same object.  On float64 every zero
    minimum comes back as +0.0: the sign reduceat gives a zero minimum of
    mixed +-0.0 candidates follows numpy's SIMD lanes on long segments, so
    no fold reproduces it, and with one sign a row's result does not
    depend on the path its size picked.
    """
    src, w, _eidx, seg_starts, dst_with_in, _ptr, _edge_dst = g._in_arrays()
    # The slot count is at least the mean in-degree, m / len(dst_with_in),
    # so a step with fewer rows x vertices than the budget cannot qualify,
    # and never builds the layout.  An empty step always takes reduceat.
    big = len(cur) * len(dst_with_in) >= max(_SLOT_BUDGET, 1)
    slots, back = g._in_slots() if big else ((), None)
    if slots and len(cur) * len(src) >= _SLOT_BUDGET * len(slots):
        (s0, w0), rest = slots[0], slots[1:]
        acc = cur[:, s0] + w0
        for s, ws in rest:
            head = acc[:, :len(s)]
            np.minimum(head, cur[:, s] + ws, out=head)
        val = acc[:, back]
    else:
        val = np.minimum.reduceat(cur[:, src] + w, seg_starts, axis=1)
    if val.dtype != object:
        val += 0.0
    if len(dst_with_in) == g.n:
        return val
    out = np.full(cur.shape, INF, dtype=val.dtype)
    out[:, dst_with_in] = val
    return out


def _weight_dtype_labels(g: Digraph, labels) -> np.ndarray:
    """A copy of ``labels`` in the dtype of g's weights.

    On an object graph no finite label may be a float, since a float would
    turn each sum it enters into a rounded float.
    """
    a = np.array(labels, dtype=g._in_arrays()[1].dtype)
    if a.dtype == object and any(isinstance(x, (float, np.floating))
                                 for x in a[a != INF]):
        raise ValueError("labels on exact weights take exact values "
                         "(ints or inf, or Fractions), not floats")
    return a


def relax(g: Digraph, rows, steps: int) -> np.ndarray:
    """Apply ``steps`` snapshot steps to an (S, n) array of start rows.

    Distances only: each step sets every label to the min of itself and its
    best in-edge candidate.  Entry v of a result row is the least
    ``row[t] + (weight of a t-to-v walk of at most steps hops)`` over all
    t, so from a row that is 0 at s and infinite elsewhere it is
    ``bf_run(g, s, steps)``'s last label row.  The input is not modified.
    The result takes the dtype of g's weights; on an object graph a float
    start value raises ValueError (`_weight_dtype_labels`).

    A step reads only the row it writes, so a row that one step leaves
    exactly as it was is a fixed point: every later step leaves it so too.
    Each step therefore runs only the rows the step before changed, and
    the loop ends early once none did.  "Exactly" means bit for bit on
    float64, where a step turns a -0.0 start label that a +0.0 candidate
    ties into 0.0 and ``!=`` would miss it; on object rows, which hold only
    ints, Fractions and ``INF``, ``!=`` is exact, since ``np.minimum``
    keeps the old object on a tie.  While every row still moves, a step
    takes the minimum into the kernel's own result and makes that the
    table, with no gather or scatter of rows; once a row settles, each
    step gathers the moving rows and writes back those that moved.
    """
    a = _weight_dtype_labels(g, rows)
    if a.ndim != 2 or a.shape[1] != g.n:
        raise ValueError(f"start rows must have shape (S, {g.n})")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    bits = (lambda x: x) if a.dtype == object else (lambda x: x.view(np.int64))
    act = None  # the rows still moving; None while that is every row
    for _ in range(steps if len(a) else 0):
        cur = a if act is None else a[act]
        new = _min_in_edges(g, cur)
        np.minimum(cur, new, out=new)
        moved = (bits(cur) != bits(new)).any(axis=1)
        if act is None:
            a = new
            act = None if moved.all() else np.flatnonzero(moved)
        else:
            act = act[moved]
            a[act] = new[moved]
        if act is not None and not len(act):
            break
    return a


class NumberOps:
    """Plain ordered-number domain (floats, ints, Fractions).

    An ops object has one method, ``cmp_batch(a, b)``: the signs of a - b
    for two equal-length arrays, as an int array.
    """

    @staticmethod
    def cmp_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # INF orders correctly against ints and Fractions, so plain
        # comparisons cover the whole domain.
        return (a > b).astype(np.int64) - (a < b)


def _tournament(g: Digraph, cur: np.ndarray, ops) -> np.ndarray:
    """One snapshot step's candidates in an ops domain, as an (R, n) array.

    ``cur`` is an (R, n) array of label rows.  Entry (j, v) is the
    winner among the candidates cur[j, u] + w over v's in-edges with a
    finite cur[j, u], taken in `Digraph._in_arrays` order, and `INF` where
    there is none.  The candidates of each (row, vertex) fold play
    knock-out rounds: the survivors pair up (0, 1), (2, 3), ..., an odd
    one passes, a tie keeps the earlier candidate, and each round signs
    the pairs of every fold in one `ops.cmp_batch`.  So the winner is the
    fold's first minimal candidate, the one `_attaining_edges` finds.
    """
    src, w, _eidx, _seg, _dst, _ptr, edge_dst = g._in_arrays()
    rows, pos = np.nonzero((cur != INF)[:, src])
    vals = cur[rows, src[pos]] + w[pos]
    # Folds are contiguous and in (row, vertex) order, as positions are
    # sorted by destination.
    fold = rows * g.n + edge_dst[pos]
    while True:
        rank = np.arange(len(fold)) - np.searchsorted(fold, fold)
        left = np.flatnonzero((rank[:-1] % 2 == 0) & (fold[1:] == fold[:-1]))
        if not len(left):
            break
        signs = ops.cmp_batch(vals[left], vals[left + 1])
        keep = np.ones(len(vals), dtype=bool)
        keep[np.where(signs <= 0, left + 1, left)] = False
        vals, fold = vals[keep], fold[keep]
    out = np.full(cur.size, INF, dtype=cur.dtype)
    out[fold] = vals
    return out.reshape(cur.shape)


def _less(ops, a, b) -> np.ndarray:
    """``a < b`` elementwise for two label arrays, as bools.

    Without ``ops`` that is exactly numpy's ``a < b``, so the operands
    broadcast.  With ``ops`` they must have one shape: the
    pairs whose ``a`` is finite are signed in one `ops.cmp_batch`; an
    infinite ``a`` is less than nothing.
    """
    if ops is None:
        return a < b
    out = np.zeros(a.shape, dtype=bool)
    fin = a != INF
    if fin.any():
        out[fin] = ops.cmp_batch(a[fin], b[fin]) < 0
    return out


def _label_run(g: Digraph, sources: Sequence[int], k: int, ops=None,
               resume: Optional[LabelRun] = None) -> LabelRun:
    """All sources advance in lockstep, k snapshot steps over whole tables.

    The tables take the dtype of the graph's weight array.  Without
    ``ops`` a step's candidates are `_min_in_edges` of all its rows at
    once.  With ``ops`` they are its `_tournament`, and `_less` signs the
    improvement round against the previous snapshot, so every comparison
    of a step falls into a few parallel rounds, each one `ops.cmp_batch`.
    A label changes only on a strict decrease.

    Sources that ``resume`` covers start from its rows (see
    `LabelRun._resume_from`) and ask none of the comparisons of the steps
    they copied; until they catch up, a step advances only the others,
    through a copy of their rows.  Steps that advance every source work on
    the tables in place: a number step writes ``np.minimum(cur, val)``
    straight into the next snapshot, which equals the strict-decrease rule
    bit for bit, since its labels hold no -0.0 (every candidate zero is
    +0.0) and on a tie ``np.minimum`` keeps the old object.

    The tables are allocated empty and only row 0 is filled (`INF`, with 0
    at each source): every later label row and every closed-walk row is
    written by a step, or copied by `LabelRun._resume_from`, before
    anything reads it.
    """
    n = g.n
    srcs = g._vertex_set(sources)
    if k < 0:
        raise ValueError("step count must be nonnegative")
    S = len(srcs)
    w = g._in_arrays()[1]
    src_ids = np.asarray(srcs, dtype=np.int64)
    labels = np.empty((k + 1, S, n), dtype=w.dtype)
    labels[0] = INF
    labels[0, np.arange(S), src_ids] = 0
    run = LabelRun(g, srcs, labels, np.empty((k, S), dtype=w.dtype))
    r, fresh = run._resume_from(resume)
    # A caller that handed over its only reference frees the copied rows
    # here, before the steps add their own temporaries.
    del resume

    # A run from no sources has empty tables; the hub layer makes one from
    # every empty level, so skip its steps.
    for i in range(0 if len(fresh) else r, k if S else 0):
        act = fresh if i < r else slice(None)
        cur = labels[i, act]
        val = _min_in_edges(g, cur) if ops is None else _tournament(g, cur, ops)
        run.closed[i, act] = val[np.arange(len(cur)), src_ids[act]]
        if ops is not None:
            labels[i + 1, act] = np.where(_less(ops, val, cur), val, cur)
        elif i < r:
            labels[i + 1, act] = np.minimum(cur, val, out=val)
        else:
            np.minimum(cur, val, out=labels[i + 1])
        # Free the candidates before the next step's kernel makes its own.
        del val
    return run


def bf_step(g: Digraph, current) -> Tuple[np.ndarray, List[Optional[int]]]:
    """One relaxation step from a label row.

    Returns the next row and the predecessor vertex per strictly improved
    vertex (None elsewhere).  The result is a pure function of ``current``;
    evaluation order cannot leak into it.  The row takes the dtype of g's
    weights; on an object graph a float label raises ValueError
    (`_weight_dtype_labels`).
    """
    cur = _weight_dtype_labels(g, current)
    if cur.shape != (g.n,):
        raise ValueError(f"label row must have length {g.n}")
    nxt = cur.copy()
    parents: List[Optional[int]] = [None] * g.n
    red = _min_in_edges(g, cur[None, :])[0]
    ends = np.flatnonzero(red < cur)
    nxt[ends] = red[ends]
    edges = _attaining_edges(g, cur[None, :], np.zeros(len(ends), dtype=np.int64),
                             ends, red[ends])
    for v, u in zip(ends.tolist(), g._edge_src()[edges].tolist()):
        parents[v] = u
    return nxt, parents


def bf_run(g: Digraph, source: int, k: int) -> HopLabels:
    """k snapshot steps from one source; row i is the exact i-hop-limited distance.

    :raises TypeError: on a source that is not an integer.
    :raises ValueError: on a source outside 0..n-1 or a negative k.
    """
    return _label_run(g, [source], k)[source]


def bf_run_multi(g: Digraph, sources: Sequence[int], k: int) -> LabelRun:
    """Independent runs from several sources, all in one lockstep run.

    Returns one `LabelRun` over the distinct sources; ``run[s]`` is source
    s's labels.  Distances *to* the sources are a run on ``g.reverse()``.

    :raises TypeError: on a source that is not an integer.
    :raises ValueError: on a source outside 0..n-1 or a negative k.
    """
    return _label_run(g, sources, k)


def extract_minimal_path(labels: HopLabels, v: int, h: int) -> Path:
    """Reconstruct an exactly-h-hop walk of weight labels[h][v].

    Valid when the h-th snapshot strictly improves on the (h-1)-th at v;
    every backward step then lands on a vertex whose previous snapshot also
    strictly improved, so the walk reaches the source in exactly h hops.
    The walk is `LabelRun.walk_back`'s row for (source, v).
    """
    if h < 1 or h > labels.steps:
        raise ValueError(f"hop count {h} outside 1..{labels.steps}")
    if labels.labels[h][v] == labels.labels[h - 1][v]:
        raise ValueError(f"no minimal {h}-hop path to vertex {v}")
    verts, edges = labels._run.walk_back(h, [labels._at], [v])
    return Path(tuple(verts[0].tolist()), labels.labels[h][v], h,
                tuple(edges[0].tolist()))
