"""Min-plus matrix algebra and the depth-tunable all-pairs pipeline.

The pipeline trades depth for work through one knob d: build hub levels up
to H_d, weight the complete graph on H_d by (d+1)-hop distances, close it
by repeated min-plus squaring until it stops changing, then lift exact
distances back down the levels with short label runs.  `apsp` keeps one
n x n forward and one n x n reverse distance matrix.  Each level's lift
runs only the level's new vertices (all of the top level, and below it the
vertices of L_k not in L_{k+1}) and writes their rows into both; the level
below reads its seeds, the exact distances to and from every vertex of its
level above, as blocks of those rows.  Below the top level the start rows
are closer still: a forward row also takes the 2h-hop row that the
hierarchy's own label run computed from the vertex (kept for it when the
next level dropped it), and a reverse row the exact distances that the
forward pass has just computed from the level's other new vertices.
Small d pushes the effort into the dense closure; large d pushes it into
the label runs.

Each squaring is semi-naive: a term D(i,l) + D(l,j) whose two operands the
previous product left unchanged was already compared there, so a product
recomputes only the terms with a changed operand (the first product, the
terms with a finite left operand) and keeps every other entry.  The values
are bit for bit those of the dense product.  The meter still charges every
product the paper's dense cost, on purpose: the work/depth model prices
the algorithm, not this shortcut.

The hub graph and the lift run their label steps through `relax`, which
steps a row only while it still changes (a row that one step leaves bit
for bit as it was is a fixed point).  Most lift rows start from exact
distances to every higher hub, or to every vertex of the level on the
bottom level's reverse pass, and settle within a few of their 2h+1 steps.
As with the closure, the meter still charges every row all of its steps:
d+1 for a hub-graph row, 2h+1 for a lift row.  Float distances below the
top level may differ in their last bits from a lift without the kept and
forward-pass start rows, within the README's bound.

Every matrix and row here takes the dtype of the graph's weight array
(`Digraph._in_arrays`), so integer weights too large for float64 give
exact Python-int distances on object arrays.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .graph import Digraph, INF
from .bellman_ford import relax
from .hubs import HubHierarchy, NegativeCycle, build_hub_hierarchy, shortest_negative_cycle
from .meter import CostMeter, WorkDepthReport


class NegativeDiagonal(Exception):
    """A diagonal entry of the hub-graph closure went negative: the hub graph,
    and therefore the input graph, contains a negative cycle."""

    def __init__(self, vertex: int):
        super().__init__(f"negative diagonal at vertex {vertex}")
        self.vertex = vertex


@dataclass(frozen=True)
class DistMatrix:
    """Square distance matrix over the vertices listed in `index`."""
    index: Tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        b = len(self.index)
        if self.values.shape != (b, b):
            raise ValueError(f"matrix shape {self.values.shape} does not match "
                             f"index of length {b}")

    def entry(self, u: int, v: int):
        """The (u, v) value as a Python float, or int on an object matrix."""
        return self.values.item(self.index.index(u), self.index.index(v))


@dataclass(frozen=True)
class ApspResult:
    dist: DistMatrix
    hierarchy: HubHierarchy
    meter: WorkDepthReport


def minplus_product(A: DistMatrix, B: DistMatrix,
                    meter: Optional[CostMeter] = None, *,
                    _changed: Optional[np.ndarray] = None) -> DistMatrix:
    """C(i,j) = min over k of A(i,k) + B(k,j); infinities absorb.

    The meter, when given, charges the paper's dense cost: b*b work and
    ceil(log2 b)+1 depth per row, whatever the product recomputes.

    ``_changed``, private to `minplus_closure`, makes a squaring (B is A)
    semi-naive.  It is a boolean (b, b) mask such that A's diagonal is 0
    and no term A(i,l) + A(l,j) with neither (i,l) nor (l,j) marked is below
    A(i,j).  Then C(i,j) is the least of A(i,j) and the terms with a marked
    operand (`_semi_naive_square`).  Without it, each row is one broadcast
    sum and minimum (`_broadcast_rows`), and every row's sum goes into one
    64-byte-aligned (b, b) scratch buffer, so the product's speed does not
    follow where the heap places a fresh temporary.
    """
    if A.index != B.index:
        raise ValueError("operand index sets differ")
    b = len(A.index)
    out = None
    if _changed is not None:
        if B is not A:
            raise ValueError("a semi-naive product squares one matrix")
        out = _semi_naive_square(A.values, _changed)
    if out is None:
        out = np.empty((b, b), dtype=A.values.dtype)
        _broadcast_rows(out, A.values, B.values, range(b))
    if meter is not None:
        depth = math.ceil(math.log2(b)) + 1 if b > 1 else 1
        meter.parallel_region([(b * b, depth)] * b)
    return DistMatrix(A.index, out)


def _aligned_empty(size: int, dtype) -> np.ndarray:
    """An uninitialised 1-D array of ``size`` items starting on a 64-byte boundary.

    Both dtypes here, float64 and object, have 8-byte items.
    """
    raw = np.empty(size + 8, dtype=dtype)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip:skip + size]


def _broadcast_rows(out: np.ndarray, A: np.ndarray, B: np.ndarray, rows) -> None:
    """Set out[i] to the full product row min over l of A[i,l] + B[l], for i in rows.

    Every row's sums go into one reused (b, b) buffer that starts on a
    64-byte boundary.  A fresh temporary per row would start wherever the
    heap put it; at b=256 on an AVX-512 Xeon, a buffer off that boundary
    made the product 1.4 to 1.7 times as slow.
    """
    if not len(rows):
        return
    buf = _aligned_empty(B.size, B.dtype).reshape(B.shape)
    for i in rows:
        np.add(A[i][:, None], B, out=buf)
        np.minimum.reduce(buf, axis=0, out=out[i])


def _semi_naive_square(D: np.ndarray, changed: np.ndarray) -> Optional[np.ndarray]:
    """D*D from D and the terms with an operand marked in ``changed``.

    A term with an infinite operand is infinite, so only finite marks
    count.  The row pass adds row l of D to each marked D(i,l); the column
    pass does the same on the transpose for each marked D(l,j).  A row pass
    over every finite (i,l) is exact on its own, and it replaces both
    passes when it gathers fewer rows, as in the first product, where every
    finite entry is marked.  None when the passes would gather b*b/2 rows
    or more: a gathered term costs about twice a broadcast one, so the
    dense product is then cheaper.
    """
    b = len(D)
    finite = D != INF
    marked = changed & finite
    gathered = 2 * np.count_nonzero(marked)
    rows_only = gathered > np.count_nonzero(finite)
    if rows_only:
        marked, gathered = finite, np.count_nonzero(finite)
    if 2 * gathered >= b * b:
        return None
    out = D.copy()
    _gather_rows(out, D, marked)
    if not rows_only:
        _gather_rows(out.T, np.ascontiguousarray(D.T), marked.T)
    return out


def _gather_rows(out: np.ndarray, D: np.ndarray, marked: np.ndarray) -> None:
    """Lower out[i] to the least D(i,l) + D[l] over the l with marked[i,l].

    A row with more than b/2 marks takes its full broadcast row instead.
    The others go in order of mark count, in groups of at most b gathered
    rows, the size of one broadcast row's temporary, into one reused
    64-byte-aligned buffer (`_aligned_empty`).  Each row is padded to its
    group's widest with l = i, whose term is D[i] itself since D(i,i) = 0.
    """
    b = D.shape[1]
    counts = np.count_nonzero(marked, axis=1)
    order = np.argsort(counts, kind="stable")
    order = order[counts[order] > 0]
    wide = counts[order] > b // 2
    _broadcast_rows(out, D, D, order[wide])
    order = order[~wide]
    if not len(order):
        return
    widths = counts[order].tolist()
    # The marks of the sorted rows, row by row, with each one's rank in its row.
    r, l = np.nonzero(marked[order])
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    ptr = np.concatenate(([0], np.cumsum(widths)))
    # Widths ascend, so a group's padded size grows with every row it takes.
    starts = [0]
    for k, w in enumerate(widths):
        if (k + 1 - starts[-1]) * w > b:
            starts.append(k)
    buf = _aligned_empty(b * b, D.dtype)
    for start, stop in zip(starts, starts[1:] + [len(order)]):
        grp = order[start:stop]
        lo, hi = ptr[start], ptr[stop]
        idx = np.repeat(grp[:, None], widths[stop - 1], axis=1)
        idx[r[lo:hi] - start, rank[lo:hi]] = l[lo:hi]
        # Indices are in range; "clip" lets take write into buf directly,
        # where the default mode would gather into a temporary first.
        terms = np.take(D, idx, axis=0, mode="clip",
                        out=buf[:idx.size * b].reshape(idx.shape + (b,)))
        terms += D[grp[:, None], idx][..., None]
        out[grp] = np.minimum(out[grp], terms.min(axis=1))


def minplus_closure(A: DistMatrix, meter: Optional[CostMeter] = None) -> DistMatrix:
    """Shortest-walk values within the matrix's own graph.

    The diagonal is clamped to min(entry, 0) so squarings compose walks of
    any shorter hop count; at most ceil(log2(b)) squarings then cover every
    simple path and every simple cycle length.  Squaring stops early at the
    first product that changes no entry of its input: if D = D*D, D is
    already closed.  Raises NegativeDiagonal as soon as any diagonal entry
    is negative, including on entry and after every product: a negative
    diagonal is a negative closed walk, and a matrix with one never reaches
    a fixpoint.

    Each product is semi-naive (`minplus_product`'s ``_changed``): it gets
    the entries the previous product changed, and the first one the finite
    entries, as changed from an all-infinite matrix.  That is exact because
    the clamped diagonal is exactly 0, so D(i,j) itself is a term.  A
    matrix holding -0.0 squares densely throughout, because the dense
    minimum, not the values, picks the sign of a zero result; without one
    no product can form -0.0.  Every product is still one `minplus_product`
    call, charged the dense cost.
    """
    b = len(A.index)
    values = A.values.copy()
    if b == 0:
        return DistMatrix(A.index, values)
    diag = np.diagonal(values).copy()
    np.fill_diagonal(values, np.minimum(diag, 0))
    cur = DistMatrix(A.index, values)

    def check(mat):
        d = np.diagonal(mat.values)
        bad = np.nonzero(d < 0)[0]
        if len(bad):
            raise NegativeDiagonal(A.index[int(bad[0])])

    check(cur)
    semi = not np.signbit(values[values == 0].astype(np.float64)).any()
    changed = values != INF
    for _ in range(max(0, math.ceil(math.log2(b)))):
        nxt = minplus_product(cur, cur, meter, _changed=changed if semi else None)
        check(nxt)
        changed = nxt.values != cur.values
        if not changed.any():
            break
        cur = nxt
    return cur


def build_hub_graph(g: Digraph, H_d: Iterable[int], d: int,
                    meter: Optional[CostMeter] = None) -> DistMatrix:
    """Complete graph on the top hub level, weighted by (d+1)-hop distances.

    Each hub's row runs through `relax`, which stops stepping it once it
    stops changing; the meter charges every row all d+1 steps.
    """
    hubs = g._vertex_set(H_d)
    b = len(hubs)
    dtype = g._in_arrays()[1].dtype
    values = np.full((b, b), INF, dtype=dtype)
    if b:
        cols = np.asarray(hubs, dtype=np.int64)
        rows = np.full((b, g.n), INF, dtype=dtype)
        rows[np.arange(b), cols] = 0
        values = relax(g, rows, d + 1)[:, cols]
        if meter is not None:
            w, dep = g._step_cost()
            meter.parallel_region([((d + 1) * w, (d + 1) * dep)] * b)
    return DistMatrix(hubs, values)


def lift_level(g: Digraph, new: Iterable[int], above: Iterable[int],
               fwd_seeds: np.ndarray, rev_seeds: np.ndarray, h: int,
               meter: Optional[CostMeter] = None, *,
               _kept: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Exact rows of a level's new vertices from their distances to the level above.

    Returns ``(fwd, rev)``: row i of ``fwd`` is dist(new_i, .) and row i of
    ``rev`` is dist(., new_i), both over all of V.  ``new`` and ``above``
    are read as sorted vertex sets; the seeds follow that order, with
    ``fwd_seeds[i, j]`` = dist(new_i, above_j) and ``rev_seeds[i, j]`` =
    dist(above_j, new_i), each of shape (len(new), len(above)).  ``h``
    must be at least 1.  At the top level `apsp` passes the closed hub
    matrix and its transpose, with ``new`` = ``above`` = H_d.

    Each forward start row holds the seeds, 0 at its own vertex and
    infinity elsewhere, then takes 2h+1 label steps.  Any shortest path
    longer than that detours onto a vertex of ``above`` within its last h
    hops, so the seeded vertex plus the tail fits in the step budget.
    ``_kept``, which `apsp` passes below the top level, holds one row per
    new vertex in order, each the value of some walk from it (the
    hierarchy's 2h-hop row, `hubs._Carry`); the start row takes the least
    of the two, entry by entry, which leaves every value an upper bound on
    the distance and so does not change the fixed point.

    A reverse-graph pass gives the distances into the new vertices.  Its
    start rows hold the reverse seeds and, at every new vertex that
    ``above`` does not seed, the exact distance that the forward pass has
    just computed; at the top level ``above`` seeds every new vertex, so
    its rows start from the closed matrix alone.  `relax` stops stepping a
    row once it stops changing, which for most rows is well before the
    budget ends; the meter charges every new vertex all 2h+1 steps and a
    read of its seeds in each direction.
    """
    if h < 1:
        raise ValueError("hop bound must be at least 1")
    new = np.asarray(g._vertex_set(new), dtype=np.int64)
    cols = np.asarray(g._vertex_set(above), dtype=np.int64)
    S = len(new)
    for seeds in (fwd_seeds, rev_seeds):
        if np.shape(seeds) != (S, len(cols)):
            raise ValueError(f"seed block shape {np.shape(seeds)} is not "
                             f"(len(new), len(above)) = {(S, len(cols))}")
    steps = 2 * h + 1
    dtype = g._in_arrays()[1].dtype

    def start(seeds):
        rows = np.full((S, g.n), INF, dtype=dtype)
        rows[:, cols] = seeds
        rows[np.arange(S), new] = 0
        return rows

    def lifted(host, rows):
        if S:
            rows = relax(host, rows, steps)
            if meter is not None:
                w, dep = host._step_cost()
                meter.parallel_region(
                    [(steps * w + len(cols), steps * dep + 1)] * S)
        return rows

    fwd = start(fwd_seeds)
    if _kept is not None:
        np.minimum(fwd, _kept, out=fwd)
        # `apsp` hands over its only reference: free the rows before the steps.
        del _kept
    fwd = lifted(g, fwd)
    rev = start(rev_seeds)
    unseeded = ~np.isin(new, cols)
    rev[:, new[unseeded]] = fwd[unseeded][:, new].T
    return fwd, lifted(g.reverse(), rev)


def apsp(g: Digraph, d_requested: int) -> Union[ApspResult, NegativeCycle]:
    """All-pairs exact distances, or the graph's hop-shortest negative cycle.

    d_requested is read with `operator.index`, so a numpy integer is taken
    and a float raises TypeError, and rounded down to a power of two d.
    Negative cycles of at most d hops surface during hierarchy
    construction; longer ones reach the hub graph and trip the closure's
    diagonal check, after which the full-depth detector reruns to produce
    a witness cycle.
    """
    d_requested = operator.index(d_requested)
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if not (1 <= d_requested <= max(n, 1)):
        raise ValueError(f"d must lie in 1..{n}, got {d_requested}")
    meter = CostMeter()
    d = 1 << (d_requested.bit_length() - 1)
    K = d.bit_length() - 1

    # Level k's kept rows, k = 0..K-1 (see `hubs._Carry`); the lift pops
    # each level's rows off the end, so they are freed once used.
    kept: list = []
    with meter.phase("hierarchy"):
        built = build_hub_hierarchy(g, d, meter=meter, _kept=kept)
    if isinstance(built, NegativeCycle):
        return built
    top = sorted(built.levels[K])

    with meter.phase("hub-graph"):
        A = build_hub_graph(g, top, d, meter)
    try:
        with meter.phase("closure"):
            closed = minplus_closure(A, meter)
    except NegativeDiagonal:
        witness = shortest_negative_cycle(g)
        if witness is None:
            raise AssertionError("closure saw a negative cycle the full-depth "
                                 "detector cannot find")
        return witness

    # Each level's lift writes the rows of its new vertices, dist(v, .) into
    # fwd and dist(., v) into rev; the level below reads its seeds off the
    # rows of its level above.  Levels run top-down, so a vertex new at two
    # levels keeps the lower level's rows.  The closed hub matrix seeds the
    # top level, standing in for a level 2d.
    fwd = np.empty((n, n), dtype=closed.values.dtype)
    rev = np.empty((n, n), dtype=fwd.dtype)
    new = above = top
    seeds = closed.values, closed.values.T
    with meter.phase("lift"):
        for k in range(K, -1, -1):
            if k < K:
                above = sorted(built.levels[k + 1])
                new = sorted(built.levels[k] - built.levels[k + 1])
                block = np.ix_(above, new)
                seeds = rev[block].T, fwd[block].T
            with meter.phase(f"level-{1 << k}"):
                fwd[new], rev[new] = lift_level(g, new, above, *seeds, 1 << k, meter,
                                                _kept=kept.pop() if k < K else None)

    return ApspResult(DistMatrix(tuple(range(n)), fwd), built, meter.report())
