"""Plain-loop snapshot step, the reference the vectorized `bf_step` is checked against,
the reduceat step kernel `_min_in_edges` is checked against, the two-buffer loop
the row-freezing `relax` is checked against, a byte-for-byte array compare, and
whole edge tables of a label run, for tests that compare runs edge by edge."""
from typing import List, Optional, Sequence, Tuple

import numpy as np

from hubapsp.graph import INF, Digraph


def best_in_edges_python(g: Digraph, current, edge_order: Optional[Sequence[int]] = None):
    """Per vertex, the least candidate current[u] + w and its edge (-1 if none).

    Edges are tried in the given order; ties keep the smallest (source, edge).
    """
    n = g.n
    order = list(range(g.m)) if edge_order is None else list(edge_order)
    best = [INF] * n
    best_key: List[Tuple[int, int]] = [(n, g.m)] * n
    for e in order:
        u, v, w = g.edges[e]
        if current[u] == INF:
            continue
        c = current[u] + w
        if c < best[v] or (c == best[v] and (u, e) < best_key[v]):
            best[v] = c
            best_key[v] = (u, e)
    return best, [e if e < g.m else -1 for (_u, e) in best_key]


def bf_step_python(g: Digraph, current, edge_order: Optional[Sequence[int]] = None):
    """One step in the given edge order; ties keep the smallest (source, edge)."""
    best, edge = best_in_edges_python(g, current, edge_order)
    nxt = list(current)
    preds: List[Optional[int]] = [None] * g.n
    for v in range(g.n):
        if best[v] < current[v]:
            nxt[v] = best[v]
            preds[v] = g.edges[edge[v]][0]
    return nxt, preds


def min_in_edges_reference(g: Digraph, cur: np.ndarray) -> np.ndarray:
    """`_min_in_edges` as one ``np.minimum.reduceat`` over all (S, m) candidates.

    Entry j of a result row is the least cur[:, u] + w over the in-edges of
    ``dst_with_in[j]``, folded in `Digraph._in_arrays` order.  On float64
    every zero minimum is +0.0, the kernel's one sign for a zero.
    """
    src, w, _eidx, seg_starts, _dst, _ptr, _edge_dst = g._in_arrays()
    out = np.minimum.reduceat(cur[:, src] + w, seg_starts, axis=1)
    if out.dtype != object:
        out += 0.0
    return out


def relax_reference(g: Digraph, rows, steps: int) -> np.ndarray:
    """`relax` without the row freeze: every row takes every one of ``steps`` steps.

    Each step sets every label to the min of itself and its best in-edge
    candidate (`min_in_edges_reference`), alternating between two buffers.
    The result takes the dtype of g's weights; the input is not modified.
    """
    a = np.array(rows, dtype=g._in_arrays()[1].dtype)
    dst = g._in_arrays()[4]
    b = np.empty_like(a)
    for _ in range(steps):
        np.copyto(b, a)
        b[:, dst] = np.minimum(a[:, dst], min_in_edges_reference(g, a))
        a, b = b, a
    return a


def assert_same_bytes(got, want):
    """Assert equal arrays byte for byte; on object arrays, each value and its type."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert [[(type(x), x) for x in row] for row in got.tolist()] == \
               [[(type(x), x) for x in row] for row in want.tolist()]
    else:
        assert got.tobytes() == want.tobytes()


def edge_tables(run) -> Tuple[np.ndarray, np.ndarray]:
    """(pred, closed) int64 tables of a `LabelRun`, every entry asked of `run.edges`.

    pred[i, j, v] is the edge that strictly improved v for the source at
    position j between snapshots i and i+1, and closed[i, j] the edge of
    that source's closed-walk candidate ``run.closed[i, j]``; -1 where
    there is none.
    """
    S, n = len(run.sources), run.graph.n
    pred = np.empty((run.steps, S, n), dtype=np.int64)
    closed = np.empty((run.steps, S), dtype=np.int64)
    rows, ends = np.repeat(np.arange(S), n), np.tile(np.arange(n), S)
    for i in range(run.steps):
        pred[i] = run.edges(i, rows, ends).reshape(S, n)
        closed[i] = run.edges(i, np.arange(S))
    return pred, closed
