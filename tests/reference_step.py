"""Plain-loop snapshot step, the reference the vectorized `bf_step` is checked against,
and whole edge tables of a label run, for tests that compare runs edge by edge."""
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
