"""Plain-loop snapshot step, the reference the vectorized `bf_step` is checked against."""
from typing import List, Optional, Sequence, Tuple

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
