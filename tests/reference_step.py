"""Plain-loop snapshot step, the reference the vectorized `bf_step` is checked against."""
from typing import List, Optional, Sequence, Tuple

from hubapsp.graph import INF, Digraph


def bf_step_python(g: Digraph, current, edge_order: Optional[Sequence[int]] = None):
    """One step in the given edge order; ties keep the smallest (source, edge)."""
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
    nxt = list(current)
    preds: List[Optional[int]] = [None] * n
    for v in range(n):
        if best[v] < current[v]:
            nxt[v] = best[v]
            preds[v] = best_key[v][0]
    return nxt, preds
