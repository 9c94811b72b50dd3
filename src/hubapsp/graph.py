"""Directed graph container, paths, and brute-force reference oracles.

The oracles here (`hop_limited_oracle`, `floyd_warshall_oracle`,
`enumerate_simple_cycles`) are deliberately plain textbook implementations.
They exist so the fast pipeline elsewhere in the package can be checked
against independently computed answers; they must stay decoupled from the
snapshot Bellman-Ford and hub machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class Path:
    """A walk in a host graph: vertex sequence, total weight, hop count.

    ``edges`` holds the edge indices actually used, which disambiguates
    parallel edges; it may be empty for externally constructed paths.
    """

    vertices: Tuple[int, ...]
    length: float
    hops: int
    edges: Tuple[int, ...] = ()


class Digraph:
    """Immutable weighted digraph with forward and reverse adjacency.

    Self-loops and parallel edges are allowed.  Weights are 64-bit floats
    for the public construction path; internal callers may carry exact
    rational or affine weights through `_unchecked`.
    """

    __slots__ = ("n", "edges", "out_adj", "in_adj", "_cache")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int, float]]):
        self._build(n, tuple((int(u), int(v), w) for (u, v, w) in edges))

    def _build(self, n: int, edges: Tuple[Tuple[int, int, object], ...]) -> None:
        """Set the vertex count, the edge tuple and both adjacency views."""
        self.n = n
        self.edges = edges
        out_adj: List[List[int]] = [[] for _ in range(n)]
        in_adj: List[List[int]] = [[] for _ in range(n)]
        for i, (u, v, _) in enumerate(edges):
            out_adj[u].append(i)
            in_adj[v].append(i)
        self.out_adj = tuple(tuple(a) for a in out_adj)
        self.in_adj = tuple(tuple(a) for a in in_adj)
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    @classmethod
    def _unchecked(cls, n: int, edges: Sequence[Tuple[int, int, object]]) -> "Digraph":
        """Construct without weight validation (exact/affine weight carriers)."""
        g = cls.__new__(cls)
        g._build(n, tuple(edges))
        return g

    def reverse(self) -> "Digraph":
        """Transposed graph; edge i here is edge i reversed."""
        rev = self._cache.get("reverse")
        if rev is None:
            rev = Digraph._unchecked(self.n, [(v, u, w) for (u, v, w) in self.edges])
            self._cache["reverse"] = rev
        return rev

    # Sorted in-edge views used by the relaxation engines.

    def _in_lists(self):
        """Per-vertex [(src, w, edge_index)] sorted by (src, edge_index)."""
        lists = self._cache.get("in_lists")
        if lists is None:
            lists = tuple(
                tuple(
                    sorted(
                        ((self.edges[e][0], self.edges[e][2], e) for e in self.in_adj[v]),
                        key=lambda t: (t[0], t[2]),
                    )
                )
                for v in range(self.n)
            )
            self._cache["in_lists"] = lists
        return lists

    def _in_arrays(self):
        """Numpy views of in-edges grouped by destination.

        Returns (src, w, eidx, seg_starts, dst_with_in, edge_seg) where the
        first three are edge arrays sorted by (dst, src, eidx), `seg_starts`
        marks each destination's segment for reduceat, `dst_with_in` lists
        destinations having at least one in-edge, and `edge_seg` maps each
        sorted edge to its segment position.
        """
        arrs = self._cache.get("in_arrays")
        if arrs is None:
            m = self.m
            if m == 0:
                empty_i = np.empty(0, dtype=np.int64)
                arrs = (empty_i, np.empty(0), empty_i, empty_i, empty_i, empty_i)
            else:
                src = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=m)
                dst = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=m)
                w = np.fromiter((float(e[2]) for e in self.edges), dtype=np.float64, count=m)
                eidx = np.arange(m, dtype=np.int64)
                order = np.lexsort((eidx, src, dst))
                src, dst, w, eidx = src[order], dst[order], w[order], eidx[order]
                boundary = np.empty(m, dtype=bool)
                boundary[0] = True
                boundary[1:] = dst[1:] != dst[:-1]
                seg_starts = np.nonzero(boundary)[0]
                dst_with_in = dst[seg_starts]
                edge_seg = np.cumsum(boundary) - 1
                arrs = (src, w, eidx, seg_starts, dst_with_in, edge_seg)
            self._cache["in_arrays"] = arrs
        return arrs

    def _step_cost(self) -> Tuple[int, int]:
        """(work, depth) charged for one relaxation step of this graph."""
        cost = self._cache.get("step_cost")
        if cost is None:
            indeg = [len(a) for a in self.in_adj]
            work = self.m + self.n
            depth = max((int(math.ceil(math.log2(d + 1))) + 1 for d in indeg), default=1)
            cost = (work, depth)
            self._cache["step_cost"] = cost
        return cost


def build_graph(n: int, edge_list: Iterable[Tuple[int, int, float]]) -> Digraph:
    """Validate and build a digraph over vertices 0..n-1.

    :raises ValueError: on out-of-range endpoints or non-finite weights.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    edges = []
    for i, item in enumerate(edge_list):
        try:
            u, v, w = item
        except (TypeError, ValueError):
            raise ValueError(f"edge {i}: expected (u, v, w), got {item!r}") from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge {i}: endpoints must be integers, got {item!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {i}: endpoint out of range 0..{n - 1}: ({u}, {v})")
        # Integers stay integers so exact-arithmetic consumers and file
        # round-trips see them unchanged; everything else becomes a float.
        if isinstance(w, bool):
            raise ValueError(f"edge {i}: weight must be a number, got {w!r}")
        if isinstance(w, (int, np.integer)):
            edges.append((u, v, int(w)))
            continue
        wf = float(w)
        if not math.isfinite(wf):
            raise ValueError(f"edge {i}: weight must be finite, got {w!r}")
        edges.append((u, v, wf))
    return Digraph(n, edges)


class NegativeCycleDetected(Exception):
    """Raised by `floyd_warshall_oracle`; carries a vertex on a negative closed walk."""

    def __init__(self, vertex: int):
        super().__init__(f"negative cycle through vertex {vertex}")
        self.vertex = vertex


def hop_limited_oracle(g: Digraph, k: int) -> np.ndarray:
    """All-pairs minimum walk weights using at most k hops, by textbook DP.

    Returns an (n, n) array whose (u, v) entry is the least weight of a
    u-to-v walk with at most k edges (0 on the diagonal for k >= 0, inf when
    unreachable within the hop budget).
    """
    if k < 0:
        raise ValueError("hop budget must be nonnegative")
    n = g.n
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    if g.m == 0:
        return dist
    src, w, _, seg_starts, dst_with_in, _ = g._in_arrays()
    for _ in range(k):
        cand = dist[:, src] + w[None, :]
        red = np.minimum.reduceat(cand, seg_starts, axis=1)
        new = dist.copy()
        new[:, dst_with_in] = np.minimum(dist[:, dst_with_in], red)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def floyd_warshall_oracle(g: Digraph) -> np.ndarray:
    """Exact all-pairs distances by Floyd-Warshall.

    :raises NegativeCycleDetected: when some diagonal entry drops below zero.
    """
    n = g.n
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for (u, v, w) in g.edges:
        if w < dist[u, v]:
            dist[u, v] = w
    for mid in range(n):
        np.minimum(dist, np.add.outer(dist[:, mid], dist[mid, :]), out=dist)
    diag = np.diagonal(dist)
    bad = np.nonzero(diag < 0)[0]
    if bad.size:
        raise NegativeCycleDetected(int(bad[0]))
    return dist


def negative_cycle_hops_oracle(g: Digraph, k_max: Optional[int] = None) -> Optional[int]:
    """Smallest k with a negative closed walk of exactly k edges, or None.

    Brute min-plus powers of the adjacency matrix; a negative diagonal in
    the k-th power is exactly a negative k-edge closed walk.  Searching up
    to n suffices for existence because the shortest negative closed walk
    is a simple cycle.
    """
    n = g.n
    if k_max is None:
        k_max = n
    if n == 0 or g.m == 0:
        return None
    A = np.full((n, n), INF)
    for (u, v, w) in g.edges:
        if w < A[u, v]:
            A[u, v] = w
    power = A.copy()
    for k in range(1, k_max + 1):
        if (np.diagonal(power) < 0).any():
            return k
        if k < k_max:
            nxt = np.empty((n, n))
            for i in range(n):
                nxt[i] = (power[i][:, None] + A).min(axis=0)
            power = nxt
    return None


def has_cycle(g: Digraph) -> bool:
    """True when the digraph contains a directed cycle (self-loops count)."""
    indeg = [0] * g.n
    for _, v, _ in g.edges:
        indeg[v] += 1
    queue = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for e in g.out_adj[u]:
            v = g.edges[e][1]
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen != g.n


def enumerate_simple_cycles(g: Digraph, max_n: int = 12) -> List[Path]:
    """Every simple directed cycle, each exactly once up to rotation.

    Cycles are rooted at their smallest vertex, so rotations collapse;
    parallel edges give distinct cycles.  Exhaustive search, guarded by
    ``max_n`` to keep it honest about its cost.
    """
    if g.n > max_n:
        raise ValueError(f"refusing exhaustive cycle enumeration for n={g.n} > {max_n}")
    out: List[Path] = []
    edges = g.edges

    for s in range(g.n):
        stack_path = [s]
        stack_edges: List[int] = []
        on_path = {s}

        def walk(u: int) -> None:
            for e in g.out_adj[u]:
                _, v, w = edges[e]
                if v == s:
                    verts = tuple(stack_path) + (s,)
                    eidx = tuple(stack_edges) + (e,)
                    length = 0.0
                    for ei in eidx:
                        length += edges[ei][2]
                    out.append(Path(verts, length, len(eidx), eidx))
                elif v > s and v not in on_path:
                    stack_path.append(v)
                    stack_edges.append(e)
                    on_path.add(v)
                    walk(v)
                    on_path.discard(v)
                    stack_edges.pop()
                    stack_path.pop()

        walk(s)
    return out
