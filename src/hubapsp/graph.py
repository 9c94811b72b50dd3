"""Directed graph container, paths, and brute-force reference oracles.

The oracles here (`hop_limited_oracle`, `floyd_warshall_oracle`,
`enumerate_simple_cycles`) are deliberately plain textbook implementations.
They exist so the fast pipeline elsewhere in the package can be checked
against independently computed answers; they must stay decoupled from the
snapshot Bellman-Ford and hub machinery.  They compute in float64, and
raise ValueError on a graph whose integer weights `Digraph._in_arrays`
keeps exact rather than let them round.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

INF = float("inf")
# Integers of magnitude up to 2^53 add exactly in float64.
_EXACT_FLOAT = 2 ** 53
# The largest finite float64; an exact number past it cannot meet a float.
_FLOAT_RANGE = sys.float_info.max


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
    """Immutable weighted digraph: a vertex count and an edge tuple.

    Self-loops and parallel edges are allowed.  `build_graph` validates its
    input and reads each weight by `_read_number`; the constructor checks
    nothing, so internal callers carry their own weights through it.  The
    label engine reads the weights as one array whose dtype `_in_arrays`
    chooses: float64, or an object array that keeps them exact, and finds
    each vertex's in-edges through the CSR index it builds, the graph's
    one adjacency.
    """

    __slots__ = ("n", "edges", "_cache")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int, object]]):
        self.n = n
        self.edges = tuple([(int(u), int(v), w) for (u, v, w) in edges])
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

    def reverse(self) -> "Digraph":
        """Transposed graph; edge i here is edge i reversed."""
        rev = self._cache.get("reverse")
        if rev is None:
            rev = Digraph(self.n, [(v, u, w) for (u, v, w) in self.edges])
            self._cache["reverse"] = rev
        return rev

    def _vertex_set(self, vs) -> Tuple[int, ...]:
        """The distinct vertex ids of ``vs``, sorted, as ints.

        Each id is read with `operator.index`, so numpy integers are taken
        and a non-integer id is refused rather than truncated.

        :raises TypeError: on an id that is not an integer (a float, say).
        :raises ValueError: on an id outside 0..n-1.
        """
        out = tuple(sorted(set(map(operator.index, vs))))
        if out and not (0 <= out[0] and out[-1] < self.n):
            bad = out[0] if out[0] < 0 else out[-1]
            raise ValueError(f"vertex {bad} out of range 0..{self.n - 1}")
        return out

    def _edge_src(self) -> np.ndarray:
        """Source vertex of every edge, as an int64 array in edge order."""
        src = self._cache.get("edge_src")
        if src is None:
            src = np.fromiter((e[0] for e in self.edges), dtype=np.int64,
                              count=self.m)
            self._cache["edge_src"] = src
        return src

    def _in_arrays(self):
        """Numpy views of in-edges grouped by destination.

        Returns (src, w, eidx, seg_starts, dst_with_in, in_ptr, edge_dst)
        where src, w, eidx and edge_dst are edge arrays sorted by (dst, src,
        eidx), `seg_starts` marks each destination's segment for reduceat,
        `dst_with_in` lists destinations having at least one in-edge, and
        the in-edges of vertex v are the sorted positions in_ptr[v]:in_ptr[v+1].
        ``w`` is `_weight_array` read at ``eidx``; the other six arrays are
        `_in_layout`, which `_reweighted` graphs share.

        ``w`` sets the dtype of every engine that reads it.  Weights that
        are neither int nor float (Fractions) stay as they are on an object
        array.  Otherwise ``w`` is float64 unless every weight is an integer
        and 3n*W >= 2^53, with W the largest integer magnitude; then it
        holds the exact Python ints on an object array.  A float beside
        exact weights of either kind raises ValueError: no one dtype holds
        both exactly.  Below the bound float64 is exact, because no engine
        forms an integer past 3n*W on an n-vertex graph:

        - label runs (`_label_run`, `relax`, `bf_step`): after i
          steps a label is a walk of at most i hops, and a candidate adds
          one edge.  `shortest_negative_cycle` steps at most 2n times (its
          depth is the least power of two >= max(2, n)), `apsp`'s hierarchy
          at most n, its hub graph d+1 <= n+1 times and the ratio search's
          zero row (`parametric._zero_row`: every concrete decision, and
          a certificate's prices), stepped from zeros on the probe graph
          itself until it settles, at most n times: at most 2n*W.  The ratio
          search's symbolic run, whose cycle is the witness, is such a run
          on packed integer weights (`parametric._Resolver`); the
          difference of two of its labels, which it unpacks to compare
          them, stays below 3n*W.
        - the lift of level h seeds exact distances, at most (n-1)*W (to
          and from the level above, read off `apsp`'s forward and reverse
          matrices, and in a reverse row those the forward pass has just
          computed), and steps 2h+1 <= 2d+1 <= 2n+1 times from them: at
          most 3n*W.  This is the case that sets the factor.  Below the
          top level a forward
          start row may also hold the hierarchy's kept row, a walk of at
          most 2h <= d <= n hops, at most n*W; its 2h+1 <= n+1 steps then
          reach at most (2n+1)*W, still within 3n*W.
        - Karp's table D_k is a k-edge walk for k <= n, and its rotation
          formula subtracts two entries: at most 2n*W.
        - a closure product adds two hub-matrix entries.  An entry starts
          as a (d+1)-hop distance, at most (n+1)*W, and never grows, and a
          distance is at least -(n-1)*W, so a sum stays within
          (2n+2)*W <= 3n*W (a one-hub matrix takes no product).  An entry
          a product first makes finite is a longer walk between hubs,
          which may in principle exceed that; a sum past 2^53 then rounds
          to at least 2^53, so it can lose a minimum below 2^53 but never
          change one.  On 300 random graphs with n <= 40, at every d, no
          closure entry came above 0.36*(n+1)*W.

        The same bound keeps every value an engine forms within the float
        range, about 1.8e308, on either dtype.  In float64 a sum past it
        becomes inf, which reads as unreachable; on an object array
        ``x + INF`` converts an int or a Fraction x to a float, which
        raises OverflowError once |x| passes it.  So weights of any kind
        with 3n*W at or past that raise ValueError, W now the largest
        magnitude of any weight.
        """
        arrs = self._cache.get("in_arrays")
        if arrs is None:
            src, eidx, *rest = self._in_layout()
            arrs = (src, self._weight_array()[eidx], eidx, *rest)
            self._cache["in_arrays"] = arrs
        return arrs

    def _in_layout(self):
        """`_in_arrays` without ``w``: the arrays that follow from the arcs
        alone, so a graph whose weights are refused still has them."""
        lay = self._cache.get("in_layout")
        if lay is None:
            m = self.m
            src = self._edge_src()
            dst = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=m)
            eidx = np.lexsort((np.arange(m), src, dst))
            src, dst = src[eidx], dst[eidx]
            seg_starts = np.flatnonzero(np.diff(dst, prepend=-1))
            in_ptr = np.searchsorted(dst, np.arange(self.n + 1))
            lay = (src, eidx, seg_starts, dst[seg_starts], in_ptr, dst)
            self._cache["in_layout"] = lay
        return lay

    def _reweighted(self, weights) -> "Digraph":
        """The same arcs, in edge order, with ``weights`` as their weights.

        The new graph shares this one's `_edge_src` and `_in_layout`
        arrays, which no engine writes, so its `_in_arrays` forms only its
        weight array, by the same dtype rule, and refuses the weights that
        rule refuses.
        """
        g = Digraph(self.n, ())
        # The endpoints are this graph's, already read as ints.
        g.edges = tuple([(u, v, w) for (u, v, _), w in zip(self.edges, weights)])
        g._cache.update(edge_src=self._edge_src(), in_layout=self._in_layout())
        return g

    def _in_slots(self):
        """The in-edges of `_in_arrays` laid out by slot: (slots, back).

        Column c is the c-th vertex with in-edges, ordered by in-degree,
        descending and stable.  ``slots[j]`` is a pair (src_j, w_j) of
        `_in_arrays` arrays holding the j-th in-edge, in `_in_arrays` order,
        of every vertex whose in-degree exceeds j, so slot j's columns are a
        prefix of slot j-1's.  Reading columns at ``back`` puts them in
        ``dst_with_in`` order.
        """
        lay = self._cache.get("in_slots")
        if lay is None:
            src, w, _eidx, seg_starts, _dst, _ptr, _edge_dst = self._in_arrays()
            deg = np.diff(np.append(seg_starts, len(src)))
            order = np.argsort(-deg, kind="stable")
            starts, deg = seg_starts[order], deg[order]
            slots = []
            for j in range(int(deg[0]) if len(deg) else 0):
                pos = starts[:np.count_nonzero(deg > j)] + j
                slots.append((src[pos], w[pos]))
            lay = (tuple(slots), np.argsort(order))
            self._cache["in_slots"] = lay
        return lay

    def _weight_array(self) -> np.ndarray:
        """Edge weights in edge order, in the dtype `_in_arrays` documents."""
        ws = [w for (_, _, w) in self.edges]
        kinds = set(map(type, ws))
        if any(issubclass(t, np.generic) for t in kinds):
            ws = [w.item() if isinstance(w, np.generic) else w for w in ws]
            kinds = set(map(type, ws))
        big = max(map(abs, ws), default=0)
        if 3 * self.n * big >= _FLOAT_RANGE:
            raise ValueError("weights this large pass the float range: "
                             "3n * max|w| must stay below 1.8e308")
        exact = kinds - {int, float}
        if float in kinds:
            # only the integers beside float weights can ask to stay exact
            big = (max(abs(w) for w in ws if type(w) is int)
                   if int in kinds else 0)
        if not exact and 3 * self.n * big < _EXACT_FLOAT:
            return np.array(ws, dtype=np.float64)
        if float in kinds:
            what = "rational weights" if exact else "integer weights this large"
            raise ValueError(f"{what} need exact arithmetic, which float "
                             "weights beside them rule out")
        return np.array(ws, dtype=object)

    def _step_cost(self) -> Tuple[int, int]:
        """(work, depth) charged for one relaxation step of this graph.

        Work is m + n, depth ceil(log2(D + 1)) + 1 for the largest in-degree D.
        """
        cost = self._cache.get("step_cost")
        if cost is None:
            in_deg = int(np.diff(self._in_arrays()[5]).max(initial=0))
            cost = (self.m + self.n, math.ceil(math.log2(in_deg + 1)) + 1)
            self._cache["step_cost"] = cost
        return cost


def _read_number(x, what: str):
    """x as the package computes with it: one rule for weights, times and lam.

    A numpy scalar is read as the number it holds; an int or a Fraction is
    kept, any other real number (a float, a Decimal) becomes a float, which
    must be finite, and a bool or a non-number raises ValueError.
    """
    # Exact types first: an ABC test costs more than the rest of the read.
    kind = type(x)
    if kind is int or kind is Fraction:
        return x
    if kind is not float:
        y = x.item() if isinstance(x, np.generic) else x
        if isinstance(y, bool) or not isinstance(y, (numbers.Real, Decimal)):
            raise ValueError(f"{what} must be a real number, got {x!r}")
        if isinstance(y, (int, Fraction)):
            return int(y) if isinstance(y, int) else y
        x = float(y)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def build_graph(n: int, edge_list: Iterable[Tuple[int, int, float]]) -> Digraph:
    """Validate and build a digraph over vertices 0..n-1.

    The vertex count and the endpoints are read with `operator.index`, so
    numpy integers are taken; every weight is read by `_read_number`.

    :raises ValueError: on a non-integer or out-of-range vertex count or
        endpoint, or on a weight `_read_number` refuses.
    """
    try:
        count = operator.index(n)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    edges = []
    for i, item in enumerate(edge_list):
        try:
            u, v, w = item
        except (TypeError, ValueError):
            raise ValueError(f"edge {i}: expected (u, v, w), got {item!r}") from None
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise ValueError(f"edge {i}: endpoints must be integers, got {item!r}") from None
        if not (0 <= u < count and 0 <= v < count):
            raise ValueError(f"edge {i}: endpoint out of range 0..{count - 1}: ({u}, {v})")
        try:
            edges.append((u, v, _read_number(w, "weight")))
        except ValueError as exc:
            raise ValueError(f"edge {i}: {exc}") from None
    return Digraph(count, edges)


def _float_oracle(g: Digraph) -> None:
    """The oracles compute in float64: refuse weights `_in_arrays` keeps exact."""
    if g._in_arrays()[1].dtype == object:
        raise ValueError("exact weights (integers this large, or rationals) "
                         "would round in a float64 oracle")


def _oracle_candidates(g: Digraph, rows: np.ndarray) -> np.ndarray:
    """Min over in-edges (u, v) of rows[..., u] + w, for every v, in float64.

    ``rows`` holds label rows along its last axis; a vertex without in-edges
    gets inf.  The oracles' one relaxation, kept apart from the engines.
    """
    src, w, _eidx, seg_starts, dst_with_in, _ptr, _edge_dst = g._in_arrays()
    out = np.full(rows.shape, INF)
    if len(src):
        out[..., dst_with_in] = np.minimum.reduceat(rows[..., src] + w, seg_starts,
                                                    axis=-1)
    return out


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
    _float_oracle(g)
    n = g.n
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for _ in range(k):
        new = np.minimum(dist, _oracle_candidates(g, dist))
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def floyd_warshall_oracle(g: Digraph) -> np.ndarray:
    """Exact all-pairs distances by Floyd-Warshall.

    :raises NegativeCycleDetected: when some diagonal entry drops below zero.
    """
    _float_oracle(g)
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

    Brute min-plus powers of the adjacency matrix, each one step of
    `_oracle_candidates` from the last, starting at the 0-diagonal matrix;
    a negative diagonal in the k-th power is exactly a negative k-edge
    closed walk.  Searching up to n suffices for existence because the
    shortest negative closed walk is a simple cycle.
    """
    _float_oracle(g)
    n = g.n
    if k_max is None:
        k_max = n
    # Row i of the k-th power holds the least exactly-k-edge walks from i.
    power = np.full((n, n), INF)
    np.fill_diagonal(power, 0.0)
    for k in range(1, k_max + 1):
        power = _oracle_candidates(g, power)
        if (np.diagonal(power) < 0).any():
            return k
    return None


def has_cycle(g: Digraph) -> bool:
    """True when the digraph contains a directed cycle (self-loops count)."""
    indeg = [0] * g.n
    out: List[List[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        indeg[v] += 1
        out[u].append(v)
    queue = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out[u]:
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
    _float_oracle(g)
    out: List[Path] = []
    edges = g.edges
    out_edges: List[List[int]] = [[] for _ in range(g.n)]
    for e, (u, _v, _w) in enumerate(edges):
        out_edges[u].append(e)

    for s in range(g.n):
        stack_path = [s]
        stack_edges: List[int] = []
        on_path = {s}

        def walk(u: int) -> None:
            for e in out_edges[u]:
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
