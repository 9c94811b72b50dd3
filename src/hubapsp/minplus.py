"""Min-plus matrix algebra and the depth-tunable all-pairs pipeline.

The pipeline trades depth for work through one knob d: build hub levels up
to H_d, weight the complete graph on H_d by (d+1)-hop distances, close it
by repeated min-plus squaring until it stops changing, then lift exact
distances back down the levels with short label runs whose start rows
already hold the known distances to every higher-level hub.  A vertex of
the level above already has its exact full rows, so only the level's new
vertices run.  Small d pushes the effort into the dense closure; large d
pushes it into the label runs.

Every matrix and row here takes the dtype of the graph's weight array
(`Digraph._in_arrays`), so integer weights too large for float64 give
exact Python-int distances on object arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple, Union

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
class LevelDistances:
    """Exact distances between one hub level and all of V, both directions.

    Row j of `from_hub` is dist(vertices[j], .); row j of `to_hub` is
    dist(., vertices[j]).  Every row is exact and full, so the level below
    can copy the rows of the vertices it shares with this one.
    """
    vertices: Tuple[int, ...]
    from_hub: np.ndarray
    to_hub: np.ndarray


@dataclass(frozen=True)
class ApspResult:
    dist: DistMatrix
    hierarchy: HubHierarchy
    meter: WorkDepthReport


def minplus_product(A: DistMatrix, B: DistMatrix,
                    meter: Optional[CostMeter] = None) -> DistMatrix:
    """C(i,j) = min over k of A(i,k) + B(k,j); infinities absorb."""
    if A.index != B.index:
        raise ValueError("operand index sets differ")
    b = len(A.index)
    out = np.empty((b, b), dtype=A.values.dtype)
    for i in range(b):
        out[i] = (A.values[i][:, None] + B.values).min(axis=0)
    if meter is not None:
        depth = math.ceil(math.log2(b)) + 1 if b > 1 else 1
        meter.parallel_region([(b * b, depth)] * b)
    return DistMatrix(A.index, out)


def minplus_closure(A: DistMatrix, meter: Optional[CostMeter] = None) -> DistMatrix:
    """Shortest-walk values within the matrix's own graph.

    The diagonal is clamped to min(entry, 0) so squarings compose walks of
    any shorter hop count; at most ceil(log2(b)) squarings then cover every
    simple path and every simple cycle length.  Squaring stops early at the
    first product that equals its input: if D = D*D, D is already closed.
    Raises NegativeDiagonal as soon as any diagonal entry is negative,
    including on entry and after every product: a negative diagonal is a
    negative closed walk, and a matrix with one never reaches a fixpoint.
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
    for _ in range(max(0, math.ceil(math.log2(b)))):
        nxt = minplus_product(cur, cur, meter)
        check(nxt)
        if np.array_equal(nxt.values, cur.values):
            break
        cur = nxt
    return cur


def build_hub_graph(g: Digraph, H_d: Iterable[int], d: int,
                    meter: Optional[CostMeter] = None) -> DistMatrix:
    """Complete graph on the top hub level, weighted by (d+1)-hop distances."""
    hubs = sorted(set(H_d))
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
    return DistMatrix(tuple(hubs), values)


def lift_level(g: Digraph, level: Iterable[int],
               known: Union[LevelDistances, DistMatrix], h: int,
               meter: Optional[CostMeter] = None) -> LevelDistances:
    """Exact distances for a lower hub level from the level above it.

    ``known`` is the level above, or for the top level the closed hub
    graph, whose index must cover the level.  A vertex that ``known`` holds
    as a `LevelDistances` row copies its exact rows.  Every other source's
    start row holds 0 at the source and the known exact distance to every
    higher-level hub, then takes 2h+1 label steps.  Any shortest path longer
    than that detours onto a higher-level hub within its last h hops, so the
    seeded hub plus the tail fits in the step budget.  A reverse-graph pass
    fills the distances into the level.
    """
    sources = sorted(set(level))
    steps = 2 * h + 1
    if isinstance(known, DistMatrix):
        at = {v: i for i, v in enumerate(known.index)}
        pos = [at[s] for s in sources]
        new, held = sources, []
        fwd = (known.values[pos], None)
        rev = (known.values[:, pos].T, None)
    else:
        at = {v: i for i, v in enumerate(known.vertices)}
        new = [s for s in sources if s not in at]
        held = [s for s in sources if s in at]
        fwd = (known.to_hub[:, new].T, known.from_hub)
        rev = (known.from_hub[:, new].T, known.to_hub)
    cols = np.asarray(list(at), dtype=np.int64)
    S = len(new)
    dtype = g._in_arrays()[1].dtype

    def lifted(host, seeds, above):
        rows = np.full((S, g.n), INF, dtype=dtype)
        if S:
            rows[:, cols] = seeds
            rows[np.arange(S), new] = 0
            rows = relax(host, rows, steps)
            if meter is not None:
                w, dep = host._step_cost()
                meter.parallel_region(
                    [(steps * w + len(cols), steps * dep + 1)] * S)
        if not held:
            return rows
        out = np.empty((len(sources), g.n), dtype=dtype)
        out[np.searchsorted(sources, new)] = rows
        out[np.searchsorted(sources, held)] = above[[at[s] for s in held]]
        return out

    return LevelDistances(tuple(sources), lifted(g, *fwd),
                          lifted(g.reverse(), *rev))


def apsp(g: Digraph, d_requested: int) -> Union[ApspResult, NegativeCycle]:
    """All-pairs exact distances, or the graph's hop-shortest negative cycle.

    d_requested is rounded down to a power of two d.  Negative cycles of at
    most d hops surface during hierarchy construction; longer ones reach
    the hub graph and trip the closure's diagonal check, after which the
    full-depth detector reruns to produce a witness cycle.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if not (1 <= d_requested <= max(n, 1)):
        raise ValueError(f"d must lie in 1..{n}, got {d_requested}")
    meter = CostMeter()
    d = 1 << (d_requested.bit_length() - 1)
    K = d.bit_length() - 1

    with meter.phase("hierarchy"):
        built = build_hub_hierarchy(g, d, meter=meter)
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

    # The closure values seed the top level's lift, standing in for a level 2d.
    known = closed
    with meter.phase("lift"):
        for k in range(K, -1, -1):
            with meter.phase(f"level-{1 << k}"):
                known = lift_level(g, built.levels[k], known, 1 << k, meter)

    dist = DistMatrix(tuple(range(n)), known.from_hub)
    return ApspResult(dist, built, meter.report())
