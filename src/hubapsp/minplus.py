"""Min-plus matrix algebra and the depth-tunable all-pairs pipeline.

The pipeline trades depth for work through one knob d: build hub levels up
to H_d, weight the complete graph on H_d by (d+1)-hop distances, close it
by repeated min-plus squaring, then lift exact distances back down the
levels with short label runs whose start rows already hold the known
distances to every higher-level hub.  Small d pushes the effort into the
dense closure; large d pushes it into the label runs.
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

    def entry(self, u: int, v: int) -> float:
        return float(self.values[self.index.index(u), self.index.index(v)])


@dataclass(frozen=True)
class LevelDistances:
    """Exact distances between one hub level and all of V, both directions.

    Row j of `from_hub` is dist(vertices[j], .); row j of `to_hub` is
    dist(., vertices[j]).
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
    out = np.empty((b, b))
    for i in range(b):
        out[i] = (A.values[i][:, None] + B.values).min(axis=0)
    if meter is not None:
        depth = math.ceil(math.log2(b)) + 1 if b > 1 else 1
        meter.parallel_region([(b * b, depth)] * b)
    return DistMatrix(A.index, out)


def minplus_closure(A: DistMatrix, meter: Optional[CostMeter] = None) -> DistMatrix:
    """Shortest-walk values within the matrix's own graph.

    The diagonal is clamped to min(entry, 0) so squarings compose walks of
    any shorter hop count; ceil(log2(b)) squarings then cover every simple
    path and every simple cycle length.  Raises NegativeDiagonal as soon as
    any diagonal entry is negative, including on entry: a negative input
    diagonal is already a negative closed walk.
    """
    b = len(A.index)
    values = A.values.copy()
    if b == 0:
        return DistMatrix(A.index, values)
    diag = np.diagonal(values).copy()
    np.fill_diagonal(values, np.minimum(diag, 0.0))
    cur = DistMatrix(A.index, values)

    def check(mat):
        d = np.diagonal(mat.values)
        bad = np.nonzero(d < 0)[0]
        if len(bad):
            raise NegativeDiagonal(A.index[int(bad[0])])

    check(cur)
    for _ in range(max(0, math.ceil(math.log2(b)))):
        cur = minplus_product(cur, cur, meter)
        check(cur)
    return cur


def build_hub_graph(g: Digraph, H_d: Iterable[int], d: int,
                    meter: Optional[CostMeter] = None) -> DistMatrix:
    """Complete graph on the top hub level, weighted by (d+1)-hop distances."""
    hubs = sorted(set(H_d))
    b = len(hubs)
    values = np.full((b, b), INF)
    if b:
        cols = np.asarray(hubs, dtype=np.int64)
        rows = np.full((b, g.n), INF)
        rows[np.arange(b), cols] = 0.0
        values = relax(g, rows, d + 1)[:, cols]
        if meter is not None:
            w, dep = g._step_cost()
            meter.parallel_region([((d + 1) * w, (d + 1) * dep)] * b)
    return DistMatrix(tuple(hubs), values)


def lift_level(g: Digraph, level: Iterable[int], known: LevelDistances, h: int,
               meter: Optional[CostMeter] = None) -> LevelDistances:
    """Exact distances for a lower hub level from the level above it.

    Each source's start row holds 0 at the source and the known exact
    distance to every higher-level hub, then takes 2h+1 label steps.  Any
    shortest path longer than that detours onto a higher-level hub within
    its last h hops, so the seeded hub plus the tail fits in the step
    budget.  A reverse-graph pass fills the distances into the level.
    """
    sources = sorted(set(level))
    steps = 2 * h + 1
    S = len(sources)
    cols = np.asarray(known.vertices, dtype=np.int64)

    def run(host, seeds):
        rows = np.full((S, g.n), INF)
        if S:
            rows[:, cols] = seeds[:, sources].T
            rows[np.arange(S), sources] = 0.0
            rows = relax(host, rows, steps)
            if meter is not None:
                w, dep = host._step_cost()
                meter.parallel_region(
                    [(steps * w + len(cols), steps * dep + 1)] * S)
        return rows

    from_hub = run(g, known.to_hub)
    to_hub = run(g.reverse(), known.from_hub)
    return LevelDistances(tuple(sources), from_hub, to_hub)


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

    # Seed the lift with the closure values, standing in for a level 2d.
    L = len(top)
    from_hub = np.full((L, n), INF)
    to_hub = np.full((L, n), INF)
    if L:
        cols = np.asarray(top, dtype=np.int64)
        from_hub[:, cols] = closed.values
        to_hub[:, cols] = closed.values.T
    known = LevelDistances(tuple(top), from_hub, to_hub)

    with meter.phase("lift"):
        for k in range(K, -1, -1):
            with meter.phase(f"level-{1 << k}"):
                known = lift_level(g, built.levels[k], known, 1 << k, meter)

    dist = DistMatrix(tuple(range(n)), known.from_hub)
    return ApspResult(dist, built, meter.report())
