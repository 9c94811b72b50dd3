"""Seeded benchmark inputs, emitted as DIMACS text.

Graph workloads start from `generate.ring_with_chords` (nonnegative integer
weights) and reweight every arc to w + p(u) - p(v) with random integer
potentials p.  Every cycle keeps its weight, so the result has no negative
cycle, while many single arcs turn negative.  The potentials are the
certificate: w' - p(u) + p(v) >= 0 on every arc is checked in O(m), instead
of rejection-sampling against an O(n^3) oracle.

A planted variant adds one arc v -> u of weight -(d'(u, v) + 1), where d' is
the reweighted shortest u -> v distance.  Every negative closed walk must use
that arc, each use adds at least one shortest u -> v path, and integer
weights make "negative" mean "exactly -1 per use", so the hop-shortest
negative cycle has 1 + (fewest hops on a shortest u -> v path) hops.  The
generator picks (u, v) so that this count equals the requested one.

Timed instances are fixed `generate.random_timed` draws.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from hubapsp import generate

POTENTIAL = 50          # potentials are drawn from [-POTENTIAL, POTENTIAL]


@dataclass(frozen=True)
class GraphCase:
    """One benchmark input: its DIMACS text and what the generator knows."""
    label: str
    text: str
    neg_hops: Optional[int] = None          # hop count of the planted cycle
    lambda_star: Optional[Fraction] = None  # optimum ratio of a timed case


def dimacs(n: int, arcs: Sequence[tuple], timed: bool = False) -> str:
    kind = "spt" if timed else "sp"
    lines = [f"p {kind} {n} {len(arcs)}"]
    lines += ["a " + " ".join(str(x) for x in (a[0] + 1, a[1] + 1) + tuple(a[2:]))
              for a in arcs]
    return "\n".join(lines) + "\n"


def _certify(arcs, p) -> None:
    for u, v, w in arcs:
        if w - p[u] + p[v] < 0:
            raise RuntimeError(f"potential certificate fails on arc {u}->{v}")


def _reweighted_ring(n: int, rng: random.Random):
    base = generate.ring_with_chords(n, 3 * n, rng.getrandbits(32))
    p = [rng.randint(-POTENTIAL, POTENTIAL) for _ in range(n)]
    arcs = [(u, v, w + p[u] - p[v]) for (u, v, w) in base.edges]
    _certify(arcs, p)
    return base.edges, arcs, p


def _fewest_hop_shortest(n: int, edges, s: int) -> List[Tuple[float, int]]:
    """(distance, fewest hops among shortest paths) from s; weights >= 0."""
    out = [[] for _ in range(n)]
    for u, v, w in edges:
        out[u].append((v, w))
    best = [(float("inf"), 0)] * n
    best[s] = (0, 0)
    heap = [(0, 0, s)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if (d, h) > best[u]:
            continue
        for v, w in out[u]:
            key = (d + w, h + 1)
            if key < best[v]:
                best[v] = key
                heapq.heappush(heap, (d + w, h + 1, v))
    return best


def ring_graphs(n: int, count: int, seed: int) -> List[GraphCase]:
    """`count` reweighted ring-with-chords graphs, none with a negative cycle."""
    cases = []
    for i in range(count):
        _, arcs, _ = _reweighted_ring(n, random.Random(f"ring-{n}-{seed}-{i}"))
        cases.append(GraphCase(f"ring{i}", dimacs(n, arcs)))
    return cases


def planted_graphs(n: int, hops: Sequence[int], seed: int) -> List[GraphCase]:
    """One reweighted ring per entry of `hops`; an entry of None plants
    nothing, any other plants a negative cycle whose hop-shortest length is
    exactly that entry."""
    cases = []
    for i, want in enumerate(hops):
        rng = random.Random(f"plant-{n}-{seed}-{i}")
        base, arcs, p = _reweighted_ring(n, rng)
        if want is None:
            cases.append(GraphCase(f"free{i}", dimacs(n, arcs)))
            continue
        for _ in range(100 * n):
            u = rng.randrange(n)
            dist = _fewest_hop_shortest(n, base, u)
            ends = [v for v in range(n) if v != u and dist[v][1] == want - 1]
            if ends:
                break
        else:
            raise RuntimeError(f"no vertex pair with a {want - 1}-hop shortest path")
        v = rng.choice(ends)
        arcs.append((v, u, -(dist[v][0] + p[u] - p[v]) - 1))
        cases.append(GraphCase(f"neg{want}", dimacs(n, arcs), neg_hops=want))
    return cases


def timed_cases(n: int, instances: Sequence[Tuple[int, Fraction]]) -> List[GraphCase]:
    """Fixed `random_timed(n, 0.3, -3, 9, s)` instances.

    `instances` pairs each instance seed with its optimum ratio, pinned so a
    run notices a wrong but self-consistent answer.  They take no benchmark
    seed: relabelling vertices or reordering arcs moves the parametric
    search's cost by up to 40% per instance, more than the runs may spread.
    """
    cases = []
    for inst, lam in instances:
        tg = generate.random_timed(n, 0.3, -3, 9, inst)
        arcs = [(u, v, w, t) for (u, v, w), t in zip(tg.base.edges, tg.times)]
        cases.append(GraphCase(f"timed{inst}", dimacs(n, arcs, timed=True),
                               lambda_star=lam))
    return cases
