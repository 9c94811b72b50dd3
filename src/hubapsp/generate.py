"""Seeded random instances for tests and the verification harness.

Everything here is a pure function of its arguments; the same seed always
yields the same graph, byte for byte through serialization.
"""

from __future__ import annotations

import random
from typing import Optional

from .graph import Digraph, build_graph, floyd_warshall_oracle, has_cycle
from .graph import NegativeCycleDetected
from .parametric import TimedDigraph


def random_digraph(n: int, p: float, lo: int, hi: int, seed: int) -> Digraph:
    """Erdos-Renyi style: each ordered pair u != v independently with
    probability p, integer weight uniform in [lo, hi]."""
    rng = random.Random(seed)
    return _draw(rng, n, p, lo, hi)


def _draw(rng: random.Random, n: int, p: float, lo: int, hi: int) -> Digraph:
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v, rng.randint(lo, hi)))
    return build_graph(n, edges)


def _sample(n: int, p: float, lo: int, hi: int, seed: int, max_tries: int,
            negative: bool) -> Digraph:
    """Rejection-sample until whether the Floyd-Warshall oracle finds a
    negative cycle equals ``negative``."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        g = _draw(rng, n, p, lo, hi)
        try:
            floyd_warshall_oracle(g)
            found = False
        except NegativeCycleDetected:
            found = True
        if found == negative:
            return g
    what = "negative-cycle" if negative else "negative-cycle-free"
    raise RuntimeError(
        f"no {what} draw in {max_tries} tries (n={n}, p={p}, "
        f"weights [{lo},{hi}])")


def negative_cycle_free(n: int, p: float, lo: int, hi: int, seed: int,
                        max_tries: int = 1000) -> Digraph:
    """Rejection-sample until the Floyd-Warshall oracle accepts."""
    return _sample(n, p, lo, hi, seed, max_tries, False)


def with_negative_cycle(n: int, p: float, lo: int, hi: int, seed: int,
                        max_tries: int = 1000) -> Digraph:
    """Rejection-sample until a negative cycle exists; lo must be < 0."""
    return _sample(n, p, lo, hi, seed, max_tries, True)


def ring_with_chords(n: int, chords: int, seed: int, *,
                     ring_lo: int = 1, ring_hi: int = 4,
                     chord_lo: int = 0, chord_hi: int = 20) -> Digraph:
    """Directed ring plus random chords, all weights nonnegative integers.

    Shortest paths hug the ring for most pairs, so minimal paths reach n-1
    hops; chord shortcuts keep the instances from being pure cycles.  Useful
    where hub levels must stay meaningful at large hop counts.  A chord
    joins two vertices that are not ring neighbours, so chords need n >= 3.
    """
    if n < 2:
        raise ValueError("ring needs n >= 2")
    if chords > 0 and n < 3:
        raise ValueError("chords need n >= 3: every pair of 2 vertices is a ring edge")
    if ring_lo < 0 or chord_lo < 0:
        raise ValueError("ring and chord weights must be nonnegative")
    rng = random.Random(seed)
    edges = [(u, (u + 1) % n, rng.randint(ring_lo, ring_hi))
             for u in range(n)]
    for _ in range(chords):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u or v == (u + 1) % n:
            v = rng.randrange(n)
        edges.append((u, v, rng.randint(chord_lo, chord_hi)))
    return build_graph(n, edges)


def random_timed(n: int, p: float, wlo: int, whi: int, seed: int, *,
                 t_hi: int = 3, max_tries: int = 1000) -> TimedDigraph:
    """Timed instance containing at least one directed cycle.

    Costs uniform in [wlo, whi], times uniform in [1, t_hi].
    """
    rng = random.Random(seed)
    for _ in range(max_tries):
        base = _draw(rng, n, p, wlo, whi)
        if not has_cycle(base):
            continue
        times = tuple(rng.randint(1, t_hi) for _ in range(base.m))
        return TimedDigraph(base, times)
    raise RuntimeError(
        f"no cyclic draw in {max_tries} tries (n={n}, p={p})")
