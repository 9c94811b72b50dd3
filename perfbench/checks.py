"""Output checks.  Each returns None when the result is right, else a reason.

The expected values come from oracles run once per input during set-up
(`floyd_warshall_oracle`, `negative_cycle_hops_oracle`, an untimed
parametric search) and from the generator's own certificates, never from the
call being timed.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from hubapsp import ApspResult, NegativeCycle, RatioAnswer

BISECT_ITERATIONS = 60


def _closed_walk(graph, vertices, edges):
    """Weight of the closed walk, or a reason it is not one in `graph`."""
    if len(edges) == 0 or len(vertices) != len(edges) + 1:
        return None, "walk has no arcs or its vertex list does not match"
    if vertices[0] != vertices[-1]:
        return None, "walk is not closed"
    total = 0
    for i, e in enumerate(edges):
        if not 0 <= e < graph.m:
            return None, f"arc index {e} out of range"
        u, v, w = graph.edges[e]
        if (u, v) != (vertices[i], vertices[i + 1]):
            return None, f"arc {e} does not join {vertices[i]}->{vertices[i + 1]}"
        total += w
    return total, None


def check_apsp(res, fw: np.ndarray):
    if not isinstance(res, ApspResult):
        return f"expected distances, got {type(res).__name__}"
    if res.dist.index != tuple(range(fw.shape[0])):
        return "distance matrix is not indexed by 0..n-1"
    if not np.array_equal(res.dist.values, fw):
        bad = int(np.count_nonzero(res.dist.values != fw))
        return f"{bad} entries differ from Floyd-Warshall"
    return None


def check_negcycle(res, graph, hops):
    """`hops` is the oracle's fewest-hop count, or None for a cycle-free graph."""
    if hops is None:
        return None if res is None else "cycle reported on a cycle-free graph"
    if not isinstance(res, NegativeCycle):
        return "no cycle reported on a graph with a negative cycle"
    total, why = _closed_walk(graph, res.cycle.vertices, res.cycle.edges)
    if why:
        return why
    if not total < 0 or total != res.weight:
        return f"witness weight {total} (reported {res.weight}) is not negative"
    if res.hops != hops:
        return f"witness has {res.hops} hops, the fewest is {hops}"
    return None


def check_ratio(ans, tg, lam: Fraction):
    if not isinstance(ans, RatioAnswer):
        return f"expected a ratio answer, got {type(ans).__name__}"
    if ans.lambda_star != lam:
        return f"lambda* {ans.lambda_star} differs from the expected {lam}"
    w = ans.witness
    cost, why = _closed_walk(tg.base, w.vertices, w.edges)
    if why:
        return why
    time = sum(tg.times[e] for e in w.edges)
    if Fraction(cost) / Fraction(time) != lam:
        return "witness ratio differs from lambda*"
    price = ans.certificate
    for (u, v, c), t in zip(tg.base.edges, tg.times):
        if Fraction(c) - lam * Fraction(t) + Fraction(price[u]) - Fraction(price[v]) < 0:
            return f"certificate leaves arc {u}->{v} with negative reduced weight"
    return None


def initial_span(tg) -> Fraction:
    ratios = [Fraction(w) / Fraction(t) for (_, _, w), t in zip(tg.base.edges, tg.times)]
    return max(ratios) - min(ratios)


def check_bisect(bracket, tg, lam: Fraction):
    lo, hi = bracket
    if not lo <= lam <= hi:
        return f"bracket [{lo}, {hi}] misses lambda* {lam}"
    if hi - lo != initial_span(tg) / 2 ** BISECT_ITERATIONS:
        return "bracket width is not the initial span / 2^60"
    return None


def perturb_apsp(res):
    vals = res.dist.values.copy()
    i, j = np.argwhere(np.isfinite(vals))[-1]
    vals[i, j] += 1
    return ApspResult(type(res.dist)(res.dist.index, vals), res.hierarchy, res.meter)


def perturb_negcycle(res):
    return None     # claims "no negative cycle"; only used on planted inputs


def perturb_ratio(ans):
    return RatioAnswer(ans.lambda_star + Fraction(1, 1000), ans.witness, ans.certificate)


def perturb_bisect(bracket):
    lo, hi = bracket
    shift = 2 * (hi - lo) + 1
    return lo + shift, hi + shift
