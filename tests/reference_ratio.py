"""Ratio probes on the generic engine, the reference the probes of
`hubapsp.parametric` are checked against: exact rationals for the
scaled-integer probes, and the same super-source prices on floats for the
float64 ones."""
import math
from fractions import Fraction

from hubapsp.bellman_ford import NumberOps
from hubapsp.graph import Digraph
from hubapsp.hubs import shortest_negative_cycle
from hubapsp.parametric import _exact_instance, _probe_graph
from reference_engine import _run_multi_generic


def fraction_reduced_graph(tg, lam) -> Digraph:
    """The reduced weights w - lam*t as Fractions."""
    lf = Fraction(lam)
    return Digraph(tg.base.n, tuple(
        (u, v, Fraction(w) - lf * Fraction(t))
        for (u, v, w), t in zip(tg.base.edges, tg.times)))


def fraction_negative_cycle(gl, nonstrict=False):
    """The hop-shortest negative (or nonpositive) cycle, on Fractions."""
    return shortest_negative_cycle(gl, nonstrict=nonstrict, ops=NumberOps())


def fraction_prices(gl):
    """Shortest-path prices from a fresh super-source over zero-weight edges.

    The zero edges take the graph's domain: Fractions, or floats when some
    weight is a float, since no one weight array holds both.  Raises
    AssertionError unless the labels are stable by row n, as they are with
    no negative cycle.
    """
    n = gl.n
    zero = (0.0 if any(isinstance(w, float) for (_, _, w) in gl.edges)
            else Fraction(0))
    aug = Digraph(n + 1, gl.edges + tuple((n, v, zero) for v in range(n)))
    lab = _run_multi_generic(aug, [n], n + 1, NumberOps())[n]
    prev, last = lab.labels[n], lab.labels[n + 1]
    if any(a != b for a, b in zip(prev, last)):
        raise AssertionError("prices not converged despite no negative cycle")
    return tuple(last[:n])


def fraction_bisection(tg, iterations):
    """The (lo, hi) trace of `min_ratio_binary_search` on Fraction probes."""
    ratios = [Fraction(w) / Fraction(t)
              for (_, _, w), t in zip(tg.base.edges, tg.times)]
    lo, hi = min(ratios), max(ratios)
    trace = []
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if fraction_negative_cycle(fraction_reduced_graph(tg, mid)) is not None:
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    return trace


def bisection_stop_step(tg):
    """How many steps `min_ratio_binary_search` probes before its bracket
    pins lam*, read off the instance on its own: the least k with
    span/2^k < D_t/(D_c*Tbar^2), where span is the initial bracket's
    width, D_c and D_t the lcms of the costs' and the times' denominators,
    and Tbar the sum of the n largest times scaled by D_t.  None on a
    float instance, which probes every step."""
    if not _exact_instance(tg):
        return None
    costs = [Fraction(w) for (_, _, w) in tg.base.edges]
    times = [Fraction(t) for t in tg.times]
    d_c = math.lcm(*(c.denominator for c in costs))
    d_t = math.lcm(*(t.denominator for t in times))
    t_bar = sum(sorted(t * d_t for t in times)[-tg.base.n:])
    gap = Fraction(d_t, d_c) / t_bar ** 2
    ratios = [c / t for c, t in zip(costs, times)]
    width, k = max(ratios) - min(ratios), 0
    while width >= gap:
        width, k = width / 2, k + 1
    return k


def probe_bisection(tg, iterations):
    """The (lo, hi) trace of `min_ratio_binary_search` with a full hub
    hierarchy probe (`shortest_negative_cycle` on the probe graph) at every
    step: Fractions on exact instances, floats otherwise, as the search
    forms them."""
    pairs = zip(tg.base.edges, tg.times)
    if _exact_instance(tg):
        ratios = [Fraction(w) / Fraction(t) for (_, _, w), t in pairs]
    else:
        ratios = [w / t for (_, _, w), t in pairs]
    lo, hi = min(ratios), max(ratios)
    trace = []
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if shortest_negative_cycle(_probe_graph(tg, mid)[0]) is not None:
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    return trace


def fraction_interval_sign(x, lo, hi, lo_excl, hi_excl):
    """Sign of x - lam* where the interval [lo, hi] around lam* decides it,
    else None, on Fractions: an excluded end signs a breakpoint equal to
    it, and a one-point interval is lam* itself."""
    if x < lo:
        return -1
    if x > hi:
        return 1
    if lo == hi:
        return 0
    if x == lo and lo_excl:
        return -1
    if x == hi and hi_excl:
        return 1
    return None
