import functools
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hubapsp import parametric
from hubapsp.bellman_ford import _label_run
from hubapsp.fileio import parse_graph
from hubapsp.generate import random_timed
from hubapsp.graph import INF, Digraph, build_graph, enumerate_simple_cycles
from hubapsp.parametric import (
    AcyclicGraphError,
    Feasible,
    Infeasible,
    RatioAnswer,
    TimedDigraph,
    build_timed_graph,
    evaluate_lambda,
    min_mean_cycle_karp,
    min_ratio_binary_search,
    min_ratio_parametric,
    _Resolver,
    _probe_graph,
)
from reference_ratio import (fraction_negative_cycle, fraction_prices,
                             fraction_reduced_graph, probe_bisection)
from reference_step import edge_tables


def ratio_oracle(tg):
    """Exact minimum cost-to-time ratio by exhaustive cycle enumeration.

    The cycles are enumerated on the arcs alone, with zero weights, since
    the float64 enumeration refuses weights too large for it."""
    arcs = Digraph(tg.base.n, [(u, v, 0) for (u, v, _) in tg.base.edges])
    best = None
    for cyc in enumerate_simple_cycles(arcs):
        w = sum(tg.base.edges[e][2] for e in cyc.edges)
        t = sum(tg.times[e] for e in cyc.edges)
        r = Fraction(w) / Fraction(t)
        if best is None or r < best:
            best = r
    return best


def mean_oracle(g):
    best = None
    for cyc in enumerate_simple_cycles(g):
        r = Fraction(cyc.length) / cyc.hops
        if best is None or r < best:
            best = r
    return best


UNIT_TRIANGLE = build_timed_graph(
    3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 1)])


def test_timed_graph_validates_times():
    g = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError):
        TimedDigraph(g, (1,))
    with pytest.raises(ValueError):
        TimedDigraph(g, (1, 0))
    with pytest.raises(ValueError):
        TimedDigraph(g, (1, math.inf))
    # A bool is not a time, nor is a string; a huge Fraction is one, and
    # once overflowed the finiteness test.
    for bad in (True, np.bool_(True), "1", None, 1j):
        with pytest.raises(ValueError):
            TimedDigraph(g, (1, bad))
    big = TimedDigraph(g, (1, Fraction(10 ** 400)))
    assert big.times == (1, 10 ** 400)
    # A Decimal time becomes a float, as a Decimal weight does in build_graph.
    dec = TimedDigraph(g, (Decimal("0.5"), Decimal("1.1")))
    assert dec.times == (0.5, 1.1) and all(type(t) is float for t in dec.times)
    for bad in (Decimal("NaN"), Decimal("Infinity"), Decimal("-1")):
        with pytest.raises(ValueError):
            TimedDigraph(g, (1, bad))


@pytest.mark.parametrize("kind", [np.float32, np.int64, np.float64])
def test_numpy_scalar_times_read_as_python_numbers(kind):
    # A float32 time once reached Fraction() and raised TypeError, or gave
    # bisection a float32 bracket; an int64 one made the parametric search
    # raise.  Every search now sees the Python numbers the scalars hold.
    base = random_timed(8, 0.3, -3, 9, seed=24)
    shift = 0 if kind is np.int64 else 0.1
    tg = TimedDigraph(base.base, [kind(t + shift) for t in base.times])
    plain = TimedDigraph(base.base, [kind(t + shift).item() for t in base.times])
    assert tg == plain
    assert all(type(t) in (int, float) for t in tg.times)
    got, want = min_ratio_parametric(tg), min_ratio_parametric(plain)
    assert got == want and type(got.lambda_star) is type(want.lambda_star)
    got, want = min_ratio_binary_search(tg, 30), min_ratio_binary_search(plain, 30)
    assert got == want and list(map(type, got)) == list(map(type, want))
    for lam in (Fraction(1, 3), -0.75):
        assert repr(evaluate_lambda(tg, lam)) == repr(evaluate_lambda(plain, lam))


def _scale_by_fractions(tg):
    """`parametric._scale` as one Fraction per number computes it."""
    ws = [Fraction(w) for (_, _, w) in tg.base.edges]
    ts = [Fraction(t) for t in tg.times]
    d_c = math.lcm(*(x.denominator for x in ws))
    d_t = math.lcm(*(y.denominator for y in ts))
    return [int(x * d_c) for x in ws], [int(y * d_t) for y in ts], d_c, d_t


@pytest.mark.parametrize("costs,times", [
    ([3, -7, 0], [1, 2, 5]),
    ([Fraction(-3, 4), Fraction(5, 6), 2], [Fraction(1, 3), 2, Fraction(7, 2)]),
    ([0.1, -0.1, 0.3], [0.1, 1, 3]),
    ([1e300, -1e300, 1], [1e300, 1, 2]),
    ([5e-324, -5e-324, 0.0], [5e-324, 1, 0.5]),
    ([0.1, Fraction(1, 3), 7, 1e300, 5e-324, -2.5],
     [Fraction(2, 7), 0.1, 3, 5e-324, 1e300, 0.75]),
    ([np.int64(-3), np.float64(0.1), 2], [1, 2, 3]),
])
def test_scale_reads_the_numbers_as_fractions_would(costs, times):
    # Integer ratios of ints, Fractions and floats down to the least
    # subnormal and up to 1e300, alone and mixed, and numpy scalars a
    # Digraph was built with: the same Python ints and the same (D_c, D_t)
    # as a Fraction per number.
    n = len(costs)
    tg = TimedDigraph(Digraph(n, [(e, (e + 1) % n, w) for e, w in enumerate(costs)]),
                      times)
    c, t, d_c, d_t = parametric._scale(tg)
    want_c, want_t, want_dc, want_dt = _scale_by_fractions(tg)
    assert c.dtype == t.dtype == object
    assert [(type(x), x) for x in c] == [(int, x) for x in want_c]
    assert [(type(x), x) for x in t] == [(int, x) for x in want_t]
    assert (type(d_c), d_c, type(d_t), d_t) == (int, want_dc, int, want_dt)


def test_each_search_scales_the_instance_once(monkeypatch):
    # The scaled costs and times are formed once per instance and read by
    # the symbolic run, every probe and the certificate alike.
    calls = []
    scale = parametric._scale
    monkeypatch.setattr(parametric, "_scale",
                        lambda tg: calls.append(tg) or scale(tg))
    tg = random_timed(8, 0.3, -3, 9, seed=24)
    assert min_ratio_parametric(tg).oracle_calls == 16
    assert calls == [tg]
    tg = parse_graph(DATA / "timed6.gr")
    trace = []
    min_ratio_binary_search(tg, 60, _trace=trace)
    assert len(trace) == 60 and len(calls) == 2 and calls[-1] is tg


def test_karp_two_cycle():
    g = build_graph(2, [(0, 1, 1), (1, 0, 2)])
    lam, cyc = min_mean_cycle_karp(g)
    assert lam == Fraction(3, 2)
    assert cyc.hops == 2 and cyc.length == 3


def test_karp_prefers_negative_triangle():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 0, -3),
                        (0, 3, 1), (3, 0, 1)])
    lam, cyc = min_mean_cycle_karp(g)
    assert lam == Fraction(-1, 3)
    assert cyc.hops == 3
    assert sum(g.edges[e][2] for e in cyc.edges) == -1


def test_karp_rejects_acyclic():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(AcyclicGraphError):
        min_mean_cycle_karp(g)


def test_karp_matches_enumeration():
    for seed in range(30):
        tg = random_timed(8, 0.3, -5, 9, seed=2000 + seed)
        lam, cyc = min_mean_cycle_karp(tg.base)
        assert lam == mean_oracle(tg.base), seed
        assert Fraction(cyc.length) / cyc.hops == lam, seed
        assert len(set(cyc.vertices[:-1])) == cyc.hops, seed


def test_karp_is_exact_on_fraction_weights():
    # Karp once truncated Fraction weights through int() and returned a
    # float mean beside an exact witness.
    g = Digraph(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3)),
                    (2, 0, Fraction(1, 3)), (1, 0, Fraction(1, 7))])
    assert min_mean_cycle_karp(g)[0] == Fraction(5, 21)
    for seed in range(20):
        base = random_timed(8, 0.3, -5, 9, seed=2100 + seed).base
        g = Digraph(8, [(u, v, Fraction(w, 1 + (u + 2 * v) % 5))
                        for (u, v, w) in base.edges])
        lam, cyc = min_mean_cycle_karp(g)
        # Cycles of the float copy, each mean recomputed on the exact edges.
        approx = Digraph(8, [(u, v, float(w)) for (u, v, w) in g.edges])
        want = min(sum(g.edges[e][2] for e in c.edges) / c.hops
                   for c in enumerate_simple_cycles(approx))
        assert type(lam) is Fraction and lam == want, seed
        assert type(cyc.length) is Fraction and cyc.length / cyc.hops == lam, seed
        assert len(set(cyc.vertices[:-1])) == cyc.hops, seed


def test_karp_is_exact_past_2_53():
    # Scaled by 2^60 the walk table holds Python ints; the mean and the
    # cycle are the unscaled ones, the mean times 2^60.
    for seed in range(10):
        g = random_timed(8, 0.3, -5, 9, seed=2000 + seed).base
        big = build_graph(g.n, [(u, v, w * 2 ** 60) for (u, v, w) in g.edges])
        lam, cyc = min_mean_cycle_karp(g)
        big_lam, big_cyc = min_mean_cycle_karp(big)
        assert big_lam == lam * 2 ** 60, seed
        assert (big_cyc.vertices, big_cyc.edges) == (cyc.vertices, cyc.edges), seed
        assert type(big_cyc.length) is int, seed


def _close_means(first, second):
    # Two disjoint cycles of X = 2^48 per edge on 10 vertices, each first
    # edge X + extra; 30X < 2^53, so Karp's table is float64, where the
    # means, X + extra/len, round to one value.
    X = 2 ** 48
    edges, start = [], 0
    for length, extra in (first, second):
        vs = range(start, start + length)
        edges += [(v, vs[(i + 1) % length], X + (extra if i == 0 else 0))
                  for i, v in enumerate(vs)]
        start += length
    return build_graph(start, edges)


@pytest.mark.parametrize("first,second", [
    ((3, 1), (7, 2)), ((7, 2), (3, 1)),   # X + 1/3 against X + 2/7
    ((4, 1), (6, 1)), ((6, 1), (4, 1)),   # X + 1/4 against X + 1/6
])
def test_karp_picks_the_exact_minimum_among_rounded_ties(first, second):
    # Karp once took the first vertex of the rounded minimum: it returned
    # X + 1/3 on the first pair, and failed its own cross-check on the
    # second.
    g = _close_means(first, second)
    assert g._in_arrays()[1].dtype == np.float64
    lam, cyc = min_mean_cycle_karp(g)
    assert type(lam) is Fraction and lam == mean_oracle(g)
    assert Fraction(cyc.length, cyc.hops) == lam


def test_karp_separates_means_float64_cannot():
    # The two loop means differ by 1 near 3 * 2^60, where float64 steps by 512.
    w = 3 * 2 ** 60
    lam, cyc = min_mean_cycle_karp(build_graph(2, [(0, 0, w + 1), (1, 1, w)]))
    assert lam == w and cyc.vertices == (1, 1)


def test_evaluate_above_lambda_star_is_infeasible():
    out = evaluate_lambda(UNIT_TRIANGLE, 2)
    assert isinstance(out, Infeasible)
    assert out.cycle.hops == 3


def test_evaluate_below_lambda_star_is_feasible():
    out = evaluate_lambda(UNIT_TRIANGLE, 0.5)
    assert isinstance(out, Feasible)


def test_evaluate_at_lambda_star_is_feasible():
    # the reduced triangle has weight exactly zero, which is not negative
    out = evaluate_lambda(UNIT_TRIANGLE, 1)
    assert isinstance(out, Feasible)


def test_evaluate_lambda_rejects_non_finite():
    # nan once read as feasible with infinite prices, inf as a cycle of
    # weight -inf, and -inf as feasible with zero prices.  A non-number is
    # refused too: True once probed lam = 1, and "1" raised TypeError.
    for lam in (math.nan, math.inf, -math.inf, True, np.bool_(False), "1",
                None, 1j):
        with pytest.raises(ValueError):
            evaluate_lambda(UNIT_TRIANGLE, lam)


def test_float_lambda_prices_match_the_augmented_reference():
    # A float lam takes the same probe as a rational one, on float64
    # reduced weights; its prices are those of the super-source run.
    checked = 0
    for seed in range(12):
        tg = random_timed(7, 0.35, -4, 8, seed=3300 + seed)
        half = TimedDigraph(Digraph(tg.base.n, [(u, v, w / 2) for (u, v, w)
                                                in tg.base.edges]), tg.times)
        lam_star = ratio_oracle(tg) / 2
        for lam in (float(lam_star) - 0.3, float(lam_star) - 2.75, -5.1):
            out = evaluate_lambda(half, lam)
            assert isinstance(out, Feasible), (seed, lam)
            want = fraction_prices(_probe_graph(half, lam)[0])
            assert all(type(p) is float for p in out.price)
            assert out.price == want, (seed, lam)
            _check_certificate(half, lam, out.price, tol=1e-9)
            checked += 1
    assert checked == 36


def test_probes_share_the_base_layout_and_leave_it_alone():
    # Every probe reweights tg.base's arcs on its sorted in-edge arrays,
    # which no probe, decision or search writes.
    tg = parse_graph(DATA / "timed6.gr")
    base = tg.base._in_arrays()
    before = [a.copy() for a in base]
    for lam in (Fraction(-7, 3), 0.25, 2):
        g, _ = _probe_graph(tg, lam)
        assert g._in_arrays()[0] is base[0]
    assert _Resolver(tg).graph._in_arrays()[0] is base[0]
    min_ratio_binary_search(tg, 60)
    min_ratio_parametric(tg)
    after = tg.base._in_arrays()
    assert all(a is b for a, b in zip(after, base))
    for a, b in zip(after, before):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_probes_run_where_the_base_weights_are_refused():
    # A float cost beside an integer cost past 2^53: no one dtype holds
    # tg.base's own weights, yet every probe's weights fit one, and the
    # probes still borrow the base's layout.
    tg = build_timed_graph(3, [(0, 1, 0.5, 1), (1, 0, -2 ** 60, 1),
                               (1, 2, 3, 2), (2, 1, -1, 1)])
    with pytest.raises(ValueError, match="exact arithmetic"):
        tg.base._in_arrays()
    ans = min_ratio_parametric(tg)
    assert ans.lambda_star == float((Fraction(1, 2) - 2 ** 60) / 2)
    assert ans.witness.edges == (0, 1)
    lo, hi = min_ratio_binary_search(tg, 8)
    assert lo <= ans.lambda_star <= hi


def test_numpy_float_lambda_is_read_as_float64():
    # A float32 or float16 lam once reached the reduced weights as it was,
    # so w - lam*t came out rounded to that type.
    tg = build_timed_graph(2, [(0, 1, -1, 3), (1, 0, 2.3, 1)])
    for kind in (np.float32, np.float16):
        for lam in (kind(0.1), kind(0.5)):
            got, want = evaluate_lambda(tg, lam), evaluate_lambda(tg, float(lam))
            assert type(got) is type(want) and got == want, (kind, lam)
            values = got.price if isinstance(got, Feasible) else [got.cycle.weight]
            assert all(type(x) is float for x in values)


def _check_certificate(tg, lam, price, tol=0):
    for ((u, v, w), t) in zip(tg.base.edges, tg.times):
        assert w - lam * t + price[u] - price[v] >= -tol


def test_certificate_inequality_exact():
    out = evaluate_lambda(UNIT_TRIANGLE, Fraction(1, 2))
    assert isinstance(out, Feasible)
    _check_certificate(UNIT_TRIANGLE, Fraction(1, 2), out.price)


def test_monotone_feasibility_on_grid():
    for seed in range(10):
        tg = random_timed(7, 0.35, -4, 8, seed=2100 + seed)
        lam_star = ratio_oracle(tg)
        grid = sorted({lam_star + Fraction(k, 3) for k in range(-4, 5)})
        seen_infeasible = False
        for lam in grid:
            out = evaluate_lambda(tg, lam)
            if isinstance(out, Infeasible):
                seen_infeasible = True
            else:
                # feasible region is exactly lam <= lam_star
                assert not seen_infeasible, (seed, lam)
                assert lam <= lam_star, (seed, lam)
                _check_certificate(tg, lam, out.price)
        assert seen_infeasible, seed


def test_binary_search_collapses_on_single_cycle():
    tg = build_timed_graph(2, [(0, 1, 2, 1), (1, 0, 2, 1)])
    lo, hi = min_ratio_binary_search(tg, 5)
    assert lo == hi == 2


def test_binary_search_brackets_smaller_ratio():
    tg = build_timed_graph(4, [(0, 1, 1, 1), (1, 0, 1, 1),
                               (2, 3, 2, 1), (3, 2, 1, 1)])
    lo, hi = min_ratio_binary_search(tg, 40)
    assert lo <= 1 <= hi
    assert hi - lo <= Fraction(1, 2) ** 40


def test_binary_search_width_and_containment():
    for seed in range(12):
        tg = random_timed(8, 0.3, -5, 9, seed=2200 + seed)
        lam_star = ratio_oracle(tg)
        trace = []
        lo, hi = min_ratio_binary_search(tg, 60, _trace=trace)
        ws = [Fraction(w) / Fraction(t)
              for (_, _, w), t in zip(tg.base.edges, tg.times)]
        initial = max(ws) - min(ws)
        assert lo <= lam_star <= hi, seed
        assert hi - lo <= initial * Fraction(1, 2) ** 60, seed
        for (a, b) in trace:
            assert a <= lam_star <= b, seed


def test_binary_search_validates_arguments():
    tg = build_timed_graph(2, [(0, 1, 2, 1), (1, 0, 2, 1)])
    with pytest.raises(ValueError):
        min_ratio_binary_search(tg, 0)
    dag = build_timed_graph(2, [(0, 1, 2, 1)])
    with pytest.raises(AcyclicGraphError):
        min_ratio_binary_search(dag, 10)


def test_parametric_unit_triangle():
    tg = build_timed_graph(3, [(0, 1, 2, 1), (1, 2, 2, 1), (2, 0, 2, 1)])
    ans = min_ratio_parametric(tg)
    assert isinstance(ans, RatioAnswer)
    assert ans.lambda_star == 2
    assert ans.witness.hops == 3


def test_parametric_picks_smaller_of_two_ratios():
    tg = build_timed_graph(4, [(0, 1, 3, 1), (1, 0, 0, 1),
                               (2, 3, 1, 1), (3, 2, 1, 1)])
    ans = min_ratio_parametric(tg)
    assert ans.lambda_star == 1
    assert set(ans.witness.vertices) == {2, 3}


def test_parametric_rejects_acyclic():
    dag = build_timed_graph(3, [(0, 1, 2, 1), (1, 2, 2, 3)])
    with pytest.raises(AcyclicGraphError):
        min_ratio_parametric(dag)


def test_parametric_matches_enumeration_exactly():
    for seed in range(30):
        tg = random_timed(8, 0.3, -5, 9, seed=2300 + seed)
        ans = min_ratio_parametric(tg)
        want = ratio_oracle(tg)
        assert isinstance(ans.lambda_star, Fraction)
        assert ans.lambda_star == want, seed
        w = sum(tg.base.edges[e][2] for e in ans.witness.edges)
        t = sum(tg.times[e] for e in ans.witness.edges)
        assert Fraction(w) / Fraction(t) == want, seed
        _check_certificate(tg, ans.lambda_star, ans.certificate)


def test_parametric_interval_soundness():
    for seed in range(8):
        tg = random_timed(8, 0.3, -5, 9, seed=2400 + seed)
        want = ratio_oracle(tg)
        trace = []
        ans = min_ratio_parametric(tg, _trace=trace)
        assert ans.lambda_star == want
        for (lo, hi) in trace:
            assert lo <= want <= hi, seed


def test_parametric_within_binary_search_interval():
    for seed in range(8):
        tg = random_timed(8, 0.3, -5, 9, seed=2500 + seed)
        ans = min_ratio_parametric(tg)
        lo, hi = min_ratio_binary_search(tg, 50)
        assert lo <= ans.lambda_star <= hi, seed


def test_parametric_scaling_covariance():
    tg = random_timed(8, 0.3, -5, 9, seed=2600)
    base = min_ratio_parametric(tg).lambda_star
    scaled_w = TimedDigraph(
        Digraph(
            tg.base.n, tuple((u, v, 3 * w) for (u, v, w) in tg.base.edges)),
        tg.times)
    assert min_ratio_parametric(scaled_w).lambda_star == 3 * base
    scaled_t = TimedDigraph(tg.base, tuple(2 * t for t in tg.times))
    assert min_ratio_parametric(scaled_t).lambda_star == base / 2


def test_parametric_agrees_with_karp_on_unit_times():
    for seed in range(10):
        tg = random_timed(8, 0.3, -5, 9, seed=2700 + seed)
        unit = TimedDigraph(tg.base, (1,) * tg.base.m)
        lam_karp, _ = min_mean_cycle_karp(tg.base)
        ans = min_ratio_parametric(unit)
        assert abs(ans.lambda_star - lam_karp) <= 1e-9, seed
        assert ans.lambda_star == lam_karp, seed


def test_parametric_on_float_weights():
    tg = random_timed(7, 0.35, -4, 8, seed=2800)
    halves = TimedDigraph(
        Digraph(
            tg.base.n, tuple((u, v, w / 2) for (u, v, w) in tg.base.edges)),
        tg.times)
    want = ratio_oracle(tg) / 2
    ans = min_ratio_parametric(halves)
    assert isinstance(ans.lambda_star, float)
    assert abs(ans.lambda_star - want) <= 1e-9


def test_parametric_witness_check_sums_exactly():
    # 0.1 + 0.2 rounds up in float64; summed as Fractions the witness
    # ratio is lam* exactly, and the reported weight stays the float sum.
    ans = min_ratio_parametric(build_timed_graph(
        2, [(0, 1, 0.1, 1), (1, 0, 0.2, 1)]))
    assert ans.lambda_star == float((Fraction(0.1) + Fraction(0.2)) / 2)
    assert ans.witness.length == 0.1 + 0.2 and ans.witness.hops == 2


def test_parametric_is_exact_on_fraction_instances():
    # Fraction costs or times are exact, as they are for Karp: lam* comes
    # back as a Fraction, not rounded to a float.
    g = Digraph(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3)),
                    (2, 0, Fraction(1, 3)), (1, 0, Fraction(1, 7))])
    ans = min_ratio_parametric(TimedDigraph(g, (1, 1, 1, 1)))
    assert type(ans.lambda_star) is Fraction
    assert ans.lambda_star == Fraction(5, 21) == min_mean_cycle_karp(g)[0]
    assert ans.witness.length == Fraction(10, 21)
    timed = TimedDigraph(Digraph(2, [(0, 1, 1), (1, 0, 2)]),
                         (Fraction(1, 3), Fraction(2, 3)))
    lam = min_ratio_parametric(timed).lambda_star
    assert type(lam) is Fraction and lam == 3


def test_fraction_costs_stay_exact_through_build_timed_graph():
    # build_graph once rounded Fraction costs to floats, so lam* came back
    # as the float -0.1666...; it is the Fraction -1/6.
    tg = build_timed_graph(2, [(0, 1, Fraction(1, 3), 1),
                               (1, 0, Fraction(-2, 3), 1)])
    ans = min_ratio_parametric(tg)
    assert type(ans.lambda_star) is Fraction and ans.lambda_star == Fraction(-1, 6)
    for seed in range(10):
        base = random_timed(7, 0.35, -5, 9, seed=2200 + seed)
        tg = build_timed_graph(7, [(u, v, Fraction(w, 1 + (u + 2 * v) % 5), t)
                                   for (u, v, w), t in zip(base.base.edges, base.times)])
        # Cycles of the integer copy, each summed over the exact edges.
        cycles = enumerate_simple_cycles(base.base)
        cost = lambda c: sum(tg.base.edges[e][2] for e in c.edges)
        want = min(cost(c) / sum(tg.times[e] for e in c.edges) for c in cycles)
        lam = min_ratio_parametric(tg).lambda_star
        assert type(lam) is Fraction and lam == want, seed
        mean = min_mean_cycle_karp(tg.base)[0]
        assert type(mean) is Fraction, seed
        assert mean == min(cost(c) / c.hops for c in cycles), seed


def test_parametric_reports_its_search_cost():
    tg = random_timed(8, 0.3, -5, 9, seed=2900)
    first = min_ratio_parametric(tg)
    again = min_ratio_parametric(tg)
    assert first.oracle_calls > 0 and first.breakpoints > 0
    assert (first.oracle_calls, first.breakpoints) == (
        again.oracle_calls, again.breakpoints)
    # the counts are trailing defaults: the three-field form still builds
    plain = RatioAnswer(first.lambda_star, first.witness, first.certificate)
    assert (plain.oracle_calls, plain.breakpoints) == (0, 0)


DATA = Path(__file__).parent / "data"


def _bisection_instance(name):
    if name.startswith("random"):
        n, seed = map(int, name.split("-")[1:])
        return random_timed(n, 0.3, -3, 9, seed)
    return parse_graph(DATA / f"{name}.gr")


# The bisect benchmark's instances (n=16), the minratio benchmark's (n=24)
# and the golden ones, timed6-tenths a float instance.
@pytest.mark.parametrize("name", [
    "random-16-1", "random-16-3", "random-24-3", "random-24-6", "random-24-4",
    "timed6", "triangle-timed", "timed6-tenths"])
def test_bisection_decides_each_step_once_as_a_full_probe_would(monkeypatch,
                                                                name):
    # Each step makes exactly one yes/no decision and runs neither the hub
    # hierarchy nor a certificate, and the bracket after every step is the
    # one a full hub hierarchy probe at every step gives, in values and
    # types.
    tg = _bisection_instance(name)
    want = probe_bisection(tg, 60)
    decisions = []
    decide = parametric._negative_cycle_at
    monkeypatch.setattr(parametric, "_negative_cycle_at",
                        lambda *a: decisions.append(a) or decide(*a))

    def forbidden(*a, **k):
        raise AssertionError("bisection ran a full probe")

    monkeypatch.setattr(parametric, "evaluate_lambda", forbidden)
    monkeypatch.setattr(parametric, "shortest_negative_cycle", forbidden)
    for iterations in (60, 7):
        decisions.clear()
        trace = []
        min_ratio_binary_search(tg, iterations, _trace=trace)
        assert len(decisions) == iterations
        assert ([(type(lo), lo, type(hi), hi) for lo, hi in trace]
                == [(type(lo), lo, type(hi), hi) for lo, hi in want[:iterations]])


@functools.lru_cache(maxsize=None)
def _tenths(n, seed):
    """(floats, lam): a random instance with costs times 0.1 as floats, and
    its exact lam*, read off the same costs as Fractions."""
    tg = random_timed(n, 0.3, -3, 9, seed)
    costs = [(u, v, w * 0.1) for (u, v, w) in tg.base.edges]
    lam = min_ratio_parametric(TimedDigraph(
        Digraph(n, [(u, v, Fraction(w)) for (u, v, w) in costs]),
        tg.times)).lambda_star
    return TimedDigraph(Digraph(n, costs), tg.times), lam


@pytest.mark.parametrize("n", [16, 32, 64])
def test_float_bisection_stays_within_its_stated_tolerance(n):
    # Near lam* the float64 decisions may round a near-zero cycle either
    # way, so the final bracket need not hold the exact lam*.  It must lie
    # within 2^-50 of the initial span of it, as the docstring states.
    for seed in range(1, 9):
        floats, lam = _tenths(n, seed)
        lo, hi = min_ratio_binary_search(floats, 60)
        assert type(lo) is type(hi) is float
        costs = floats.base.edges
        ratios = [w / t for (_, _, w), t in zip(costs, floats.times)]
        span = Fraction(max(ratios) - min(ratios))
        miss = max(0, Fraction(lo) - lam, lam - Fraction(hi))
        assert miss <= span / 2 ** 50, seed


@pytest.mark.parametrize("n", [16, 32, 64])
def test_float_evaluate_lambda_near_lambda_star_keeps_its_contract(n):
    # A float probe is the zero row's decision, so near lam* a near-zero
    # cycle may go either way; whichever it takes, a Feasible answer is a
    # certificate to rounding and an Infeasible one a float negative cycle.
    for seed in range(1, 9):
        floats, lam = _tenths(n, seed)
        f = float(lam)
        up, down = (math.nextafter(math.nextafter(f, s), s)
                    for s in (math.inf, -math.inf))
        for x in (f, up, down, f + 1e-15, f - 1e-15):
            out = evaluate_lambda(floats, x)
            if isinstance(out, Feasible):
                _check_certificate(floats, x, out.price, tol=1e-9)
            else:
                assert type(out.cycle.weight) is float
                assert out.cycle.weight < 0, (seed, x)


@pytest.mark.parametrize("name", ["random-24-3", "timed6", "triangle-timed",
                                  "timed6-tenths"])
def test_parametric_search_runs_the_hub_hierarchy_once(monkeypatch, name):
    # The symbolic run is the search's one hierarchy run and its cycle the
    # witness; the certificate at lam* is a zero row, and only a probe
    # whose row moves runs the hierarchy, once.
    tg = _bisection_instance(name)
    runs, certificates = [], []
    detect = parametric.shortest_negative_cycle
    evaluate = parametric.evaluate_lambda

    def spy_detect(g, **kw):
        runs.append(kw.get("ops"))
        return detect(g, **kw)

    def spy_evaluate(*a):
        certificates.append(a[1])
        return evaluate(*a)

    monkeypatch.setattr(parametric, "shortest_negative_cycle", spy_detect)
    monkeypatch.setattr(parametric, "evaluate_lambda", spy_evaluate)
    lam = min_ratio_parametric(tg).lambda_star
    assert len(runs) == 1 and isinstance(runs[0], _Resolver)
    assert certificates == [lam]
    runs.clear()
    assert isinstance(evaluate(tg, lam), Feasible) and runs == []
    assert isinstance(evaluate(tg, lam - 1), Feasible) and runs == []
    assert isinstance(evaluate(tg, lam + 1), Infeasible) and runs == [None]


@pytest.mark.parametrize("name,calls,trace", [
    ("timed6", 5, [(-2, 6), (-1, -1)]),
    ("triangle-timed", 2, [(2, 2)]),
    (None, 16, [(-1, 9), (Fraction(-1, 2), 1), (Fraction(1, 2), 1),
                (Fraction(5, 8), 1), (Fraction(5, 8), Fraction(9, 10)),
                (Fraction(2, 3), Fraction(9, 10)),
                (Fraction(11, 14), Fraction(11, 14))]),
], ids=["timed6", "triangle-timed", "random-timed-8"])
def test_parametric_search_path_is_pinned(name, calls, trace):
    # Oracle calls and the interval after every shrink, as the search made
    # them before label runs resumed across hub levels; resuming skips only
    # comparisons an earlier level already decided.
    tg = (random_timed(8, 0.3, -3, 9, seed=24) if name is None
          else parse_graph(DATA / f"{name}.gr"))
    seen = []
    ans = min_ratio_parametric(tg, _trace=seen)
    assert ans.oracle_calls == calls
    assert seen == trace


def test_evaluate_lambda_exact_past_the_float_guard():
    # a cost above 2^53 forces the Fraction fallback; the probe stays exact
    big = 2 ** 60
    tg = build_timed_graph(2, [(0, 1, big, 1), (1, 0, -big - 1, 1)])
    out = evaluate_lambda(tg, Fraction(-1, 3))
    assert isinstance(out, Infeasible)
    assert out.cycle.weight == Fraction(-1, 3)
    ok = evaluate_lambda(tg, Fraction(-1, 2))
    assert isinstance(ok, Feasible)
    _check_certificate(tg, Fraction(-1, 2), ok.price)


@pytest.mark.parametrize("seed,lam,calls,breakpoints", [
    (3, Fraction(-2), 7, 799),
    (6, Fraction(-3, 2), 8, 6279),
    (4, Fraction(-9, 5), 10, 5647),
])
def test_benchmark_instances_search_cost_is_pinned(seed, lam, calls, breakpoints):
    # The n=24 instances of the minratio benchmark.  Edge lookups on the
    # symbolic run compare nothing, so neither count may move with them.
    ans = min_ratio_parametric(random_timed(24, 0.3, -3, 9, seed))
    assert (ans.lambda_star, ans.oracle_calls, ans.breakpoints) == (lam, calls, breakpoints)


F = Fraction


@pytest.mark.parametrize("variant,lam,calls,breakpoints,trace", [
    # Costs times 0.1 as floats: the cost denominators' lcm is 2^55.
    ("tenth", 0.07857142857142858, 18, 369, [
        (F(-3602879701896397, 2 ** 55), F(8106479329266893, 2 ** 53)),
        (F(-1801439850948197, 2 ** 55), F(1801439850948199, 2 ** 54)),
        (F(-1801439850948197, 2 ** 55), F(9007199254740993, 10 * 2 ** 53)),
        (F(3602879701896397, 2 ** 56), F(9007199254740993, 10 * 2 ** 53)),
        (F(3602879701896397, 2 ** 56), F(28823037615171175, 2 ** 58)),
        (F(18014398509481981, 2 ** 58), F(28823037615171175, 2 ** 58)),
        (F(18014398509481981, 2 ** 58), F(16212958658533787, 10 * 2 ** 54)),
        (F(3602879701896397, 3 * 2 ** 54), F(16212958658533787, 10 * 2 ** 54)),
        (F(2476979795053773, 7 * 2 ** 52), F(2476979795053773, 7 * 2 ** 52))]),
    # Fraction times t / (1 + e % 3): the time denominators' lcm is 6.
    ("fraction-times", F(6, 5), 13, 394, [
        (-2, F(27, 2)), (F(2, 7), 2), (1, F(9, 7)), (F(54, 49), F(9, 7)),
        (F(6, 5), F(6, 5))]),
])
def test_non_integral_instances_search_cost_is_pinned(variant, lam, calls,
                                                      breakpoints, trace):
    # The seed-24 instance of test_parametric_search_path_is_pinned with
    # non-integral costs or times, pinned as the all-Fraction search ran it.
    tg = random_timed(8, 0.3, -3, 9, seed=24)
    if variant == "tenth":
        tg = TimedDigraph(Digraph(tg.base.n, [(u, v, w * 0.1)
                                              for (u, v, w) in tg.base.edges]),
                          tg.times)
    else:
        tg = TimedDigraph(tg.base, [F(t, 1 + e % 3)
                                    for e, t in enumerate(tg.times)])
    seen = []
    ans = min_ratio_parametric(tg, _trace=seen)
    assert (ans.lambda_star, ans.oracle_calls, ans.breakpoints) == (lam, calls, breakpoints)
    assert seen == trace


@pytest.mark.parametrize("name,dtype,pinned", [
    ("timed6", np.float64, (Fraction(-1), 5, 33)),
    # Decimal costs: D_c is 2^55, so the packed weights pass 2^53.  Its
    # search cost is pinned by the "tenth" variant above.
    ("timed6-tenths", object, None),
    ("big", object, (Fraction(-2026619832316725), 8, 113)),
])
def test_symbolic_run_table_dtypes(name, dtype, pinned):
    # The packed symbolic graph takes float64 below the `_in_arrays` bound
    # and exact Python ints past it; the results were recorded before the
    # affine values were packed.
    tg = _dtype_instance(name)
    assert _Resolver(tg).graph._in_arrays()[1].dtype == dtype
    if pinned is not None:
        ans = min_ratio_parametric(tg)
        assert (ans.lambda_star, ans.oracle_calls, ans.breakpoints) == pinned


def _dtype_instance(name):
    if name != "big":
        return parse_graph(DATA / f"{name}.gr")
    tg = random_timed(8, 0.4, -9, 9, seed=8000)
    return TimedDigraph(Digraph(tg.base.n, [(u, v, w * (2 ** 50 + 1))
                                            for (u, v, w) in tg.base.edges]),
                        tg.times)


@pytest.mark.parametrize("name,table,breakpoints", [
    ("timed6", np.float64, np.int64),
    ("timed6-tenths", object, object),
    ("big", object, object),
    # Dyadic costs down to 2^-27: D_c*max|C| is small enough for float64,
    # while D_c^2 takes the breakpoint bound past 2^63.
    ("timed4-dyadic", np.float64, object),
])
def test_breakpoint_dtypes(name, table, breakpoints):
    # The breakpoints take int64 below `_Resolver`'s bound and Python ints
    # past it, whichever dtype the packed symbolic graph takes.
    resolver = _Resolver(_dtype_instance(name))
    assert resolver.graph._in_arrays()[1].dtype == table
    assert resolver.dtype == breakpoints


def _at_the_int64_bound(seed, above):
    """A random_timed draw with costs scaled so that `_Resolver`'s bound
    16*n^2*max|C|*max T (integer costs and times: D_c = D_t = 1) is just
    below 2^63, or, ``above``, just at or past it."""
    tg = random_timed(6, 0.5, -9, 9, seed)
    n, t_max = tg.base.n, max(tg.times)
    c_max = (2 ** 63 - 1) // (16 * n * n * t_max) + above
    rng = random.Random(seed)
    costs = [w * (c_max // 10) + rng.randint(-99, 99) for (_, _, w) in tg.base.edges]
    costs[0] = c_max if costs[0] >= 0 else -c_max
    return TimedDigraph(Digraph(n, [(u, v, w) for (u, v, _), w
                                    in zip(tg.base.edges, costs)]), tg.times)


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_search_either_side_of_the_int64_bound(above):
    # Just below the bound the breakpoints are int64 while the packed run
    # holds Python ints; at it they are Python ints.  Either way lam* is
    # the enumerated minimum, and the witness and the certificate are the
    # Fraction engine's nonpositive cycle and super-source prices at lam*.
    for seed in range(4):
        tg = _at_the_int64_bound(5100 + seed, above)
        resolver = _Resolver(tg)
        assert resolver.graph._in_arrays()[1].dtype == object
        assert resolver.dtype == (object if above else np.int64)
        ans = min_ratio_parametric(tg)
        assert ans.lambda_star == ratio_oracle(tg)
        reduced = fraction_reduced_graph(tg, ans.lambda_star)
        want = fraction_negative_cycle(reduced, nonstrict=True).cycle
        assert (ans.witness.vertices, ans.witness.edges) == (want.vertices, want.edges)
        assert ans.certificate == fraction_prices(reduced)


def test_object_breakpoints_repeat_the_int64_search(monkeypatch):
    # Instances whose breakpoints are int64, searched again with every
    # breakpoint on Python ints, as past the bound: the same answer, counts
    # and interval trace, in values and types.
    big = random_timed(24, 0.3, -3, 9, seed=6)
    instances = [parse_graph(DATA / "timed6.gr"), parse_graph(DATA / "triangle-timed.gr"),
                 *(random_timed(9, 0.4, -4, 8, seed=3300 + s) for s in range(6)),
                 TimedDigraph(Digraph(big.base.n, [(u, v, w * (2 ** 40 + 1))
                                                   for (u, v, w) in big.base.edges]),
                              big.times),
                 _at_the_int64_bound(5100, False)]
    searches = []
    for tg in instances:
        assert _Resolver(tg).dtype == np.int64
        trace = []
        searches.append((tg, repr(min_ratio_parametric(tg, _trace=trace)), repr(trace)))
    monkeypatch.setattr(parametric, "_INT64_LIMIT", 0)
    for tg, answer, trace in searches:
        assert _Resolver(tg).dtype == object
        seen = []
        assert repr(min_ratio_parametric(tg, _trace=seen)) == answer
        assert repr(seen) == trace


def test_parametric_builds_no_edge_table():
    # The sweep's witness and the hub paths of the symbolic run look up only
    # the edges they follow, through `LabelRun.edges`.
    for seed in range(6):
        tg = random_timed(9, 0.35, -4, 8, seed=3100 + seed)
        assert min_ratio_parametric(tg).lambda_star == ratio_oracle(tg), seed


def test_symbolic_run_edges_are_the_tournament_winners():
    # On packed affine values the lookups match candidates by equality, not
    # by their value at lam*.  Every edge they find must still be the first
    # candidate minimal at lam*, in (source vertex, edge index) order, and
    # an entry improves exactly where its value at lam* strictly falls.  The
    # corpus holds improving entries and closed walks whose minimum at lam*
    # two different values attain.
    checked = ties = 0
    for seed in range(8):
        tg = random_timed(10, 0.4, -4, 8, seed=3200 + seed)
        lam = ratio_oracle(tg)
        resolver = _Resolver(tg)
        g = resolver.graph
        run = _label_run(g, range(g.n), 8, resolver)
        asked = resolver.breakpoints

        def at(x):
            # b - lam*a: integral costs and times leave the pair unscaled.
            a, b = map(int, resolver.unpack(x))
            return b - lam * a

        pred, closed = edge_tables(run)
        assert resolver.breakpoints == asked
        for i in range(run.steps):
            for j, s in enumerate(run.sources):
                row = run.labels[i, j]
                for v in range(g.n):
                    # (value at lam*, source vertex, edge index, value)
                    cands = [(at(x), u, e, x)
                             for e, (u, t, wt) in enumerate(g.edges)
                             if t == v and row[u] != INF
                             for x in [row[u] + wt]]
                    best = min(cands, default=(None, -1, -1, None))
                    old, new = row[v], run.labels[i + 1, j, v]
                    falls = bool(cands) and (old == INF or best[0] < at(old))
                    assert (new != old) == falls
                    assert pred[i, j, v] == (best[2] if falls else -1)
                    if v == s:
                        assert closed[i, j] == best[2]
                    checked += falls
                    if falls or v == s:
                        ties += len({c[3] for c in cands if c[0] == best[0]}) > 1
    assert checked >= 300 and ties >= 20
