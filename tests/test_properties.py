"""Property tests: exact integer APSP at every d, also past 2^53,
edge-order invariance, `relax` against the label engine, the numpy
engine's looked-up edges against a plain loop, the scaled-integer ratio
probe against the Fraction engine, the ratio search's integer interval
rule against the Fraction one, its packed affine values against their
pairs, the array greedy hitting set against the set-based one, and one
reading of every number: a weight, a time and a ratio probe's lam.

Integer graphs are a ring plus random chords, with no negative cycle by
construction: nonnegative weights reweighted by vertex potentials,
w + p(u) - p(v), keep every cycle's weight.
Examples are derandomized so the suite is reproducible.
"""
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hubapsp import bellman_ford, cli, parametric
from hubapsp.bellman_ford import _label_run, bf_run_multi, bf_step, relax
from hubapsp.fileio import parse_graph
from hubapsp.graph import (INF, NegativeCycleDetected, build_graph,
                           floyd_warshall_oracle, has_cycle)
from hubapsp.hubs import NegativeCycle, greedy_hitting_set, shortest_negative_cycle
from hubapsp.minplus import ApspResult, apsp
from hubapsp.parametric import (Feasible, Infeasible, TimedDigraph,
                                _Resolver, _probe_graph, build_timed_graph,
                                evaluate_lambda, min_ratio_binary_search,
                                min_ratio_parametric)
from reference_greedy import greedy_hitting_set_sets
from reference_step import best_in_edges_python, bf_step_python, edge_tables
from reference_ratio import (fraction_bisection, fraction_interval_sign,
                             fraction_negative_cycle, fraction_prices,
                             fraction_reduced_graph)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def reweighted_graphs(draw):
    n = draw(st.integers(1, 16))
    vertex = st.integers(0, n - 1)
    weight = st.integers(0, 9)
    # A ring gives shortest paths of many hops, which the lift must recover.
    ring = [(i, (i + 1) % n, draw(weight)) for i in range(n)]
    raw = ring + draw(st.lists(st.tuples(vertex, vertex, weight), max_size=n))
    p = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return n, [(u, v, w + p[u] - p[v]) for (u, v, w) in raw]


@st.composite
def float_graphs(draw):
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    weight = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=3 * n))
    return n, edges


def _depths(n):
    return [1 << k for k in range(n.bit_length()) if (1 << k) <= n]


@SETTINGS
@given(reweighted_graphs())
def test_apsp_equals_floyd_warshall_at_every_depth(case):
    n, edges = case
    g = build_graph(n, edges)
    want = floyd_warshall_oracle(g)
    for d in _depths(n):
        res = apsp(g, d)
        assert isinstance(res, ApspResult), d
        assert np.array_equal(res.dist.values, want), d


@SETTINGS
@given(reweighted_graphs(), st.randoms(use_true_random=False))
def test_apsp_is_invariant_under_edge_shuffles(case, rnd):
    n, edges = case
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    g, h = build_graph(n, edges), build_graph(n, shuffled)
    for d in _depths(n):
        assert np.array_equal(apsp(g, d).dist.values, apsp(h, d).dist.values), d


SCALE = 2 ** 60


def _scaled_value(x):
    return x if x == INF else int(x) * SCALE


def _same_cycle_scaled(big, small):
    assert (big.cycle.vertices, big.cycle.edges, big.hops) == (
        small.cycle.vertices, small.cycle.edges, small.hops)
    assert big.weight == _scaled_value(small.weight)
    assert type(big.weight) is int


@SETTINGS
@given(reweighted_graphs(), st.booleans())
def test_integers_past_2_53_stay_exact_at_every_depth(case, negative):
    # Scaled by 2^60, the weights leave float64's exact range and run as
    # Python ints.  With `negative`, the first ring edge drops until the
    # ring weighs -1.
    n, edges = case[0], list(case[1])
    if negative:
        u, v, w = edges[0]
        edges[0] = (u, v, w - sum(e[2] for e in edges[:n]) - 1)
    g = build_graph(n, edges)
    big = build_graph(n, [(u, v, w * SCALE) for (u, v, w) in edges])
    # All-zero weights stay float64, and 0.0 == 0 compares equal.
    ints = any(w for (_, _, w) in edges)
    assert big._in_arrays()[1].dtype == (object if ints else np.float64)
    cyc = shortest_negative_cycle(g)
    if cyc is None:
        assert shortest_negative_cycle(big) is None
        want = [[_scaled_value(x) for x in row]
                for row in floyd_warshall_oracle(g)]
    else:
        _same_cycle_scaled(shortest_negative_cycle(big), cyc)
        with pytest.raises(NegativeCycleDetected):
            floyd_warshall_oracle(g)
    for d in _depths(n):
        res = apsp(big, d)
        if cyc is None:
            assert isinstance(res, ApspResult), d
            got = res.dist.values.tolist()
            assert got == want, d
            assert not ints or all(type(x) is int
                                   for row in got for x in row if x != INF)
        else:
            assert isinstance(res, NegativeCycle), d
            _same_cycle_scaled(res, apsp(g, d))


def test_cli_prints_exact_distances_past_2_53(tmp_path):
    # ring8.gr with every weight times 2^60 + 1: the document prints the
    # exact integers, which float64 would round, (2^60 + 1) times those of
    # the unscaled file.
    scale = SCALE + 1
    ring8 = Path(__file__).parent / "data" / "ring8.gr"
    big = tmp_path / "big.gr"
    big.write_text("".join(
        " ".join(f[:3] + [str(int(f[3]) * scale)]) + "\n" if f[0] == "a"
        else line + "\n"
        for line, f in ((l, l.split()) for l in ring8.read_text().splitlines())))
    docs = []
    for path in (ring8, big):
        out = tmp_path / (path.name + ".out")
        assert cli.main(["apsp", "--d", "2", str(path), "--out", str(out)]) == 0
        doc = out.read_text().splitlines()
        i = doc.index("distances:")
        docs.append([row.split() for row in doc[i + 1:i + 9]])
    small, scaled = docs
    assert scaled == [[str(int(x) * scale) for x in row] for row in small]


@SETTINGS
@given(float_graphs(), st.integers(0, 6), st.data())
def test_relax_matches_last_label_row(case, steps, data):
    n, edges = case
    g = build_graph(n, edges)
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rows = np.full((len(sources), n), INF)
    rows[np.arange(len(sources)), sources] = 0.0
    out = relax(g, rows, steps)
    labels = bf_run_multi(g, sources, steps)
    for i, s in enumerate(sources):
        assert np.array_equal(out[i], labels[s].labels[steps]), s


@st.composite
def tied_graphs(draw):
    """Small integer graphs rich in ties: self loops, parallel edges,
    negative weights and, where a flag is drawn, a zero-weight cycle."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(-3, 3)), max_size=4 * n))
    if edges:
        copies = draw(st.lists(st.integers(0, len(edges) - 1), max_size=3))
        edges += [edges[i] for i in copies]
    if draw(st.booleans()):
        a, b, w = draw(vertex), draw(vertex), draw(st.integers(-3, 3))
        edges += [(a, b, w), (b, a, -w), (a, a, 0)]
    return n, edges


@SETTINGS
@given(tied_graphs(), st.booleans(), st.integers(1, 5), st.data())
def test_looked_up_edges_match_the_plain_loop(case, scaled, k, data):
    # Every edge the numpy engine looks up, one by one through the run, in
    # whole tables built from those lookups and in `bf_step`, is the plain
    # loop's smallest (source, edge) attaining candidate, on float64 and on
    # 2^60-scaled object ints, in runs that resume from a shorter one, and
    # whatever the lookup's chunk size.
    n, edges = case
    g = build_graph(n, [(u, v, w * 2 ** 60 if scaled else w) for (u, v, w) in edges])
    vertex = st.integers(0, n - 1)
    sources = data.draw(st.sets(vertex, min_size=1))
    earlier = data.draw(st.sets(vertex))
    chunk = data.draw(st.sampled_from([1, 3, bellman_ford._LOOKUP_CHUNK]))
    with mock.patch.object(bellman_ford, "_LOOKUP_CHUNK", chunk):
        resume = _label_run(g, earlier, data.draw(st.integers(0, k)))
        run = _label_run(g, sources, k, resume=resume)
        assert np.array_equal(run.labels, _label_run(g, sources, k).labels)
        pred, closed = edge_tables(run)
        for j, s in enumerate(run.sources):
            for i in range(k):
                row = run.labels[i, j].tolist()
                best, edge = best_in_edges_python(g, row)
                want = [e if b < r else -1 for b, e, r in zip(best, edge, row)]
                assert run.edges(i, [j] * n, range(n)).tolist() == want
                assert pred[i, j].tolist() == want
                assert run.edges(i, [j]).tolist() == [closed[i, j]] == [edge[s]]
                assert run.closed[i, j] == best[s]
                nxt, preds = bf_step_python(g, row)
                got = bf_step(g, run.labels[i, j])
                assert got[0].tolist() == nxt == run.labels[i + 1, j].tolist()
                assert got[1] == preds


@st.composite
def timed_graphs(draw):
    # Integer or dyadic costs and times: both scale exactly to integers.
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    wdiv = draw(st.sampled_from([1, 2]))
    tdiv = draw(st.sampled_from([1, 2]))
    arcs = draw(st.lists(st.tuples(vertex, vertex, st.integers(-6, 9),
                                   st.integers(1, 4)),
                         min_size=1, max_size=3 * n))
    return build_timed_graph(n, [(u, v, w / wdiv if wdiv > 1 else w,
                                  t / tdiv if tdiv > 1 else t)
                                 for (u, v, w, t) in arcs])


BIG = 2 ** 60


@st.composite
def probe_lambdas(draw):
    # Small denominators always run on float64; 2^60 ones run on Python ints
    # unless every reduced weight nearly cancels.
    if draw(st.booleans()):
        q = draw(st.integers(1, 12))
        return Fraction(draw(st.integers(-8 * q, 10 * q)), q), True
    return Fraction(2 * draw(st.integers(-4 * BIG, 5 * BIG)) + 1, BIG), False


@settings(SETTINGS, max_examples=200)
@given(timed_graphs(), probe_lambdas(), st.booleans())
def test_scaled_probe_matches_fraction_engine(tg, case, nonstrict):
    lam, small = case
    if small:
        assert _probe_graph(tg, lam)[0]._in_arrays()[1].dtype == np.float64
    gl = fraction_reduced_graph(tg, lam)
    want = fraction_negative_cycle(gl, nonstrict)
    assert parametric._negative_cycle_at(tg, lam, nonstrict) == (want is not None)
    if nonstrict:
        return
    got = evaluate_lambda(tg, lam)
    if want is None:
        assert repr(got) == repr(Feasible(fraction_prices(gl)))
    else:
        assert repr(got) == repr(Infeasible(want))
        assert isinstance(got.cycle.weight, Fraction)
        assert (sum(gl.edges[e][2] for e in got.cycle.cycle.edges)
                == got.cycle.weight)


@SETTINGS
@given(timed_graphs().filter(lambda tg: has_cycle(tg.base)))
def test_parametric_witness_is_the_fraction_engines_nonpositive_cycle(tg):
    # The symbolic run's cycle is the hop-shortest nonpositive cycle at lam*
    # that a concrete run on Fractions finds, vertex for vertex.  lam* is
    # read exactly off the witness, as the search checks it; a float
    # instance returns it rounded.
    ans = min_ratio_parametric(tg)
    lam = (sum(Fraction(tg.base.edges[e][2]) for e in ans.witness.edges)
           / sum(Fraction(tg.times[e]) for e in ans.witness.edges))
    assert ans.lambda_star == (lam if type(ans.lambda_star) is Fraction
                               else float(lam))
    want = fraction_negative_cycle(
        fraction_reduced_graph(tg, lam), nonstrict=True).cycle
    assert ans.witness.vertices == want.vertices
    assert ans.witness.edges == want.edges


def test_bisection_runs_object_ints_past_the_guard(monkeypatch):
    # Early probes fit float64; the last, with denominators near 2^60, run on
    # Python ints, and the trace still equals the Fraction engine's.
    tg = parse_graph(str(Path(__file__).parent / "data" / "timed6.gr"))
    dtypes = []

    def spy(tg_, lam, nonstrict=False):
        out = _probe_graph(tg_, lam, nonstrict)
        dtypes.append(out[0]._in_arrays()[1].dtype)
        return out

    monkeypatch.setattr(parametric, "_probe_graph", spy)
    trace = []
    min_ratio_binary_search(tg, 60, _trace=trace)
    assert len(dtypes) == 60
    assert dtypes[0] == np.float64 and dtypes[-1] == object
    assert trace == fraction_bisection(tg, 60)


PAST_2_63 = st.integers(-2 ** 70, 2 ** 70)
DENOMINATOR_LCM = st.one_of(st.integers(1, 12),
                            st.integers(0, 64).map(lambda k: 2 ** k),
                            st.integers(1, 2 ** 70))


@st.composite
def breakpoint_pair(draw, lo, hi, d_t, d_c):
    # A comparison's breakpoint pair (db*D_t, da*D_c), sign-normalised as
    # `_Resolver.cmp_batch` forms it: on either end, inside, below or above
    # the interval, or drawn past 2^63 anywhere, and never reduced to lowest
    # terms.
    where = draw(st.sampled_from(["lo", "hi", "inside", "below", "above",
                                  "any"]))
    if where == "any":
        da = draw(PAST_2_63.filter(bool))
        db = draw(PAST_2_63)
    else:
        step = Fraction(draw(st.integers(1, 2 ** 70)),
                        draw(st.integers(1, 2 ** 70)))
        x = {"lo": lo, "hi": hi, "below": lo - step, "above": hi + step,
             "inside": lo + (hi - lo) * Fraction(draw(st.integers(1, 99)), 100)
             }[where]
        j = draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([1, -1]))
        da, db = x.denominator * d_t * j, x.numerator * d_c * j
    return (db * d_t, da * d_c) if da > 0 else (-db * d_t, -da * d_c)


@st.composite
def interval_and_breakpoints(draw):
    # An interval with any exclusivity flags, possibly one point, and a
    # batch of breakpoints against it.
    lo = Fraction(draw(PAST_2_63), draw(st.integers(1, 2 ** 70)))
    hi = lo if draw(st.booleans()) else lo + Fraction(
        draw(st.integers(1, 2 ** 70)), draw(st.integers(1, 2 ** 70)))
    d_t, d_c = draw(DENOMINATOR_LCM), draw(DENOMINATOR_LCM)
    pairs = draw(st.lists(breakpoint_pair(lo, hi, d_t, d_c), min_size=1,
                          max_size=12))
    return lo, hi, draw(st.booleans()), draw(st.booleans()), pairs


@settings(SETTINGS, max_examples=400)
@given(interval_and_breakpoints())
def test_integer_interval_rule_matches_fractions(case):
    # The rule runs on whole arrays of Python ints, as `resolve` hands them
    # over; every entry must be signed, or left open, as on Fractions.
    lo, hi, lo_excl, hi_excl, pairs = case
    res = _Resolver(build_timed_graph(2, [(0, 1, 1, 1), (1, 0, 1, 1)]))
    res.lo, res.hi, res.lo_excl, res.hi_excl = lo, hi, lo_excl, hi_excl
    num, den = (np.array(col, dtype=object) for col in zip(*pairs))
    signs, undecided = res._interval_sign(num, den)
    assert signs.shape == undecided.shape == (len(pairs),)
    for (a, b), s, u in zip(pairs, signs.tolist(), undecided.tolist()):
        want = fraction_interval_sign(Fraction(a, b), lo, hi, lo_excl, hi_excl)
        assert (None if u else s) == want


@st.composite
def interval_at_the_int64_bound(draw):
    # An instance whose breakpoint bound B = 16*n^2*max|C|*max T*D_t*D_c
    # lies near 2^63, on either side, and breakpoints and interval ends as
    # large as B lets them be: |db| <= 4n*max|C|, 0 < |da| <= 2n*max T,
    # extremes drawn often.  Two self-loops at vertex 0 carry the scaled
    # costs 1 and max|C| over D_c, and the scaled times 1 and max T over D_t.
    n = draw(st.integers(1, 64))
    t_max = draw(st.one_of(st.integers(1, 3), st.integers(1, 2 ** 30)))
    d_t = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 ** 30)))
    d_c = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 ** 30)))
    rest = 16 * n * n * t_max * d_t * d_c
    target = draw(st.sampled_from([2 ** 61, 2 ** 63, 2 ** 64, 2 ** 65]))
    c_max = max(1, target // rest + draw(st.integers(-1, 1)))
    tg = build_timed_graph(n, [(0, 0, Fraction(1, d_c), Fraction(1, d_t)),
                               (0, 0, Fraction(c_max, d_c), Fraction(t_max, d_t))])

    def extreme(lim):
        return draw(st.one_of(st.sampled_from([lim, lim - 1, -lim, 1 - lim]),
                              st.integers(-lim, lim)))

    def breakpoint():
        da = extreme(2 * n * t_max) or 1
        db = extreme(4 * n * c_max)
        return (db * d_t, da * d_c) if da > 0 else (-db * d_t, -da * d_c)

    pairs = [breakpoint() for _ in range(draw(st.integers(1, 12)))]
    ends = sorted(Fraction(*draw(st.sampled_from(pairs)))
                  if draw(st.booleans()) else
                  Fraction(extreme(c_max) * d_t, draw(st.integers(1, t_max)) * d_c)
                  for _ in range(2))
    if draw(st.booleans()):
        ends[1] = ends[0]
    return tg, ends, draw(st.booleans()), draw(st.booleans()), pairs


@settings(SETTINGS, max_examples=400)
@given(interval_at_the_int64_bound())
def test_interval_rule_in_the_breakpoint_dtype(case):
    # The rule on arrays of the dtype `_Resolver` picks for the instance:
    # int64, which wraps silently on overflow, below its bound, so the
    # largest breakpoints and ends that bound allows must still be signed
    # as on Fractions; Python ints past it.
    tg, (lo, hi), lo_excl, hi_excl, pairs = case
    res = _Resolver(tg)
    res.lo, res.hi, res.lo_excl, res.hi_excl = lo, hi, lo_excl, hi_excl
    num, den = (np.array(col, dtype=res.dtype) for col in zip(*pairs))
    signs, undecided = res._interval_sign(num, den)
    for (a, b), s, u in zip(pairs, signs.tolist(), undecided.tolist()):
        want = fraction_interval_sign(Fraction(a, b), lo, hi, lo_excl, hi_excl)
        assert (None if u else s) == want


@st.composite
def packed_pairs(draw):
    # The symbolic run's values: a >= 0 a walk's scaled time, and |b| within
    # 2n*max|C|, a walk of at most 2n hops.  Half the cases are small enough
    # for float64, and the rest reach past 2^63.
    n = draw(st.integers(1, 64))
    small = draw(st.booleans())
    max_c = draw(st.integers(0, 100 if small else 2 ** 70))
    t_max = draw(st.integers(1, 10 if small else 2 ** 40))
    a = st.integers(0, 2 * n * t_max)
    b = st.integers(-2 * n * max_c, 2 * n * max_c)
    pairs = [(draw(a), draw(b)) for _ in range(2)]
    if draw(st.booleans()):
        pairs[1] = pairs[0]
    return n, max_c, t_max, pairs


@settings(SETTINGS, max_examples=400)
@given(packed_pairs())
def test_packed_differences_unpack_exactly(case):
    n, max_c, t_max, ((a1, b1), (a2, b2)) = case
    res = _Resolver(build_timed_graph(n, [(0, 0, max_c, t_max)]))
    radix = 8 * n * max_c + 1
    assert res.radix == radix and res.graph.edges[0][2] == t_max * radix + max_c
    p1, p2 = a1 * radix + b1, a2 * radix + b2
    assert res.unpack(p1 - p2) == (a1 - a2, b1 - b2)
    assert (p1 == p2) == ((a1, b1) == (a2, b2))
    if 3 * n * (t_max * radix + max_c) < 2 ** 53:
        x = np.array([p1, p2], dtype=np.float64)
        assert x.tolist() == [p1, p2]
        da, db = res.unpack(x - x[::-1])
        assert da.tolist() == [a1 - a2, a2 - a1]
        assert db.tolist() == [b1 - b2, b2 - b1]
        assert (x[0] == x[1]) == ((a1, b1) == (a2, b2))


@st.composite
def tied_families(draw):
    # Few vertices and small members make many coverage ties per pick.  A
    # shift moves the ids across 2^15, where the greedy index's sort key
    # widens from 16 to 32 bits.
    n = draw(st.integers(1, 10))
    shift = draw(st.sampled_from([0, (1 << 15) - 5, 1 << 15]))
    member = st.lists(st.integers(shift, shift + n - 1), min_size=1, max_size=4)
    return shift + n, draw(st.lists(member, min_size=1, max_size=30))


@settings(SETTINGS, max_examples=200)
@given(tied_families())
def test_greedy_matches_set_reference(case):
    n, members = case
    want = greedy_hitting_set_sets([set(m) for m in members], n)
    # As rows of one array, each member is padded by repeating its first
    # vertex; repeats count once.
    width = max(len(m) for m in members)
    rows = np.array([m + m[:1] * (width - len(m)) for m in members])
    for family in ([set(m) for m in members], [tuple(m) for m in members], rows):
        got = greedy_hitting_set(family, n)
        assert got == want
        assert all(isinstance(v, int) for v in got)
    assert all(want & set(m) for m in members)
    s_min = min(len(set(m)) for m in members)
    assert len(want) <= math.ceil((n / s_min) * (math.log(len(members)) + 1))


# Every kind of value a caller might pass as a number.
NUMBERS = st.one_of(
    st.integers(), st.integers(2 ** 63, 2 ** 80), st.fractions(),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.booleans().map(np.bool_), st.complex_numbers().map(np.complex128),
    st.decimals(), st.sampled_from([Decimal("NaN"), Decimal("-Infinity")]),
    st.booleans(), st.text(max_size=3), st.none())

RULE_TG = build_timed_graph(3, [(0, 1, 2, 1), (1, 2, -1, 3), (2, 0, 1, 2),
                                (1, 0, 4, 1)])


def _outcome(f):
    """("ok", value), or the exception's type name and message."""
    try:
        return "ok", f()
    except Exception as exc:
        return type(exc).__name__, str(exc)


@settings(SETTINGS, max_examples=400)
@given(NUMBERS)
def test_weights_times_and_lambda_follow_one_rule(x):
    # A weight, a positive time and a probe's lam either all read x as the
    # same number, or all refuse it with ValueError.
    weight = _outcome(lambda: build_graph(2, [(0, 1, x), (1, 0, 1)]).edges[0][2])
    base = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    time = _outcome(lambda: TimedDigraph(base, (x, 1)).times[0])
    lam = _outcome(lambda: evaluate_lambda(RULE_TG, x))
    if weight[0] != "ok":
        assert weight[0] == time[0] == lam[0] == "ValueError"
        return
    w = weight[1]
    assert type(w) in (int, Fraction, float)
    if type(x) in (int, Fraction):
        assert w is x
    if w > 0:
        assert (type(time[1]), repr(time[1])) == (type(w), repr(w))
    else:
        assert time[0] == "ValueError"
    # lam probes as the number already read.  Both may fail alike: an
    # exact probe whose scaled weights pass the float range raises
    # ValueError (`Digraph._in_arrays`).
    assert lam[0] in ("ok", "ValueError")
    assert lam == _outcome(lambda: evaluate_lambda(RULE_TG, w))
