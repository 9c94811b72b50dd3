"""The step kernel against reduceat, and `relax` and `_label_run` against plain loops.

Each case runs `_min_in_edges` and `min_in_edges_reference` on its start
rows, then `relax` and `relax_reference` from them, and compares the
results byte for byte (on object arrays, each value and its type): the
kernel's full rows in the columns of the vertices with an in-edge, and
`INF` in the others.  No float64 minimum may be -0.0, and `relax` leaves
its start rows as they were.  The cases with signed zeros, large integers
and Fractions, and the full-row case, run on each of the kernel's two
paths, forced by its budget, and so do the in-place label-run cases, which
compare `_label_run` with the plain-loop reference engine and with itself
from scratch, once more with `np.empty` poisoned (`conftest.poisoned_empty`)
so that an entry read before it is written shows.
The freeze tests count the rows `relax` hands to `_min_in_edges`, and the
ratio search's zero row (`parametric._zero_row`) is checked against `relax`.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from hubapsp import bellman_ford
from hubapsp.bellman_ford import NumberOps, _label_run, relax
from hubapsp.generate import random_digraph, ring_with_chords
from hubapsp.graph import INF, Digraph, build_graph, floyd_warshall_oracle
from hubapsp.hubs import build_hub_hierarchy
from hubapsp import minplus, parametric
from hubapsp.minplus import lift_level
from reference_engine import _run_multi_generic
from reference_step import assert_same_bytes, min_in_edges_reference, relax_reference


@pytest.fixture(params=["reduceat", "slots"])
def kernel_path(request, monkeypatch):
    """Force every `_min_in_edges` call of the test onto one of its paths."""
    budget = 0 if request.param == "slots" else 1 << 62
    monkeypatch.setattr(bellman_ford, "_SLOT_BUDGET", budget)
    return request.param


def _check(g, rows, steps):
    """The kernel on the start rows against reduceat, then `relax` against the loop.

    The kernel returns full rows: its columns of the vertices with an
    in-edge must equal the reference, and every other column holds `INF`.
    """
    rows = np.array(rows, dtype=g._in_arrays()[1].dtype)
    got = bellman_ford._min_in_edges(g, rows)
    assert got.shape == rows.shape
    dst = g._in_arrays()[4]
    assert_same_bytes(got[:, dst], min_in_edges_reference(g, rows))
    assert (got[:, np.setdiff1d(np.arange(g.n), dst)] == INF).all()
    if got.dtype != object:
        assert not np.signbit(got[got == 0]).any()
    start = rows.copy()
    out = relax(g, rows, steps)
    assert_same_bytes(out, relax_reference(g, rows, steps))
    assert_same_bytes(rows, start)
    assert not np.shares_memory(out, rows)


def test_signed_zeros_match_the_plain_loop(kernel_path):
    # A step can turn a -0.0 label into 0.0: a row whose only change is the
    # sign of a zero has changed, and must keep stepping.
    rng = random.Random(12)
    for _ in range(3000):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice([0.0, -0.0, 1, 2]))
                 for _ in range(rng.randint(0, 8))]
        rows = [[rng.choice([0.0, -0.0, 1, 2, 3, INF]) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        _check(build_graph(n, edges), rows, rng.randint(1, 5))
    # One vertex whose 10 candidates hold both zeros: reduceat gives 0.0
    # there, a sequential fold -0.0.
    ws = [2, 1, 0.0, 1, 1, 0.0, -0.0, 1, 1, 2]
    _check(build_graph(11, [(u, 10, w) for u, w in enumerate(ws)]),
           np.full((2, 11), -0.0), 2)


def test_exact_integers_past_float_range(kernel_path):
    scale = 2 ** 60
    for seed in range(20):
        g = random_digraph(9, 0.35, -3, 9, seed=600 + seed)
        big = build_graph(g.n, [(u, v, w * scale) for (u, v, w) in g.edges])
        assert big._in_arrays()[1].dtype == object
        rng = random.Random(seed)
        rows = np.full((4, g.n), INF, dtype=object)
        for row in rows:
            for v in rng.sample(range(g.n), 3):
                row[v] = rng.randint(-5, 20) * scale + rng.randint(0, 3)
        _check(big, rows, rng.randint(0, 12))


def test_fraction_weights(kernel_path):
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(rng.randrange(n), rng.randrange(n),
                  Fraction(rng.randint(-2, 9), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3 * n))]
        edges.append((0, 1, 1))       # an int beside the Fractions
        choices = [0, 1, Fraction(1, 2), Fraction(4, 2), INF]
        rows = np.array([[rng.choice(choices) for _ in range(n)]
                         for _ in range(3)], dtype=object)
        _check(build_graph(n, edges), rows, rng.randint(0, 8))


def test_full_rows_with_and_without_in_edges(kernel_path):
    # On a ring every vertex has an in-edge and the kernel's own result is
    # the full row; cutting the edges into three vertices leaves those
    # columns to the INF the kernel writes itself.
    ring = ring_with_chords(40, 80, 3)
    cut = build_graph(40, [e for e in ring.edges if e[1] not in (0, 17, 39)])
    assert len(ring._in_arrays()[4]) == 40 and len(cut._in_arrays()[4]) == 37
    rng = random.Random(5)
    rows = [[rng.choice([0.0, -0.0, 1.0, -3.0, INF]) for _ in range(40)]
            for _ in range(40)]
    for g in (ring, cut):
        _check(g, rows, 6)


def test_empty_cases():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, -0.0), (2, 0, 2.0)])
    _check(g, np.empty((0, 4)), 5)
    _check(g, [[0.0, -0.0, INF, 3.0]], 0)
    _check(Digraph(4, []), [[0.0, -0.0, INF, 3.0], [INF] * 4], 5)
    assert relax(g, np.empty((0, 4)), 5).shape == (0, 4)


def _zero_row_by_relax(g):
    """The zero row as `relax` steps it: n-1 steps from zeros, then one
    kernel step decides whether it has settled."""
    row = relax(g, [[0] * g.n], max(g.n - 1, 0))
    return row, not g.n or not (bellman_ford._min_in_edges(g, row) < row).any()


def test_zero_row_matches_relax_then_one_step(kernel_path):
    # `_zero_row` steps one row until no candidate lies strictly below it:
    # the same row, bit for bit (on object rows, value and type), and the
    # same decision as n-1 `relax` steps and one more kernel step, on
    # float64 with signed zeros, on Python ints past 2^53 and on Fractions
    # beside ints, with self-loops and parallel arcs, for n = 0 and 1 too.
    rng = random.Random(43)
    weights = {
        "float": lambda: rng.choice([0.0, -0.0, 1, 2.5, -1, -0.5]),
        "big": lambda: rng.randint(-3, 9) * 2 ** 60 + rng.randint(0, 3),
        "fraction": lambda: rng.choice([0, 1, -1, Fraction(rng.randint(-3, 9),
                                                           rng.randint(1, 4))]),
    }
    graphs = [Digraph(0, []), build_graph(1, []), build_graph(1, [(0, 0, -0.0)]),
              build_graph(1, [(0, 0, -1)]), build_graph(1, [(0, 0, Fraction(0))])]
    for _ in range(600):
        n = rng.randint(1, 7)
        draw = weights[rng.choice(sorted(weights))]
        graphs.append(build_graph(n, [(rng.randrange(n), rng.randrange(n), draw())
                                      for _ in range(rng.randint(0, 3 * n))]))
    settled = 0
    for g in graphs:
        row, ok = parametric._zero_row(g)
        want, want_ok = _zero_row_by_relax(g)
        assert_same_bytes(row, want)
        assert ok == want_ok
        settled += ok
    assert 100 < settled < len(graphs) - 100


def _spy(monkeypatch):
    """Patch `_min_in_edges`; return the row counts handed to it, call by call."""
    seen = []
    real = bellman_ford._min_in_edges

    def counting(g, cur):
        seen.append(len(cur))
        return real(g, cur)

    monkeypatch.setattr(bellman_ford, "_min_in_edges", counting)
    return seen


def _ring_level(n=96, h=8):
    """A reweighted ring, the new vertices of its level h, the level above
    and the exact distances."""
    base = ring_with_chords(n, 3 * n, 7)
    rng = random.Random(1)
    p = [rng.randint(-50, 50) for _ in range(n)]
    g = build_graph(n, [(u, v, w + p[u] - p[v]) for (u, v, w) in base.edges])
    levels = build_hub_hierarchy(g, 2 * h).levels
    k = h.bit_length() - 1
    upper = sorted(levels[k + 1])
    new = sorted(levels[k] - levels[k + 1])
    return g, new, upper, floyd_warshall_oracle(g)


def test_lift_steps_only_changing_rows(monkeypatch):
    g, new, upper, dist = _ring_level()
    h = 8
    seen = _spy(monkeypatch)
    fwd, _ = lift_level(g, new, upper, dist[np.ix_(new, upper)],
                        dist[np.ix_(upper, new)].T, h)
    rows = sum(seen)
    # Both directions run every new vertex of the level; without the freeze
    # each of those rows would be stepped all 2h+1 times.  The reverse rows
    # also start from the forward pass's exact distances between new vertices.
    assert rows < 2 * len(new) * (2 * h + 1)
    assert (len(new), rows) == (25, 324)
    assert np.array_equal(fwd, dist[new])


def test_apsp_lift_steps_from_the_kept_rows(monkeypatch):
    # apsp's lift starts each level's forward rows from the hierarchy's kept
    # 2h-hop rows; below level 16 it steps fewer rows than from unit rows.
    g = _ring_level()[0]
    seen = _spy(monkeypatch)
    steps = {}
    real = minplus.lift_level

    def counting(g, new, above, fwd_seeds, rev_seeds, h, meter=None, **kw):
        before = sum(seen)
        out = real(g, new, above, fwd_seeds, rev_seeds, h, meter, **kw)
        steps[h] = sum(seen) - before
        return out

    monkeypatch.setattr(minplus, "lift_level", counting)
    res = minplus.apsp(g, 16)
    assert np.array_equal(res.dist.values, floyd_warshall_oracle(g))
    # Level 8 runs the same 25 new vertices as above: 174 row-steps from the
    # kept rows against 324 from unit rows.  Level 16 is the top level, which
    # keeps no rows.  At level 1 every reverse row starts exact and takes one
    # step: 28 new vertices, 2 forward steps and 1 reverse step each.
    assert steps == {16: 200, 8: 174, 4: 144, 2: 111, 1: 84}


def test_relax_stops_after_the_last_change(monkeypatch):
    g, sources, upper, dist = _ring_level()
    rows = np.full((len(sources), g.n), INF)
    rows[:, upper] = dist[np.ix_(sources, upper)]
    rows[np.arange(len(sources)), sources] = 0.0
    last, cur = 0, rows
    for t in range(1, 60):
        nxt = relax_reference(g, cur, 1)
        if nxt.tobytes() != cur.tobytes():
            last = t
        cur = nxt
    assert 0 < last < 50
    seen = _spy(monkeypatch)
    out = relax(g, rows, 10 * g.n)
    assert len(seen) <= last + 1
    assert out.tobytes() == cur.tobytes()


def test_relax_steps_the_whole_table_while_every_row_moves(monkeypatch):
    # While every row moves, the kernel's result becomes the table: the next
    # step hands that very array to the kernel, with no gather of rows.
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, -0.5)])
    rows = np.full((2, 4), INF)
    rows[0, 0] = rows[1, 2] = 0.0
    calls = []
    real = bellman_ford._min_in_edges

    def keeping(g, cur):
        out = real(g, cur)
        calls.append((cur, out))
        return out

    monkeypatch.setattr(bellman_ford, "_min_in_edges", keeping)
    out = relax(g, rows, 3)
    assert len(calls) == 3
    for (_, before), (cur, _) in zip(calls, calls[1:]):
        assert cur is before
    assert out is calls[-1][1]
    assert_same_bytes(out, relax_reference(g, rows, 3))


def _check_run(g, sources, k, first=(), k_first=0):
    """`_label_run` against the reference engine and against itself from scratch.

    With ``first``, both engines resume from their own k_first-step run over
    those sources.
    """
    resume = _label_run(g, first, k_first) if len(first) else None
    got = _label_run(g, sources, k, resume=resume)
    resume = (_run_multi_generic(g, first, k_first, NumberOps())
              if len(first) else None)
    want = _run_multi_generic(g, sources, k, NumberOps(), resume)
    scratch = _label_run(g, sources, k)
    assert got.sources == want.sources == scratch.sources
    assert got.ran == want.ran
    for name in ("labels", "closed"):
        assert_same_bytes(getattr(got, name), getattr(want, name))
        assert_same_bytes(getattr(scratch, name), getattr(want, name))


def _weights(kind, rng):
    if kind == "zeros":
        return rng.choice([0.0, -0.0, 1, 2, 3])
    if kind == "big":
        return rng.randint(1, 6) * 2 ** 60 + rng.randint(0, 3)
    return Fraction(rng.randint(0, 9), rng.randint(1, 4))


@pytest.mark.parametrize("kind", ["zeros", "big", "fraction"])
def test_label_run_in_place_steps_match_the_reference(kernel_path, kind):
    # Whole steps write into the next snapshot, and the steps of a resumed
    # run that advance only its new sources write through a gathered copy.
    rng = random.Random(41)
    for case in range(30):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(n), rng.randrange(n), _weights(kind, rng))
                 for _ in range(rng.randint(1, 2 * n))]
        g = build_graph(n, edges)
        assert (g._in_arrays()[1].dtype == object) == (kind != "zeros")
        sources = rng.sample(range(n), rng.randint(1, n))
        first = rng.sample(range(n), rng.randint(0, n))
        k = rng.randint(1, 6)
        _check_run(g, sources, 2 * k, first, k)
        _check_run(g, sources, k)


@pytest.mark.parametrize("kind", ["zeros", "big", "fraction"])
def test_label_run_reads_no_unwritten_entry(kernel_path, poisoned_empty, kind):
    # `_label_run` fills only row 0 of its tables; every other entry must
    # be stepped or resumed before anything reads it.  Under the poisoned
    # `np.empty` an entry read first would leave NaN or a sentinel in the
    # tables, or fail to add.
    assert np.isnan(np.empty(2)).all()
    rng = random.Random(43)
    for case in range(20):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(n), rng.randrange(n), _weights(kind, rng))
                 for _ in range(rng.randint(1, 2 * n))]
        g = build_graph(n, edges)
        sources = rng.sample(range(n), rng.randint(1, n))
        first = rng.sample(range(n), rng.randint(1, n))
        k = rng.randint(1, 6)
        _check_run(g, sources, k)
        _check_run(g, sources, k, first, rng.randint(0, k - 1))
        _check_run(g, sources, k, first, k + rng.randint(1, 3))
        _check_run(g, [], k)
        _check_run(g, [], k, first, k)
        _check_run(g, sources, 0)
        _check_run(g, sources, 0, first, k)


def test_label_run_in_place_steps_on_a_negative_cycle(kernel_path):
    g = build_graph(6, [(0, 1, 1.0), (1, 2, -3.0), (2, 0, 1.0), (3, 4, -0.0),
                        (4, 5, 2.0), (2, 3, 0.0)])
    for first in ((), (0, 4), (3, 4, 5)):
        _check_run(g, range(6), 12, first, 5)
        _check_run(g, [4, 5], 3, first, 1)
