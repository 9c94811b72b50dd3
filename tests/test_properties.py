"""Property tests: exact integer APSP at every d, edge-order invariance, and
`relax` against the label engine.

Integer graphs are a ring plus random chords, with no negative cycle by
construction: nonnegative weights reweighted by vertex potentials,
w + p(u) - p(v), keep every cycle's weight.
Examples are derandomized so the suite is reproducible.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hubapsp.bellman_ford import bf_run_multi, relax
from hubapsp.graph import INF, build_graph, floyd_warshall_oracle
from hubapsp.minplus import ApspResult, apsp

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
