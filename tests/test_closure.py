"""The semi-naive closure against plain repeated squaring.

Each case runs `minplus_closure` and `reference_closure` on one hub matrix
and compares the closed matrix byte for byte (on object matrices, each
value and its type), the number of `minplus_product` calls, the meter's
report, and on a negative cycle the product and vertex at which
`NegativeDiagonal` is raised.
"""
import math
import random
from unittest import mock

import numpy as np
import pytest

from hubapsp import minplus
from hubapsp.generate import ring_with_chords
from hubapsp.graph import INF, build_graph
from hubapsp.meter import CostMeter
from hubapsp.minplus import (DistMatrix, NegativeDiagonal, build_hub_graph,
                             minplus_closure, minplus_product)
from reference_closure import reference_closure
from reference_step import assert_same_bytes


def _check(A):
    """Assert that both closures agree on A; return (products, raised)."""
    real = minplus.minplus_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    meter, ref_meter = CostMeter(), CostMeter()
    with mock.patch.object(minplus, "minplus_product", counting):
        try:
            got, raised = minplus_closure(A, meter), None
        except NegativeDiagonal as exc:
            got, raised = None, exc.vertex
    want, products, negative = reference_closure(A.values, ref_meter)
    assert len(calls) == products
    assert meter.report() == ref_meter.report()
    if negative is None:
        assert raised is None
        assert_same_bytes(got.values, want)
    else:
        assert raised == A.index[negative]
    return products, raised


def _ring(n, seed, scale=1, floats=False):
    """A ring with chords reweighted by vertex potentials: no negative cycle."""
    base = ring_with_chords(n, 3 * n, seed)
    rng = random.Random(seed)
    if floats:
        p = [rng.uniform(-50, 50) for _ in range(n)]
        edges = [(u, v, w * 1.37 + p[u] - p[v]) for (u, v, w) in base.edges]
    else:
        p = [rng.randint(-50, 50) for _ in range(n)]
        edges = [(u, v, (w + p[u] - p[v]) * scale) for (u, v, w) in base.edges]
    return build_graph(n, edges)


def _spy_passes():
    """Patch `_gather_rows` to record (column pass?, marks) of each pass.

    The column pass writes its rows through the transpose of the output.
    """
    marks = []
    real = minplus._gather_rows

    def spy(out, D, marked):
        marks.append((not out.flags.c_contiguous, int(np.count_nonzero(marked))))
        return real(out, D, marked)

    return marks, mock.patch.object(minplus, "_gather_rows", spy)


@pytest.mark.parametrize("floats", [False, True])
def test_rings_close_like_plain_squaring(floats):
    for n, seed in ((256, 1), (96, 2), (64, 3)):
        g = _ring(n, seed, floats=floats)
        A = build_hub_graph(g, range(n), 1)
        marks, spy = _spy_passes()
        with spy:
            products, _ = _check(A)
        assert products >= 3
        # The first product gathers only the finite entries, and some later
        # product needs both the row and the column pass.
        assert marks[0] == (False, np.count_nonzero(A.values != INF))
        assert any(column for column, _ in marks)


def test_hub_subsets_close_like_plain_squaring():
    rng = random.Random(5)
    for seed in range(6):
        g = _ring(80, 20 + seed, floats=seed % 2 == 1)
        for d in (1, 2, 4):
            hubs = rng.sample(range(g.n), rng.randint(1, g.n))
            _check(build_hub_graph(g, hubs, d))


def test_object_matrix_past_two_to_the_53():
    g = _ring(24, 11, scale=2 ** 55 + 3)
    A = build_hub_graph(g, range(g.n), 1)
    assert A.values.dtype == object
    assert max(abs(x) for x in A.values.ravel() if x != INF) > 2 ** 53
    marks, spy = _spy_passes()
    with spy:
        _check(A)
    assert marks
    _check(build_hub_graph(g, range(0, g.n, 3), 2))


def test_rows_and_columns_of_infinities():
    g = _ring(48, 13)
    vals = build_hub_graph(g, range(g.n), 1).values.copy()
    vals[[2, 5, 30]] = INF
    vals[:, [7, 30]] = INF
    _check(DistMatrix(tuple(range(g.n)), vals))
    # Every row infinite, even on the diagonal, which the clamp sets to 0.
    _check(DistMatrix(tuple(range(6)), np.full((6, 6), INF)))


def test_negative_zero_entries():
    # The dense minimum picks the sign of a zero result; a few of these
    # matrices close to other zero bytes when squared semi-naively.
    for seed in range(600):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 12))
        vals = rng.choice([0.0, -0.0, 1.0, 2.0, 3.0], size=(b, b))
        vals[rng.random((b, b)) > rng.uniform(0.1, 0.6)] = INF
        _check(DistMatrix(tuple(range(b)), vals))


def test_negative_diagonal_at_the_same_product():
    for b, hops in ((8, 7), (16, 3), (16, 12), (32, 20)):
        vals = np.full((b, b), INF)
        np.fill_diagonal(vals, 0.0)
        for i in range(hops):
            vals[i, i + 1] = 1.0
        vals[hops, 0] = -hops - 1.0
        products, raised = _check(DistMatrix(tuple(range(b)), vals))
        # The cycle has hops + 1 arcs; it surfaces once walks that long compose.
        assert raised is not None and products == math.ceil(math.log2(hops + 1))
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        b = int(rng.integers(2, 20))
        vals = rng.integers(-3, 12, size=(b, b)).astype(float)
        vals[rng.random((b, b)) > 0.25] = INF
        products, raised = _check(DistMatrix(tuple(range(10, 10 + b)), vals))
        hits += raised is not None and products > 1
    assert hits > 0


def test_random_matrices_close_like_plain_squaring():
    for seed in range(60):
        rng = np.random.default_rng(900 + seed)
        b = int(rng.integers(0, 24))
        vals = rng.integers(0, 30, size=(b, b)).astype(float)
        if seed % 3 == 1:
            vals += rng.random((b, b))
        vals[rng.random((b, b)) > rng.uniform(0.05, 0.9)] = INF
        _check(DistMatrix(tuple(range(b)), vals))


def test_semi_naive_product_squares_one_matrix():
    a = DistMatrix((0, 1), np.array([[0.0, 1.0], [INF, 0.0]]))
    with pytest.raises(ValueError):
        minplus_product(a, DistMatrix(a.index, a.values.copy()),
                        _changed=np.ones((2, 2), dtype=bool))
