import random
from fractions import Fraction

import numpy as np
import pytest

from hubapsp.bellman_ford import (
    NumberOps,
    _run_multi_generic,
    bf_run,
    bf_run_multi,
    bf_step,
    extract_minimal_path,
    relax,
)
from hubapsp.generate import random_digraph
from hubapsp.graph import INF, build_graph, hop_limited_oracle
from reference_step import bf_step_python

TRIANGLE = [(0, 1, 1), (1, 2, 1), (2, 0, -3)]


def test_bf_step_single_edge():
    g = build_graph(2, [(0, 1, 5)])
    nxt, preds = bf_step(g, [0, INF])
    assert list(nxt) == [0, 5]
    assert preds == [None, 0]


def test_bf_step_min_over_in_edges():
    g = build_graph(3, [(0, 2, 3), (1, 2, 1)])
    nxt, preds = bf_step(g, [0, 0, INF])
    assert nxt[2] == 1
    assert preds[2] == 1


def test_bf_step_no_strict_improvement_leaves_pred_unset():
    g = build_graph(2, [(0, 1, 5)])
    nxt, preds = bf_step(g, [0, 5])
    assert list(nxt) == [0, 5]
    assert preds == [None, None]


def test_bf_step_is_order_independent():
    rng = random.Random(5)
    for seed in range(20):
        g = random_digraph(9, 0.35, -4, 8, seed=seed)
        row = [rng.choice([0, 1, 3, INF]) for _ in range(g.n)]
        base, base_preds = bf_step_python(g, row, list(range(g.m)))
        nxt, preds = bf_step(g, row)
        assert list(nxt) == list(base)
        assert preds == base_preds
        order = list(range(g.m))
        rng.shuffle(order)
        shuffled, shuffled_preds = bf_step_python(g, row, order)
        assert shuffled == base
        assert shuffled_preds == base_preds


def test_bf_run_path_snapshots():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    lab = bf_run(g, 0, 2)
    assert list(lab.labels[1]) == [0, 1, INF]
    assert list(lab.labels[2]) == [0, 1, 2]


def test_bf_run_sees_negative_closed_walk():
    g = build_graph(3, TRIANGLE)
    lab = bf_run(g, 0, 3)
    assert lab.labels[3][0] == -1


def test_bf_run_zero_steps():
    g = build_graph(3, TRIANGLE)
    lab = bf_run(g, 0, 0)
    assert lab.steps == 0
    assert list(lab.labels[0]) == [0, INF, INF]


def test_bf_run_matches_oracle_rows():
    for seed in range(25):
        g = random_digraph(11, 0.3, -4, 8, seed=100 + seed)
        for k in (1, 3, 6):
            want = hop_limited_oracle(g, k)
            for s in range(g.n):
                lab = bf_run(g, s, k)
                assert np.array_equal(lab.labels[k], want[s]), (seed, k, s)


def test_bf_run_multi_singleton_matches_bf_run():
    g = random_digraph(8, 0.4, -2, 9, seed=3)
    single = bf_run(g, 0, 4)
    multi = bf_run_multi(g, [0], 4)[0]
    assert np.array_equal(single.labels, multi.labels)
    assert np.array_equal(single.pred_edges, multi.pred_edges)


def test_bf_run_multi_reverse_reads_into_distances():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    labs = bf_run_multi(g, [2], 2, direction="reverse")
    lab = labs[2]
    assert lab.labels[2][0] == 2
    assert lab.labels[2][1] == 1


def test_bf_run_multi_empty_sources():
    g = build_graph(3, TRIANGLE)
    assert bf_run_multi(g, [], 2) == {}


def test_relax_seeded_row_keeps_seeds_and_extends_them():
    g = build_graph(3, [(1, 2, 1)])
    out = relax(g, [[0, 4, INF]], 1)
    assert list(out[0]) == [0, 4, 5]
    with pytest.raises(ValueError):
        relax(g, [[0, 0]], 1)


def test_extract_path_on_chain():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    lab = bf_run(g, 0, 2)
    p = extract_minimal_path(lab, 2, 2)
    assert p.vertices == (0, 1, 2)
    assert p.length == 2
    assert p.hops == 2


def test_extract_path_diamond_two_hop():
    g = build_graph(4, [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 0)])
    assert hop_limited_oracle(g, 2)[0, 3] == 2
    lab = bf_run(g, 0, 2)
    p = extract_minimal_path(lab, 3, 2)
    assert p.vertices == (0, 2, 3)
    assert p.length == 2


def test_extract_requires_strict_improvement():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    lab = bf_run(g, 0, 3)
    with pytest.raises(ValueError):
        extract_minimal_path(lab, 2, 3)   # d_3(2) == d_2(2)


def test_pred_tie_break_prefers_smaller_source_then_edge():
    # Two equal-weight routes into vertex 3; the (1, e1) candidate wins over
    # (2, e2), and a duplicate edge never displaces the earlier index.
    g = build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (1, 3, 1)])
    lab = bf_run(g, 0, 2)
    assert int(lab.pred_edges[1][3]) == 2
    assert int(lab.preds[1][3]) == 1


def test_generic_engine_matches_numpy():
    for seed in range(12):
        g = random_digraph(9, 0.35, -4, 8, seed=400 + seed)
        k = 5
        fast = bf_run_multi(g, range(g.n), k)
        slow = _run_multi_generic(g, list(range(g.n)), k, NumberOps())
        for s in range(g.n):
            assert np.array_equal(
                fast[s].labels, np.array(slow[s].labels, dtype=float))
            assert np.array_equal(
                fast[s].pred_edges, np.array(slow[s].pred_edges))


def test_generic_engine_exact_fractions():
    # build_graph coerces to float; the raw constructor keeps exact weights.
    from hubapsp.graph import Digraph
    g = Digraph._unchecked(
        3, ((0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3))))
    lab = _run_multi_generic(g, [0], 2, NumberOps())[0]
    assert lab.labels[2][2] == Fraction(2, 3)


def test_runs_are_bit_identical():
    g = random_digraph(10, 0.3, -4, 8, seed=77)
    a = bf_run(g, 0, 6)
    b = bf_run(g, 0, 6)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.pred_edges, b.pred_edges)
