import math
from fractions import Fraction

import numpy as np
import pytest

from hubapsp.generate import random_timed, ring_with_chords
from hubapsp.graph import (
    INF,
    Digraph,
    NegativeCycleDetected,
    build_graph,
    enumerate_simple_cycles,
    floyd_warshall_oracle,
    has_cycle,
    hop_limited_oracle,
    negative_cycle_hops_oracle,
)
from hubapsp.hubs import shortest_negative_cycle, verify_hub_property
from hubapsp.minplus import apsp
from hubapsp.parametric import (TimedDigraph, evaluate_lambda, min_mean_cycle_karp,
                                min_ratio_parametric)

TRIANGLE = [(0, 1, 1), (1, 2, 1), (2, 0, -3)]


def test_single_edge_adjacency():
    # Vertex v's in-edges are the in_ptr[v]:in_ptr[v+1] segment.
    g = build_graph(2, [(0, 1, 5.0)])
    src, _w, eidx, _seg, _dst, in_ptr, edge_dst = g._in_arrays()
    segments = [slice(in_ptr[v], in_ptr[v + 1]) for v in range(g.n)]
    assert [eidx[s].tolist() for s in segments] == [[], [0]]
    assert [src[s].tolist() for s in segments] == [[], [0]]
    assert [edge_dst[s].tolist() for s in segments] == [[], [1]]
    assert g.m == 1


# A self loop at 0, parallel arcs 1 -> 0, and a vertex (3) with no in-arc.
LOOPS = [(0, 0, 1), (1, 0, 2), (2, 1, 1), (1, 0, 5), (0, 2, 3), (3, 2, 0)]


@pytest.mark.parametrize("n,edges,weights", [
    (0, [], []),
    (4, [], []),
    (4, LOOPS, [0.5, -1.25, 2.0, -1.25, 0.0, 3.5]),
    (4, LOOPS, [2 ** 60, -1, 3, 2 ** 60 + 1, 0, -(2 ** 61)]),
    (4, LOOPS, [Fraction(1, 3), 2, Fraction(-5, 7), 2, 0, Fraction(9, 2)]),
    # The base's own weights mix floats with integers past the bound, which
    # no one dtype holds; its layout is still lent.
    (2, [(0, 1, 0.5), (1, 0, 2 ** 60), (0, 1, 1)], [1, 2, 3]),
], ids=["empty", "no-arcs", "float64", "big-ints", "fractions", "refused-base"])
def test_reweighted_lays_out_as_a_fresh_graph(n, edges, weights):
    # Same arcs, new weights: array for array, dtype included, what a fresh
    # graph over the same arcs builds, on the base's shared layout.
    base = Digraph(n, edges)
    got = base._reweighted(weights)
    fresh = Digraph(n, [(u, v, w) for (u, v, _), w in zip(edges, weights)])
    assert got.edges == fresh.edges
    arrs = got._in_arrays()
    for x, y in zip(arrs, fresh._in_arrays(), strict=True):
        assert x.dtype == y.dtype
        assert [(type(a), a) for a in x.tolist()] == [(type(b), b) for b in y.tolist()]
    # Read independently: in-edges sorted by (dst, src, edge id), each
    # carrying its own new weight.
    eidx = arrs[2].tolist()
    assert eidx == sorted(range(len(edges)), key=lambda e: (edges[e][1], edges[e][0], e))
    assert arrs[1].tolist() == [weights[e] for e in eidx]
    layout = base._in_layout()
    assert arrs[0] is layout[0] and all(a is b for a, b in zip(arrs[2:], layout[1:]))
    assert got._edge_src() is base._edge_src()


@pytest.mark.parametrize("weights", [
    [0.5, 2 ** 60, 1, 1, 1, 1],
    [0.5, Fraction(1, 3), 1, 1, 1, 1],
    [1e308, 1, 1, 1, 1, 1],
    [10 ** 400, 1, 1, 1, 1, 1],
], ids=["float-beside-big-int", "float-beside-fraction", "float-range",
        "int-range"])
def test_reweighted_refuses_what_a_fresh_graph_refuses(weights):
    base = build_graph(4, LOOPS)
    with pytest.raises(ValueError) as fresh:
        Digraph(4, [(u, v, w) for (u, v, _), w in zip(LOOPS, weights)])._in_arrays()
    with pytest.raises(ValueError) as got:
        base._reweighted(weights)._in_arrays()
    assert str(got.value) == str(fresh.value)


@pytest.mark.parametrize("n,edges,depth", [
    (0, [], 1),
    (3, [], 1),
    (3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], 2),
    # Vertex 0 takes a self loop and parallel edges from 1: in-degree D.
    *[(3, [(0, 0, 1)] + [(1, 0, 2)] * (D - 1) + [(2, 1, 1), (0, 2, 3)], depth)
      for D, depth in [(1, 2), (3, 3), (4, 4), (7, 4), (8, 5)]],
])
def test_step_cost_reads_the_largest_in_degree(n, edges, depth):
    # (m + n, ceil(log2(largest in-degree + 1)) + 1), pinned.
    g = build_graph(n, edges)
    assert g._step_cost() == (len(edges) + n, depth)


def test_edgeless_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_triangle_total_weight():
    g = build_graph(3, TRIANGLE)
    assert sum(w for (_, _, w) in g.edges) == -1


@pytest.mark.parametrize("bad", [
    (0, 3, 1),          # endpoint out of range
    (-1, 0, 1),
    (0, 1, math.inf),   # non-finite weight
    (0, 1, math.nan),
    (0.0, 1, 1),        # non-integer endpoint
    (0, 1, "1.5"),      # a numeric string is not a number
    (0, 1, np.bool_(True)),
    (0, 1, np.complex128(1 + 0j)),
])
def test_build_graph_rejects(bad):
    with pytest.raises(ValueError):
        build_graph(3, [bad])


def test_build_graph_reads_ids_with_operator_index():
    # Numpy integer ids are taken, as every vertex set takes them; a float
    # id, even an integral one, is not.
    g = build_graph(np.int64(3), [(np.int64(0), np.int32(2), 1)])
    assert g == build_graph(3, [(0, 2, 1)])
    assert type(g.n) is int and all(type(x) is int for x in g.edges[0][:2])
    for n in (3.0, -1, "3", None):
        with pytest.raises(ValueError):
            build_graph(n, [])


def test_build_graph_keeps_fraction_weights_exact():
    # A Fraction weight was once rounded to 0.3333333333333333.
    g = build_graph(2, [(0, 1, Fraction(1, 3)), (1, 0, Fraction(-2, 3))])
    assert [w for (_, _, w) in g.edges] == [Fraction(1, 3), Fraction(-2, 3)]
    assert g._in_arrays()[1].dtype == object
    # Beside a float no one weight array holds both exactly: the first
    # engine call refuses the graph.
    mixed = build_graph(2, [(0, 1, Fraction(1, 3)), (1, 0, 0.5)])
    with pytest.raises(ValueError):
        apsp(mixed, 1)


def test_build_graph_keeps_integer_weights():
    g = build_graph(2, [(0, 1, 5), (1, 0, 2.5)])
    assert g.edges[0][2] == 5 and isinstance(g.edges[0][2], int)
    assert isinstance(g.edges[1][2], float)


@pytest.mark.parametrize("w", [2 ** 53 + 1, -(2 ** 53) - 1, 3 ** 40])
def test_numpy_engine_is_exact_on_integers_past_2_53(w):
    # float64 would round these (2^53 + 1 reads back as 2^53); the engine
    # keeps them as Python ints on object arrays instead.
    dist = apsp(build_graph(3, [(0, 1, w), (1, 2, 1)]), 1).dist
    assert dist.values.dtype == object
    assert type(dist.entry(0, 1)) is int and dist.entry(0, 1) == w
    assert dist.entry(0, 2) == w + 1 and dist.entry(2, 0) == INF


def test_weight_dtype_switches_at_3n_times_the_largest_integer():
    # n = 2: float64 while 6 * max|w| < 2^53.
    below = 2 ** 53 // 6
    assert build_graph(2, [(0, 1, below)])._in_arrays()[1].dtype == np.float64
    assert build_graph(2, [(0, 1, -below - 1)])._in_arrays()[1].dtype == object
    assert build_graph(2, [(0, 1, 2.0 ** 60)])._in_arrays()[1].dtype == np.float64


def test_float_beside_integers_past_the_bound_is_rejected():
    g = build_graph(2, [(0, 1, 2 ** 60), (1, 0, 0.5)])
    with pytest.raises(ValueError, match="float weights"):
        apsp(g, 1)


@pytest.mark.parametrize("oracle", [
    floyd_warshall_oracle,
    lambda g: hop_limited_oracle(g, 2),
    negative_cycle_hops_oracle,
    enumerate_simple_cycles,
    lambda g: verify_hub_property(g, [0], 1),
], ids=["floyd_warshall", "hop_limited", "negative_cycle_hops",
        "simple_cycles", "hub_property"])
def test_float_oracles_refuse_integers_past_the_bound(oracle):
    g = build_graph(2, [(0, 1, 2 ** 60), (1, 0, 1)])
    with pytest.raises(ValueError, match="would round"):
        oracle(g)


def test_exact_weights_past_the_float_range_are_rejected():
    # An object table's infinity is a float, and an int past about 1.8e308
    # cannot become one, so 3n * max|w| must stay below that range.
    g = build_graph(3, [(0, 1, 10 ** 400), (1, 2, 1), (2, 0, 1)])
    ring = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    calls = [lambda: shortest_negative_cycle(g), lambda: apsp(g, 1), lambda: apsp(g, 2),
             lambda: evaluate_lambda(TimedDigraph(ring, (1, 1, 1)), 1e308),
             lambda: build_graph(2, [(0, 1, Fraction(10 ** 400, 3))])._in_arrays()]
    for call in calls:
        with pytest.raises(ValueError, match="float range"):
            call()
    # 6 * max|w| just below the range still runs, on exact ints.
    top = int(1.7e308) // 6
    assert apsp(build_graph(2, [(0, 1, top)]), 1).dist.entry(0, 1) == top


def test_float_weights_past_the_float_range_are_rejected():
    # The float range bound holds for float weights too: a float64 sum past
    # it would be inf, read as unreachable, and Karp would find no n-edge walk.
    with pytest.raises(ValueError, match="float range"):
        apsp(build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)]), 1)
    with pytest.raises(ValueError, match="float range"):
        min_mean_cycle_karp(build_graph(2, [(0, 1, 1e308), (1, 0, 1e308)]))


def test_numpy_engine_keeps_2_53_and_large_floats():
    assert apsp(build_graph(2, [(0, 1, 2 ** 53)]), 1).dist.values[0, 1] == 2.0 ** 53
    assert apsp(build_graph(2, [(0, 1, 2.0 ** 60)]), 1).dist.values[0, 1] == 2.0 ** 60


def test_reverse_shares_edge_indices():
    g = build_graph(3, TRIANGLE)
    r = g.reverse()
    assert r.edges[0] == (1, 0, 1)
    assert r.edges[2] == (0, 2, -3)
    assert r.reverse().edges == g.edges


def test_hop_oracle_needs_enough_hops():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    d1 = hop_limited_oracle(g, 1)
    d2 = hop_limited_oracle(g, 2)
    assert d1[0, 2] == INF
    assert d2[0, 2] == 2


def test_hop_oracle_negative_closed_walk():
    # Two tours of the -1 triangle in six hops.
    g = build_graph(3, TRIANGLE)
    d6 = hop_limited_oracle(g, 6)
    assert d6[0, 0] == -2


def test_floyd_warshall_on_directed_cycle():
    g = build_graph(4, [(i, (i + 1) % 4, 1) for i in range(4)])
    dist = floyd_warshall_oracle(g)
    for i in range(4):
        for j in range(4):
            assert dist[i, j] == (j - i) % 4


def test_floyd_warshall_disconnected():
    g = build_graph(2, [])
    dist = floyd_warshall_oracle(g)
    assert dist[0, 0] == 0 and dist[1, 1] == 0
    assert dist[0, 1] == INF and dist[1, 0] == INF


def test_floyd_warshall_detects_negative_cycle():
    g = build_graph(3, TRIANGLE)
    with pytest.raises(NegativeCycleDetected):
        floyd_warshall_oracle(g)


def test_enumerate_triangle():
    cycles = enumerate_simple_cycles(build_graph(3, TRIANGLE))
    assert len(cycles) == 1
    assert cycles[0].hops == 3
    assert cycles[0].length == -1


def test_enumerate_two_cycle():
    g = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    cycles = enumerate_simple_cycles(g)
    assert len(cycles) == 1 and cycles[0].hops == 2


def test_enumerate_complete_digraph_on_four():
    edges = [(u, v, 1) for u in range(4) for v in range(4) if u != v]
    cycles = enumerate_simple_cycles(build_graph(4, edges))
    by_hops = {}
    for c in cycles:
        by_hops[c.hops] = by_hops.get(c.hops, 0) + 1
    assert by_hops == {2: 6, 3: 8, 4: 6}
    assert len(cycles) == 20


def test_enumerate_refuses_large_graphs():
    g = build_graph(13, [])
    with pytest.raises(ValueError):
        enumerate_simple_cycles(g, max_n=12)


def test_has_cycle():
    assert not has_cycle(build_graph(3, [(0, 1, 1), (1, 2, 1)]))
    assert has_cycle(build_graph(2, [(0, 1, 1), (1, 0, 1)]))
    assert has_cycle(build_graph(1, [(0, 0, 1)]))   # self loop counts


def test_negative_cycle_hops_oracle():
    assert negative_cycle_hops_oracle(build_graph(3, TRIANGLE)) == 3
    g = build_graph(2, [(0, 1, 1), (1, 0, -2)])
    assert negative_cycle_hops_oracle(g) == 2
    assert negative_cycle_hops_oracle(build_graph(2, [(0, 1, -5)])) is None
    assert negative_cycle_hops_oracle(build_graph(1, [(0, 0, -1)])) == 1
    # The cheaper of two parallel edges closes the cycle; a hop budget below
    # its length finds nothing, and graphs without edges or vertices neither.
    g = build_graph(2, [(0, 1, 5), (0, 1, -3), (1, 0, 2)])
    assert negative_cycle_hops_oracle(g) == 2
    assert negative_cycle_hops_oracle(g, k_max=1) is None
    assert negative_cycle_hops_oracle(build_graph(3, TRIANGLE), k_max=2) is None
    assert negative_cycle_hops_oracle(build_graph(3, TRIANGLE), k_max=0) is None
    assert negative_cycle_hops_oracle(build_graph(3, [])) is None
    assert negative_cycle_hops_oracle(build_graph(0, [])) is None


def test_digraph_equality_and_hash():
    g1 = build_graph(3, TRIANGLE)
    g2 = build_graph(3, list(TRIANGLE))
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != build_graph(3, TRIANGLE[:2])


def test_ring_with_chords_needs_three_vertices_for_chords():
    # On two vertices every pair is a ring edge, so no chord can be drawn;
    # the draw once looped forever.
    with pytest.raises(ValueError, match="n >= 3"):
        ring_with_chords(2, 1, seed=0)
    assert ring_with_chords(2, 0, seed=0).m == 2
    g = ring_with_chords(3, 4, seed=0)
    assert g.m == 7
    assert all(v != (u + 1) % 3 and v != u for (u, v, _) in g.edges[3:])


@pytest.mark.parametrize("kind,scale", [(np.int64, 1), (np.int64, 2 ** 50),
                                        (np.float64, 0.1)])
def test_hand_built_numpy_scalar_weights_read_as_python_numbers(kind, scale):
    # `Digraph` takes its weights as given; `_weight_array` reads a numpy
    # scalar as the number it holds, as `build_graph` reads every weight.
    # Costs times 2^50 pass the float64 bound and go to an object array.
    tg = random_timed(8, 0.4, -3, 9, seed=5)
    for shift in (0, 3):  # with a negative cycle, and with none
        edges = [(u, v, kind((w + shift) * scale)) for (u, v, w) in tg.base.edges]
        g = Digraph(tg.base.n, edges)
        ref = build_graph(tg.base.n, [(u, v, w.item()) for (u, v, w) in edges])
        got, want = g._in_arrays()[1], ref._in_arrays()[1]
        assert got.dtype == want.dtype == (object if scale == 2 ** 50 else np.float64)
        assert got.tolist() == want.tolist()
        assert list(map(type, got.tolist())) == list(map(type, want.tolist()))
        assert shortest_negative_cycle(g) == shortest_negative_cycle(ref)
        res, res_ref = apsp(g, 4), apsp(ref, 4)
        assert type(res) is type(res_ref)
        if shift:
            assert res.dist.values.dtype == res_ref.dist.values.dtype
            assert res.dist.values.tolist() == res_ref.dist.values.tolist()
        else:
            assert res == res_ref
        assert (min_ratio_parametric(TimedDigraph(g, tg.times))
                == min_ratio_parametric(TimedDigraph(ref, tg.times)))
