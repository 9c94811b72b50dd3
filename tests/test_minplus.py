import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from hubapsp.generate import (negative_cycle_free, random_digraph,
                              ring_with_chords, with_negative_cycle)
from hubapsp.graph import (
    INF,
    NegativeCycleDetected,
    build_graph,
    floyd_warshall_oracle,
    hop_limited_oracle,
)
from hubapsp.bellman_ford import relax
from hubapsp.hubs import NegativeCycle, build_hub_hierarchy
from hubapsp import minplus
from hubapsp.meter import CostMeter
from reference_step import assert_same_bytes, relax_reference
from hubapsp.minplus import (
    ApspResult,
    DistMatrix,
    NegativeDiagonal,
    apsp,
    build_hub_graph,
    lift_level,
    minplus_closure,
    minplus_product,
)

CHAIN3 = DistMatrix((0, 1, 2), np.array([
    [0.0, 1.0, INF],
    [INF, 0.0, 1.0],
    [INF, INF, 0.0],
]))


def _identity(index):
    b = len(index)
    vals = np.full((b, b), INF)
    np.fill_diagonal(vals, 0.0)
    return DistMatrix(tuple(index), vals)


def test_product_identity():
    ident = _identity((0, 1, 2))
    out = minplus_product(ident, CHAIN3)
    assert np.array_equal(out.values, CHAIN3.values)


def test_product_two_hop_composition():
    out = minplus_product(CHAIN3, CHAIN3)
    assert out.entry(0, 2) == 2


def test_product_scalar():
    a = DistMatrix((7,), np.array([[-1.0]]))
    out = minplus_product(a, a)
    assert out.values[0, 0] == -2


@pytest.mark.parametrize("dtype", [np.float64, object])
def test_product_scratch_starts_on_a_cache_line(dtype):
    for size in (1, 7, 256 * 256):
        buf = minplus._aligned_empty(size, dtype)
        assert buf.shape == (size,) and buf.dtype == dtype
        assert buf.ctypes.data % 64 == 0


def test_product_rejects_index_mismatch():
    a = _identity((0, 1))
    b = _identity((0, 2))
    with pytest.raises(ValueError):
        minplus_product(a, b)


def test_closure_of_chain():
    out = minplus_closure(CHAIN3)
    assert out.entry(0, 2) == 2
    assert np.array_equal(np.diagonal(out.values), np.zeros(3))


def test_closure_detects_negative_diagonal():
    bad = DistMatrix((0, 1), np.array([[0.0, 1.0], [-2.0, 0.0]]))
    with pytest.raises(NegativeDiagonal):
        minplus_closure(bad)


def test_closure_single_entry_passthrough():
    one = DistMatrix((4,), np.array([[0.0]]))
    out = minplus_closure(one)
    assert np.array_equal(out.values, one.values)


def _chain(b, hops, last):
    """b x b hop-1 matrix: a chain 0 -> 1 -> ... -> hops of unit arcs, plus
    an arc of weight ``last`` back to 0 when ``last`` is not None."""
    vals = np.full((b, b), INF)
    np.fill_diagonal(vals, 0.0)
    for i in range(hops):
        vals[i, i + 1] = 1.0
    if last is not None:
        vals[hops, 0] = last
    return DistMatrix(tuple(range(b)), vals)


def test_closure_stops_at_its_fixpoint():
    # A 3-hop chain is closed after two squarings; the third product equals
    # its input, so the fourth of ceil(log2 16) never runs.
    meter = CostMeter()
    out = minplus_closure(_chain(16, 3, None), meter)
    assert meter.report().total_work == 3 * 16 ** 3
    assert out.entry(0, 3) == 3 and out.entry(3, 0) == INF


def test_closure_raises_on_a_cycle_that_needs_every_squaring():
    # An 8-hop cycle of weight -1 shows on the diagonal only once walks of
    # 8 hops compose, at the last of the ceil(log2 8) = 3 squarings.
    meter = CostMeter()
    with pytest.raises(NegativeDiagonal):
        minplus_closure(_chain(8, 7, -8.0), meter)
    assert meter.report().total_work == 3 * 8 ** 3


def test_closure_matches_floyd_warshall_on_full_graphs():
    for seed in range(15):
        g = negative_cycle_free(9, 0.4, -4, 12, seed=900 + seed)
        base = np.full((g.n, g.n), INF)
        np.fill_diagonal(base, 0.0)
        for (u, v, w) in g.edges:
            base[u, v] = min(base[u, v], w)
        out = minplus_closure(DistMatrix(tuple(range(g.n)), base))
        assert np.array_equal(out.values, floyd_warshall_oracle(g))


def test_hub_graph_empty_set():
    g = build_graph(3, [(0, 1, 1)])
    out = build_hub_graph(g, frozenset(), 2)
    assert out.values.shape == (0, 0)


def test_hub_graph_singleton_diagonal_zero():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    out = build_hub_graph(g, {0}, 2)
    assert out.index == (0,)
    assert out.entry(0, 0) == 0


def test_hub_graph_chain_entries():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    out = build_hub_graph(g, {0, 2}, 2)
    assert out.entry(0, 2) == 2
    assert out.entry(2, 0) == INF


def test_hub_graph_weights_are_hop_bounded_distances():
    for seed in range(10):
        g = negative_cycle_free(12, 0.3, -4, 12, seed=950 + seed)
        d = 4
        want = hop_limited_oracle(g, d + 1)
        hubs = (0, 3, 7)
        out = build_hub_graph(g, hubs, d)
        for i, u in enumerate(hubs):
            for j, v in enumerate(hubs):
                assert out.values[i, j] == want[u, v]


def _seeds(dist, new, above):
    """The seed blocks of a lift of ``new`` below ``above`` from exact distances."""
    return dist[np.ix_(new, above)], dist[np.ix_(above, new)].T


def test_lift_is_idempotent_on_exact_levels():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    dist = floyd_warshall_oracle(g)
    hubs = [0, 1]
    fwd, rev = lift_level(g, hubs, hubs, *_seeds(dist, hubs, hubs), 1)
    assert np.array_equal(fwd, dist[hubs])
    assert np.array_equal(rev, dist[:, hubs].T)


def _lift_from_scratch(g, sources, above, dist, h):
    """Every source runs 2h+1 steps from its rows seeded at ``above``."""

    def run(host, seeds):
        rows = np.full((len(sources), g.n), INF, dtype=g._in_arrays()[1].dtype)
        rows[:, above] = seeds
        rows[np.arange(len(sources)), sources] = 0
        return relax(host, rows, 2 * h + 1)

    return tuple(map(run, (g, g.reverse()), _seeds(dist, sources, above)))


def test_lift_copies_shared_rows_and_equals_a_lift_from_scratch():
    # A level's rows are those of its vertices shared with the level above,
    # which the lift leaves alone, and the lifted rows of its new vertices;
    # together they are the rows every vertex of the level gets from scratch.
    shared = 0
    for seed in range(12):
        g = negative_cycle_free(16, 0.25, -4, 12, seed=980 + seed)
        hier = build_hub_hierarchy(g, 4)
        dist = floyd_warshall_oracle(g)
        for k in (0, 1):
            level = sorted(hier.levels[k])
            upper = sorted(hier.levels[k + 1])
            new = sorted(hier.levels[k] - hier.levels[k + 1])
            meter = CostMeter()
            got = lift_level(g, new, upper, *_seeds(dist, new, upper), 1 << k, meter)
            want = _lift_from_scratch(g, level, upper, dist, 1 << k)
            pos = np.searchsorted(level, new)
            for mine, scratch, exact in zip(got, want, (dist, dist.T)):
                assert np.array_equal(mine, scratch[pos]), (seed, k)
                assert np.array_equal(scratch, exact[level]), (seed, k)
            # Only the level's vertices missing above run, in both directions.
            w, _ = g._step_cost()
            assert meter.report().total_work == 2 * len(new) * (
                (2 * (1 << k) + 1) * w + len(upper))
            shared += len(hier.levels[k] & hier.levels[k + 1])
    assert shared > 0


def _exact_kinds(seed):
    """One cycle-free graph as float64 integers, as Python ints past the
    float64 bound, and as Fractions; every cycle keeps a weight >= 0."""
    g = negative_cycle_free(16, 0.25, -4, 12, seed=seed)
    return {"int": g,
            "big-int": build_graph(g.n, [(u, v, w * 2 ** 60 + 1) for (u, v, w) in g.edges]),
            "fraction": build_graph(g.n, [(u, v, Fraction(w, 3) + Fraction(1, 7))
                                          for (u, v, w) in g.edges])}


def _distances(g):
    """All-pairs distances in g's weight dtype, by the plain-loop reference steps."""
    rows = np.full((g.n, g.n), INF, dtype=g._in_arrays()[1].dtype)
    np.fill_diagonal(rows, 0)
    return relax_reference(g, rows, g.n)


@pytest.mark.parametrize("kind", ["int", "big-int", "fraction"])
def test_lift_from_kept_rows_equals_a_lift_from_scratch(kind):
    # The hierarchy keeps row 2h of every source the next level drops; a
    # lift started from those rows, or without them, must still give the
    # from-scratch rows, value and type, at every level.
    kept_levels = 0
    for seed in range(6):
        g = _exact_kinds(2000 + seed)[kind]
        assert (g._in_arrays()[1].dtype == object) == (kind != "int")
        kept = []
        hier = build_hub_hierarchy(g, 8, _kept=kept)
        assert len(kept) == hier.K
        dist = _distances(g)
        for k in range(hier.K):
            upper = sorted(hier.levels[k + 1])
            new = sorted(hier.levels[k] - hier.levels[k + 1])
            assert kept[k].shape == (len(new), g.n)
            want_from, want_to = _lift_from_scratch(g, new, upper, dist, 1 << k)
            assert_same_bytes(want_from, dist[new])
            for rows in (None, kept[k]):
                fwd, rev = lift_level(g, new, upper, *_seeds(dist, new, upper),
                                      1 << k, _kept=rows)
                assert_same_bytes(fwd, want_from)
                assert_same_bytes(rev, want_to)
            kept_levels += len(new) > 0
        for d in (1, 2, 4, 8, 16):
            res = apsp(g, d)
            assert_same_bytes(res.dist.values, dist)
            if kind == "int":
                assert np.array_equal(res.dist.values, floyd_warshall_oracle(g))
    assert kept_levels > 6


@pytest.mark.parametrize("kind", ["int", "big-int", "fraction"])
def test_apsp_reads_no_unwritten_row(poisoned_empty, kind):
    # apsp's forward and reverse matrices start unwritten: each level reads
    # its seeds only off rows that a level above it wrote, and the bottom
    # level, with every level above it, writes every row.
    for seed in range(3):
        g = _exact_kinds(2100 + seed)[kind]
        dist = _distances(g)
        for d in (1, 2, 4, 8, 16):
            assert_same_bytes(apsp(g, d).dist.values, dist)


def test_lift_rejects_a_hop_bound_below_one():
    # With h = 0 the lift ran one step and returned inf for dist(0, 2) = 2.
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    dist = floyd_warshall_oracle(g)
    seeds = _seeds(dist, [0], [3])
    assert lift_level(g, [0], [3], *seeds, 1)[0][0, 2] == 2
    for h in (0, -1):
        with pytest.raises(ValueError, match="hop bound must be at least 1"):
            lift_level(g, [0], [3], *seeds, h)


def test_lift_rejects_seed_blocks_of_the_wrong_shape():
    # Seeds are one row per new vertex and one column per vertex above;
    # the closed hub matrix of another vertex set does not fit.
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    closed = minplus_closure(build_hub_graph(g, (0, 2), 1)).values
    with pytest.raises(ValueError, match="seed block shape"):
        lift_level(g, [0, 1, 2], [0, 1, 2], closed, closed.T, 1)
    fwd, rev = _seeds(floyd_warshall_oracle(g), [0, 1], [2])
    with pytest.raises(ValueError, match=r"seed block shape \(1, 2\)"):
        lift_level(g, [0, 1], [2], fwd, rev.T, 1)


@pytest.mark.parametrize("H", [[-1, 0], [0, 3]])
def test_build_hub_graph_rejects_out_of_range_hubs(H):
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        build_hub_graph(g, H, 2)


@pytest.mark.parametrize("level", [[-1], [0, 3]])
def test_lift_level_rejects_out_of_range_vertices(level):
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    seeds = np.zeros((len(level), 1))
    with pytest.raises(ValueError, match="out of range"):
        lift_level(g, level, [1], seeds, seeds, 1)
    with pytest.raises(ValueError, match="out of range"):
        lift_level(g, [1], level, seeds.T, seeds.T, 1)


def test_lift_combines_aux_shortcut_with_real_edges():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    dist = floyd_warshall_oracle(g)
    fwd, rev = lift_level(g, [0], [2], *_seeds(dist, [0], [2]), 1)
    assert fwd.shape == rev.shape == (1, 4)
    assert fwd[0][3] == 3


def test_lift_isolated_source_row():
    g = build_graph(3, [(1, 2, 1)])
    dist = floyd_warshall_oracle(g)
    row = lift_level(g, [0], [2], *_seeds(dist, [0], [2]), 1)[0][0]
    assert row[0] == 0 and row[1] == INF and row[2] == INF


def test_apsp_on_directed_cycle():
    g = build_graph(4, [(i, (i + 1) % 4, 1) for i in range(4)])
    res = apsp(g, 2)
    assert isinstance(res, ApspResult)
    for i in range(4):
        for j in range(4):
            assert res.dist.entry(i, j) == (j - i) % 4


def test_apsp_d_one_degenerate_pipeline():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    res = apsp(g, 1)
    assert np.array_equal(res.dist.values, floyd_warshall_oracle(g))
    assert len(res.hierarchy.levels) == 1


def test_apsp_reads_d_as_an_integer():
    # d.bit_length() once raised AttributeError on a numpy int and on a float.
    g = negative_cycle_free(12, 0.3, -4, 12, seed=1090)
    want = apsp(g, 4)
    for d in (np.int64(4), np.int32(5)):
        got = apsp(g, d)
        assert np.array_equal(got.dist.values, want.dist.values)
        assert got.hierarchy == want.hierarchy and got.meter == want.meter
    for d in (4.0, np.float64(4)):
        with pytest.raises(TypeError):
            apsp(g, d)


def test_apsp_matches_oracle_across_d():
    for seed in range(15):
        g = negative_cycle_free(14, 0.25, -4, 12, seed=1100 + seed)
        want = floyd_warshall_oracle(g)
        outs = []
        for d in (1, 2, 4, 8):
            res = apsp(g, d)
            assert isinstance(res, ApspResult), (seed, d)
            assert np.array_equal(res.dist.values, want), (seed, d)
            outs.append(res.dist.values)
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)


def test_apsp_float_weights_within_rounding_bound_at_every_d():
    # A float shortest path sums at most n-1 weights, so its rounding error
    # is at most (n-1)^2 * 2^-53 * max|w|; the pipeline and the oracle may
    # round different equal-weight walks, hence the factor 2.
    n = 64
    for seed in range(3):
        base = ring_with_chords(n, 3 * n, seed=1500 + seed, chord_lo=1)
        rng = random.Random(seed)
        p = [rng.uniform(-50, 50) for _ in range(n)]
        g = build_graph(n, [(u, v, w + p[u] - p[v]) for (u, v, w) in base.edges])
        want = floyd_warshall_oracle(g)
        bound = 2 * (n - 1) ** 2 * 2.0 ** -53 * max(abs(w) for (_, _, w) in g.edges)
        for k in range(n.bit_length()):
            res = apsp(g, 1 << k)
            assert isinstance(res, ApspResult), (seed, k)
            assert np.abs(res.dist.values - want).max() <= bound, (seed, k)


def _float_ring(n, seed):
    """The reweighted float ring of the rounding-bound test above."""
    base = ring_with_chords(n, 3 * n, seed=1500 + seed, chord_lo=1)
    rng = random.Random(seed)
    p = [rng.uniform(-50, 50) for _ in range(n)]
    return build_graph(n, [(u, v, w + p[u] - p[v]) for (u, v, w) in base.edges])


def test_top_level_lift_starts_from_the_closed_matrix_alone():
    # The closed hub matrix seeds every top-level vertex in both directions,
    # so the forward rows add no reverse seed there.  On float ring 30 the
    # forward rows differ from the matrix in a last bit, so reverse rows
    # seeded from them would come out different.
    n = 64
    for seed in range(28, 32):
        g = _float_ring(n, seed)
        closed = minplus_closure(build_hub_graph(g, range(n), 1))
        fwd, rev = lift_level(g, range(n), range(n), closed.values, closed.values.T, 1)
        assert fwd.tobytes() == relax(g, closed.values, 3).tobytes()
        assert rev.tobytes() == relax(g.reverse(), closed.values.T, 3).tobytes()


FLOAT_ROW_PINS = {
    # At d=1 the only level is the top one, which starts from the closed
    # hub matrix alone.
    1: ["d4e22048e44c73a39e4f9575243163cd69812f47a954fd045f78b64965519dc9",
        "d5d7f87418f3d3be6198702af014e1d0969e2f423774616801a0679308338809",
        "8aaef51e27dff1cd03da2cb82e65f9540dec17960b6e7435a83c0d75fe394b07"],
    # Below the top level, rows also start from the kept rows and, in the
    # reverse pass, from the forward pass's rows.
    4: ["ab1e8a632e91f9b0991d7324bc11b2f60cf8d69ac42dbf2a300d0e4c0717e98f",
        "4dcafc7012b0b595f2f80aaf6a8857665473d0f6ad3fbddb826141efa257a45e",
        "5ebf93444c24876cbe0a45ff10e939f3888b0a9692db3d36a2a68c0e242c201e"],
    16: ["505edfbe44109d13164564001b2dd31c636ee366fa49e01ed77e2a4311caea1d",
         "2360fcc9f51b76b2d63a183a890aa7b6c7a46918be80ac2c1e973e30f8196f71",
         "d4340a98cc863f6824cedcba9c1d7fb01a9cfa9cf33cb85d9cf6cf56298fe7cd"],
    64: ["ac5025f3705d592111f70a8f8e43f9a14ad328bd0fdf3cdc5f2b29046e0923d9",
         "2360fcc9f51b76b2d63a183a890aa7b6c7a46918be80ac2c1e973e30f8196f71",
         "d4340a98cc863f6824cedcba9c1d7fb01a9cfa9cf33cb85d9cf6cf56298fe7cd"],
}


@pytest.mark.parametrize("d", sorted(FLOAT_ROW_PINS))
def test_apsp_float_rows_are_pinned(d):
    # Float distances at every level stay bit for bit as pinned here.
    for seed, pin in enumerate(FLOAT_ROW_PINS[d]):
        got = apsp(_float_ring(64, seed), d).dist.values
        assert hashlib.sha256(got.tobytes()).hexdigest() == pin, seed


def test_apsp_result_invariants():
    g = negative_cycle_free(12, 0.3, -4, 12, seed=1200)
    res = apsp(g, 4)
    vals = res.dist.values
    assert np.array_equal(np.diagonal(vals), np.zeros(g.n))
    for (u, v, w) in g.edges:
        assert vals[u, v] <= w
    # triangle inequality through every midpoint
    best = (vals[:, :, None] + vals[None, :, :]).min(axis=1)
    assert (vals <= best).all()


def test_apsp_negative_cycle_agreement():
    hits = 0
    for seed in range(25):
        g = random_digraph(10, 0.3, -5, 7, seed=1300 + seed)
        try:
            floyd_warshall_oracle(g)
            oracle_bad = False
        except NegativeCycleDetected:
            oracle_bad = True
        res = apsp(g, 4)
        assert isinstance(res, NegativeCycle) == oracle_bad, seed
        if oracle_bad:
            hits += 1
            total = sum(g.edges[e][2] for e in res.cycle.edges)
            assert total == res.weight and total < 0
    assert hits > 0


def test_apsp_meter_has_expected_phases():
    g = negative_cycle_free(12, 0.3, -4, 12, seed=1400)
    res = apsp(g, 4)
    names = {p.name for p in res.meter.phases}
    assert any(n.startswith("hierarchy") for n in names)
    assert "hub-graph" in names
    assert "closure" in names
    assert any(n.startswith("lift/level-") for n in names)
    assert res.meter.total_work > 0 and res.meter.total_depth > 0
