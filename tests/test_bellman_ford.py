import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hubapsp.bellman_ford import (
    LabelRun,
    NumberOps,
    _label_run,
    bf_run,
    bf_run_multi,
    bf_step,
    extract_minimal_path,
    relax,
)
from hubapsp.generate import (negative_cycle_free, random_digraph, random_timed,
                              ring_with_chords)
from hubapsp.graph import (INF, Digraph, build_graph, floyd_warshall_oracle,
                           hop_limited_oracle)
from hubapsp.hubs import NegativeCycle, shortest_negative_cycle
from hubapsp.minplus import ApspResult, apsp, build_hub_graph, lift_level
from hubapsp.parametric import TimedDigraph, _Resolver
from reference_engine import _run_multi_generic
from reference_step import bf_step_python, edge_tables

TRIANGLE = [(0, 1, 1), (1, 2, 1), (2, 0, -3)]
SCALE = 2 ** 60


def _scaled(g):
    """g with every integer weight times 2^60: exact only on object arrays."""
    return build_graph(g.n, [(u, v, w * SCALE) for (u, v, w) in g.edges])


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
    assert np.array_equal(edge_tables(single._run)[0], edge_tables(multi._run)[0])


def test_bf_run_multi_reverse_reads_into_distances():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    labs = bf_run_multi(g.reverse(), [2], 2)
    lab = labs[2]
    assert lab.labels[2][0] == 2
    assert lab.labels[2][1] == 1


def test_bf_run_multi_empty_sources():
    g = build_graph(3, TRIANGLE)
    assert bf_run_multi(g, [], 2) == {}


RING3 = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]


@pytest.mark.parametrize("sources", [[-1], [0, -1], [3], [0, 3]])
def test_label_runs_reject_out_of_range_sources(sources):
    # A negative id would index the last vertex's column, and n one past it.
    g = build_graph(3, RING3)
    with pytest.raises(ValueError, match="out of range"):
        bf_run_multi(g, sources, 2)
    with pytest.raises(ValueError, match="out of range"):
        _label_run(g, sources, 2, NumberOps())
    with pytest.raises(ValueError, match="out of range"):
        bf_run(g, sources[-1], 2)


def test_vertex_ids_must_be_integers():
    # A float id was once truncated: source 1.5 ran as source 1.
    g = build_graph(3, RING3)
    dist = floyd_warshall_oracle(g)
    seeds = dist[[0, 1], 2:], dist[2:, [0, 1]].T
    calls = [lambda vs: bf_run_multi(g, vs, 2),
             lambda vs: _label_run(g, vs, 2, NumberOps()),
             lambda vs: build_hub_graph(g, vs, 2),
             lambda vs: lift_level(g, vs, [2], *seeds, 1),
             lambda vs: lift_level(g, [0, 1], vs, *seeds, 1)]
    for call in calls:
        for vs in ([1.5], [0, 1.0], [np.float64(1)]):
            with pytest.raises(TypeError):
                call(vs)
    ids = np.array([1, 0], dtype=np.int64)
    assert bf_run_multi(g, ids, 2).sources == (0, 1)
    assert _label_run(g, ids, 2, NumberOps()).sources == (0, 1)
    assert build_hub_graph(g, ids, 2).index == (0, 1)
    assert np.array_equal(lift_level(g, ids, [2], *seeds, 1)[0], dist[[0, 1]])
    with pytest.raises(TypeError):
        bf_run(g, 1.5, 2)


def test_label_runs_reject_negative_step_counts():
    g = build_graph(3, RING3)
    with pytest.raises(ValueError, match="nonnegative"):
        bf_run_multi(g, [0], -1)
    with pytest.raises(ValueError, match="nonnegative"):
        _label_run(g, [0], -1, NumberOps())
    with pytest.raises(ValueError, match="nonnegative"):
        bf_run(g, 0, -1)


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
    e = int(edge_tables(lab._run)[0][1, 0, 3])
    assert e == 2
    assert g.edges[e][0] == 1


def test_generic_engine_matches_numpy():
    for seed in range(12):
        g = random_digraph(9, 0.35, -4, 8, seed=400 + seed)
        k = 5
        fast = bf_run_multi(g, range(g.n), k)
        slow = _label_run(g, list(range(g.n)), k, NumberOps())
        for s in range(g.n):
            assert np.array_equal(
                fast[s].labels, np.array(slow[s].labels, dtype=float))
        assert np.array_equal(edge_tables(fast)[0], edge_tables(slow)[0])


def test_generic_engine_exact_fractions():
    # build_graph coerces to float; the raw constructor keeps exact weights.
    from hubapsp.graph import Digraph
    g = Digraph(
        3, ((0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3))))
    lab = _label_run(g, [0], 2, NumberOps())[0]
    assert lab.labels[2][2] == Fraction(2, 3)


def test_runs_are_bit_identical():
    g = random_digraph(10, 0.3, -4, 8, seed=77)
    a = bf_run(g, 0, 6)
    b = bf_run(g, 0, 6)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(edge_tables(a._run)[0], edge_tables(b._run)[0])


def test_object_engine_is_the_float_engine_scaled():
    # Every label of the 2^60-scaled graph is 2^60 times the float label, as
    # a Python int; predecessors and closed walks are the same tables.
    for seed in range(8):
        g = random_digraph(9, 0.35, -4, 8, seed=700 + seed)
        small = bf_run_multi(g, range(g.n), 6)
        big = bf_run_multi(_scaled(g), range(g.n), 6)
        assert big.labels.dtype == object and big.closed.dtype == object
        for name in ("labels", "closed"):
            want = [x if x == INF else int(x) * SCALE
                    for x in getattr(small, name).ravel()]
            got = getattr(big, name).ravel().tolist()
            assert got == want, (seed, name)
            assert all(type(x) is int for x in got if x != INF)
        for a, b in zip(edge_tables(big), edge_tables(small)):
            assert np.array_equal(a, b)
        nxt, preds = bf_step(_scaled(g), big.labels[2, 0])
        assert nxt.tolist() == big.labels[3, 0].tolist()
        assert preds == bf_step(g, small.labels[2, 0])[1]


def test_relax_on_object_rows():
    g = random_digraph(8, 0.4, -3, 9, seed=5)
    rows = np.full((2, g.n), INF, dtype=object)
    rows[0, 0] = rows[1, 3] = 0
    got = relax(_scaled(g), rows, 5)
    want = relax(g, rows.astype(float), 5)
    assert got.dtype == object
    assert got.tolist() == [[x if x == INF else int(x) * SCALE for x in r]
                            for r in want]
    # A float start value would make every sum it enters a rounded float.
    with pytest.raises(ValueError, match="ints or inf"):
        relax(_scaled(g), rows.astype(float), 5)


def test_label_run_membership_reads_the_index(monkeypatch):
    # `in` must not build a HopLabels view per lookup, as Mapping's would.
    run = bf_run_multi(build_graph(3, TRIANGLE), [0, 2], 2)

    def no_view(self, s):
        raise AssertionError("membership built a view")

    monkeypatch.setattr(LabelRun, "__getitem__", no_view)
    assert 0 in run and 2 in run
    assert 1 not in run and 7 not in run


def _holds_no_edge_table(run):
    arrays = sorted(k for k, v in vars(run).items() if isinstance(v, np.ndarray))
    return arrays == ["closed", "labels"]


def test_hub_layer_never_builds_an_edge_table():
    # The walks look up the edges they follow from the label rows; a whole
    # predecessor table would cost a lookup per source, vertex and step, so
    # no run keeps one.
    rng = random.Random(3)
    p = [rng.randint(-50, 50) for _ in range(64)]
    g = build_graph(64, [(u, v, w + p[u] - p[v])
                         for (u, v, w) in ring_with_chords(64, 192, seed=5).edges])
    neg = build_graph(64, list(g.edges) + [(9, 0, -1000)])
    assert shortest_negative_cycle(g) is None
    assert isinstance(apsp(g, 32), ApspResult)
    cyc = shortest_negative_cycle(neg)
    assert cyc is not None and cyc.weight < 0
    assert isinstance(apsp(neg, 32), NegativeCycle)
    run = _label_run(g, range(0, 64, 2), 4)
    kept = run.select(range(0, 64, 6))
    resumed = _label_run(g, range(0, 64, 3), 8, resume=kept)
    for r in (run, kept, resumed):
        assert _holds_no_edge_table(r)
    # The ops engine keeps none either, and a single walk reads no table.
    small = random_digraph(9, 0.35, -2, 8, seed=41)
    run = _label_run(small, range(0, 9, 2), 3, NumberOps())
    kept = run.select(range(0, 9, 4))
    resumed = _label_run(small, range(0, 9, 3), 6, NumberOps(), kept)
    for r in (run, kept, resumed):
        assert _holds_no_edge_table(r)
        for s in r:
            lab = r[s]
            for h in range(1, r.steps + 1):
                for v in range(small.n):
                    if lab.labels[h][v] < lab.labels[h - 1][v]:
                        assert extract_minimal_path(lab, v, h).hops == h


ENGINES = {
    "numpy": lambda g, sources, k, resume=None: _label_run(
        g, sources, k, resume=resume),
    "object": lambda g, sources, k, resume=None: _label_run(
        g, sources, k, resume=resume),
    "fraction": lambda g, sources, k, resume=None: _label_run(
        g, sources, k, NumberOps(), resume),
    "reference": lambda g, sources, k, resume=None: _run_multi_generic(
        g, sources, k, NumberOps(), resume),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_resumed_run_equals_run_from_scratch(engine):
    # Resumed sources copy their first k steps and run the rest; the others
    # start from scratch.  The cases cover a resume over no sources, sources
    # the resume lacks, sources it holds that the run does not want, and a
    # run whose every source resumes.
    run = ENGINES[engine]
    rng = random.Random(17)
    cases = [([], [0, 1, 2]), ([0, 1, 2], [1, 2, 3, 4]), ([2, 5], [2, 5]),
             ([0, 3], [])]
    cases += [(rng.sample(range(7), rng.randint(0, 7)),
               rng.sample(range(7), rng.randint(0, 7))) for _ in range(6)]
    for seed, (first, then) in enumerate(cases):
        g = random_digraph(7, 0.35, -3, 9, seed=600 + seed)
        if engine in ("fraction", "reference"):
            g = Digraph(g.n, [(u, v, Fraction(w)) for (u, v, w) in g.edges])
        if engine == "object":
            g = _scaled(g)
        for k in (1, 2, 3):
            want = run(g, then, 2 * k)
            got = run(g, then, 2 * k, resume=run(g, first, k))
            assert got.sources == want.sources
            for name in ("labels", "closed"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(a, b), (seed, k, name)
            for a, b in zip(edge_tables(got), edge_tables(want)):
                assert a.shape == b.shape and np.array_equal(a, b), (seed, k)


class _Recording:
    """An ops domain that records every nonempty `cmp_batch` request."""

    def __init__(self, ops):
        self.ops = ops
        self.rounds = []

    def cmp_batch(self, a, b):
        if len(a):
            self.rounds.append(list(zip(a.tolist(), b.tolist())))
        return self.ops.cmp_batch(a, b)


def _same_rounds(g, sources, k, make_ops, first=(), k_first=0):
    """Check that `_label_run` and the plain-loop reference ask the same
    pairs in the same rounds and fill the same tables, in the dtype of the
    graph's weights; with ``first``, each resumes from its own k_first-step
    run over those sources.  Returns the number of rounds."""
    out = []
    for engine in (_label_run, _run_multi_generic):
        resume = engine(g, first, k_first, make_ops()) if len(first) else None
        ops = _Recording(make_ops())
        out.append((engine(g, sources, k, ops, resume), ops.rounds))
    (got, got_rounds), (want, want_rounds) = out
    assert got_rounds == want_rounds
    assert got.sources == want.sources and got.ran == want.ran
    for name in ("labels", "closed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == g._in_arrays()[1].dtype, name
        assert a.shape == b.shape, name
        assert a.tolist() == b.tolist(), name
    return len(got_rounds)


def test_label_run_asks_the_reference_rounds_on_affine_weights():
    # The ratio search's domain: every comparison with a breakpoint goes to
    # a resolver, which signs it at lam*.  Costs times 2^50+1 pack past the
    # float64 bound, so those runs hold Python ints on object tables.
    rounds = {np.dtype(np.float64): 0, np.dtype(object): 0}
    for seed, scale in itertools.product(range(6), (1, 2 ** 50 + 1)):
        tg = random_timed(8, 0.4, -4, 8, seed=3300 + seed)
        tg = TimedDigraph(Digraph(tg.base.n, [(u, v, w * scale)
                                              for (u, v, w) in tg.base.edges]),
                          tg.times)
        g = _Resolver(tg).graph

        def make_ops():
            return _Resolver(tg)

        rounds[g._in_arrays()[1].dtype] += (
            _same_rounds(g, range(g.n), 6, make_ops)
            + _same_rounds(g, range(0, g.n, 2), 6, make_ops,
                           first=range(0, g.n, 3), k_first=3))
    assert min(rounds.values()) >= 100


def test_label_run_asks_the_reference_rounds_on_fractions():
    # Halved small integers tie often, so the tie rule decides many rounds.
    for seed in range(8):
        base = random_digraph(8, 0.35, -3, 6, seed=700 + seed)
        g = Digraph(8, [(u, v, Fraction(w, 2)) for (u, v, w) in base.edges])
        assert _same_rounds(g, range(8), 5, NumberOps) > 0
        _same_rounds(g, [1, 4, 6], 6, NumberOps, first=[0, 4, 6, 7], k_first=2)
        _same_rounds(g, [1, 4], 4, NumberOps, first=range(8), k_first=2)
        _same_rounds(g, [2, 5], 3, NumberOps, first=[2], k_first=0)
        assert _same_rounds(g, [], 3, NumberOps) == 0
        assert _same_rounds(g, range(8), 0, NumberOps) == 0
    # Vertex 0 has no in-edge; parallel edges and a self-loop tie.
    g = Digraph(4, [(0, 1, Fraction(1)), (1, 2, Fraction(-1)), (1, 2, Fraction(-1)),
                    (2, 1, Fraction(2)), (1, 3, Fraction(1, 2)), (3, 1, Fraction(0)),
                    (1, 1, Fraction(3)), (3, 2, Fraction(-1, 2))])
    assert _same_rounds(g, range(4), 4, NumberOps) > 0
    assert _same_rounds(g, [0], 4, NumberOps, first=[0, 2], k_first=1) > 0


def test_numpy_engine_keeps_fraction_weights_exact():
    # Weights w/3 on the numpy engine stay Fractions on an object array, so
    # its labels, closed walks and edges are the exact ops engine's, and
    # apsp returns the exact distances at every depth.
    graphs = [random_digraph(8, 0.35, -4, 8, seed=900 + s) for s in range(10)]
    graphs += [negative_cycle_free(8, 0.35, -4, 8, seed=900 + s) for s in range(10)]
    exact = 0
    for seed, base in enumerate(graphs):
        g = Digraph(8, [(u, v, Fraction(w, 3)) for (u, v, w) in base.edges])
        fast = _label_run(g, range(8), 8)
        slow = _run_multi_generic(g, range(8), 8, NumberOps())
        assert fast.labels.dtype == object
        for name in ("labels", "closed"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.tolist() == b.tolist(), (seed, name)
        for a, b in zip(edge_tables(fast), edge_tables(slow)):
            assert a.tolist() == b.tolist(), seed
        assert not any(isinstance(x, float) for x in fast.labels.ravel() if x != INF)
        if shortest_negative_cycle(g) is None:
            for d in (1, 2, 4, 8):
                dist = apsp(g, d).dist.values
                assert dist.tolist() == slow.labels[7].tolist(), (seed, d)
            exact += 1
        else:
            assert isinstance(apsp(g, 8), NegativeCycle)
    assert exact >= 10


def test_exact_weights_refuse_floats():
    g = Digraph(2, [(0, 1, Fraction(1, 3)), (1, 0, 1)])
    with pytest.raises(ValueError, match="float weights"):
        Digraph(2, [(0, 1, Fraction(1, 3)), (1, 0, 0.5)])._in_arrays()
    with pytest.raises(ValueError, match="would round"):
        hop_limited_oracle(g, 1)
    rows = np.array([[0, INF]], dtype=object)
    assert relax(g, rows, 2).tolist() == [[0, Fraction(1, 3)]]
    with pytest.raises(ValueError, match="not floats"):
        relax(g, np.array([[0.5, INF]]), 1)


@pytest.mark.parametrize("w", [2 ** 60 + 1, Fraction(1, 3)])
def test_float_labels_are_refused_on_exact_graphs(w):
    # bf_step once took a float row on an exact graph and rounded the sum:
    # 0.0 + (2**60 + 1) came back as the float 2**60.
    g = build_graph(3, [(0, 1, w), (1, 2, 1), (2, 0, 1)])
    assert g._in_arrays()[1].dtype == object
    row = [0.0, INF, INF]
    for call in (lambda: bf_step(g, row), lambda: relax(g, [row], 1)):
        with pytest.raises(ValueError, match="ints or inf"):
            call()
    nxt, parents = bf_step(g, [0, INF, INF])
    assert nxt[1] == w and type(nxt[1]) is type(w) and parents[1] == 0
