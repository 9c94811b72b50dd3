import math
from fractions import Fraction

import numpy as np
import pytest

from hubapsp.bellman_ford import (LabelRun, NumberOps, _label_run, bf_run_multi,
                                  extract_minimal_path)
from hubapsp.generate import (negative_cycle_free, random_digraph,
                              ring_with_chords, with_negative_cycle)
from hubapsp.graph import (INF, Digraph, build_graph, hop_limited_oracle,
                           negative_cycle_hops_oracle)
from hubapsp import bellman_ford
from hubapsp.hubs import (
    HubHierarchy,
    NegativeCycle,
    build_hub_hierarchy,
    collect_minimal_paths,
    extend_hubs,
    greedy_hitting_set,
    sample_hubs,
    shortest_negative_cycle,
    verify_hub_property,
)
from hubapsp.meter import CostMeter
from reference_engine import _run_multi_generic

TRIANGLE = [(0, 1, 1), (1, 2, 1), (2, 0, -3)]
RING3 = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]


@pytest.mark.parametrize("H", [[-1], [0, 3]])
def test_extend_hubs_rejects_out_of_range_hubs(H):
    g = build_graph(3, RING3)
    with pytest.raises(ValueError, match="out of range"):
        extend_hubs(g, H, 1)
    with pytest.raises(ValueError, match="out of range"):
        extend_hubs(g, H, 1, ops=NumberOps())


@pytest.mark.parametrize("H", [[-1], [0, 3]])
def test_collect_minimal_paths_rejects_out_of_range_hubs(H):
    g = build_graph(3, RING3)
    with pytest.raises(ValueError, match="out of range"):
        collect_minimal_paths(g, H, 1)
    with pytest.raises(ValueError, match="out of range"):
        collect_minimal_paths(g, H, 1, ops=NumberOps())


@pytest.mark.parametrize("H", [[-1], [0, 3]])
def test_verify_hub_property_rejects_out_of_range_hubs(H):
    g = build_graph(3, RING3)
    with pytest.raises(ValueError, match="out of range"):
        verify_hub_property(g, H, 1)


# ---------------------------------------------------------------- greedy

def test_greedy_picks_common_element():
    assert greedy_hitting_set([{1, 2, 3}, {3, 4, 5}], 6) == {3}


def test_greedy_empty_family():
    assert greedy_hitting_set([], 6) == set()


def test_greedy_disjoint_sets_need_one_each():
    chosen = greedy_hitting_set([{0, 1}, {2, 3}, {4, 5}], 6)
    assert len(chosen) == 3
    for s in ({0, 1}, {2, 3}, {4, 5}):
        assert chosen & s


def test_greedy_rejects_empty_member():
    with pytest.raises(ValueError):
        greedy_hitting_set([{1}, set()], 3)


def test_greedy_hits_and_respects_bound():
    import random
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(4, 30)
        k = rng.randint(1, 25)
        fam = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 5))))
               for _ in range(k)]
        chosen = greedy_hitting_set(fam, n)
        assert all(chosen & s for s in fam)
        smin = min(len(s) for s in fam)
        assert len(chosen) <= math.ceil((n / smin) * (math.log(k) + 1))


def test_greedy_fails_on_an_inconsistent_index(monkeypatch):
    # A sort key too narrow for the ids wraps those past 127, so the
    # by-vertex index files paths under the wrong vertices while the
    # coverage counts stay right.  A pick then hits no new path; without a
    # check the loop would pick that vertex forever.
    monkeypatch.setattr(np, "min_scalar_type", lambda x: np.dtype(np.int8))
    paths = np.array([[v, v + 100] for v in range(100)], dtype=np.int64)
    with pytest.raises(AssertionError, match="hit no new path"):
        greedy_hitting_set(paths, 200)


# ---------------------------------------------------------------- sampling

def test_sample_hubs_size_formula_small_for_large_h():
    H = sample_hubs(64, 64, seed=1)
    assert len(H) == min(64, math.ceil(4.0 * math.log(64)))


def test_sample_hubs_h1_caps_at_everything():
    assert sample_hubs(10, 1, seed=9) == frozenset(range(10))


def test_sample_hubs_deterministic_per_seed():
    assert sample_hubs(200, 100, seed=123) == sample_hubs(200, 100, seed=123)
    assert sample_hubs(200, 100, seed=123) != sample_hubs(200, 100, seed=124)


def test_sample_hubs_reads_h_as_an_integer():
    # A float hop bound once shrank the size formula silently: h = 2.5 on
    # 10 vertices gave all 10.
    assert sample_hubs(10, np.int64(5), seed=1) == sample_hubs(10, 5, seed=1)
    with pytest.raises(TypeError):
        sample_hubs(10, 2.5, 1)


# ---------------------------------------------------------------- collection

def _walk_weight(g, row):
    # Cheapest parallel arc per hop: the least weight of the vertex walk.
    return sum(min(w for (a, b, w) in g.edges if (a, b) == (u, v))
               for u, v in zip(row[:-1], row[1:]))


def test_collect_with_no_hubs():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    out = collect_minimal_paths(g, frozenset(), 2)
    assert out.shape == (0, 3) and out.dtype == np.int64


def test_collect_on_path_graph():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    paths = collect_minimal_paths(g, {0}, 2)
    assert paths.tolist() == [[0, 1, 2]]
    assert _walk_weight(g, paths[0]) == 2


def test_collect_matches_improvement_predicate():
    # A parallel arc and a self loop make the walk weight depend on which
    # arc each hop takes.
    g = build_graph(3, TRIANGLE + [(0, 1, 5), (1, 1, 2)])
    paths = collect_minimal_paths(g, {2, 0, 1}, 2)
    d2 = hop_limited_oracle(g, 2)
    d1 = hop_limited_oracle(g, 1)
    improving = [(s, t) for s in range(3) for t in range(3) if d2[s, t] < d1[s, t]]
    assert [(int(r[0]), int(r[-1])) for r in paths] == improving
    assert paths.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for row in paths.tolist():
        assert _walk_weight(g, row) == d2[row[0], row[-1]]


@pytest.mark.parametrize("ops", [None, NumberOps()], ids=["numpy", "fraction"])
def test_collect_rows_are_extracted_paths(hub_corpus, ops):
    checked = 0
    for idx, g in enumerate(hub_corpus):
        if ops is not None:
            g = Digraph(
                g.n, [(u, v, Fraction(w)) for (u, v, w) in g.edges])
        sources = list(range(g.n))
        labels = (bf_run_multi(g, sources, 4) if ops is None
                  else _run_multi_generic(g, sources, 4, ops))
        for h in range(1, 5):
            rows = collect_minimal_paths(g, sources, h, ops=ops)
            want = [extract_minimal_path(labels[s], t, h).vertices
                    for s in sources for t in range(g.n)
                    if labels[s].labels[h][t] < labels[s].labels[h - 1][t]]
            assert rows.shape == (len(want), h + 1), (idx, h)
            assert [tuple(r) for r in rows.tolist()] == want, (idx, h)
            checked += len(want)
    assert checked >= 1000


def test_walk_back_looks_up_each_entry_once(monkeypatch):
    # Minimal paths that converge share their (source, vertex) entry at a
    # hop; with enough paths the walk back asks for each distinct entry's
    # edge once.
    rng = np.random.default_rng(4)
    p = rng.integers(-20, 21, 96).tolist()
    g = build_graph(96, [(u, v, w + p[u] - p[v]) for (u, v, w)
                         in ring_with_chords(96, 288, seed=4).edges])
    asked = []
    real = LabelRun.edges

    def spy(self, i, at, ends=None):
        if ends is not None:
            asked.append(list(zip(np.asarray(at).tolist(), np.asarray(ends).tolist())))
        return real(self, i, at, ends)

    monkeypatch.setattr(LabelRun, "edges", spy)
    h = 8
    paths = collect_minimal_paths(g, range(g.n), h)
    assert len(paths) >= bellman_ford._DEDUP_ROWS
    assert all(len(set(pairs)) == len(pairs) for pairs in asked)
    # One lookup of the last hop for every path, then fewer for the rest.
    assert len(asked) == h and len(asked[0]) == len(paths)
    assert sum(map(len, asked[1:])) < (h - 1) * len(paths)
    # Each hop below h asks exactly its rows' distinct (source, vertex)
    # entries, in that order; sources are vertices 0..n-1, so a row's
    # source position is its first vertex.
    rows = paths.tolist()
    for i in range(h - 1, 0, -1):
        assert asked[h - i] == sorted({(r[0], r[i]) for r in rows})


def _reweighted_ring(kind, n=48, seed=5):
    """A ring with chords, reweighted by potentials, in one weight domain."""
    p = np.random.default_rng(seed).integers(-20, 21, n).tolist()
    scale = {"float": 0.25, "big": 2 ** 60, "fraction": Fraction(1, 3)}[kind]
    g = build_graph(n, [(u, v, (w + p[u] - p[v]) * scale) for (u, v, w)
                        in ring_with_chords(n, 3 * n, seed=seed).edges])
    assert (g._in_arrays()[1].dtype == object) == (kind != "float")
    return g


def _closed_walks(run, k):
    """Positions whose closed-walk candidate at k walks back to the source."""
    ok = []
    for i in np.flatnonzero(run.closed[k - 1] != INF).tolist():
        try:
            run.walk_back(k, [i])
        except AssertionError:
            continue
        ok.append(i)
    return ok


@pytest.mark.parametrize("kind", ["float", "big", "fraction"])
def test_walk_back_dedup_is_exact(monkeypatch, kind):
    # The walk back shares one lookup among the rows that meet at an entry
    # once it has `_DEDUP_ROWS` rows; with the dedup on every hop, on the
    # default rows, and on none, paths and closed walks come out the same.
    g = _reweighted_ring(kind)
    h = 4
    fresh = _label_run(g, range(g.n), 2 * h)
    resumed = _label_run(g, range(0, g.n, 2), 2 * h,
                         resume=_label_run(g, range(0, g.n, 3), h))
    default = bellman_ford._DEDUP_ROWS
    for run in (fresh, resumed):
        monkeypatch.setattr(bellman_ford, "_DEDUP_ROWS", 1 << 62)
        closed = {k: _closed_walks(run, k) for k in range(2, 2 * h + 1)}
        assert sum(map(len, closed.values())) >= 2 * h
        want = None
        for rows in (0, default, 1 << 62):
            monkeypatch.setattr(bellman_ford, "_DEDUP_ROWS", rows)
            got = ([collect_minimal_paths(g, run.sources, t, _labels=run)
                    for t in range(1, 2 * h + 1)],
                   [run.walk_back(k, at) for k, at in closed.items()])
            if want is None:
                want = got
                continue
            for a, b in zip(got[0], want[0]):
                assert np.array_equal(a, b)
            for (va, ea), (vb, eb) in zip(got[1], want[1]):
                assert np.array_equal(va, vb) and np.array_equal(ea, eb)
    assert len(collect_minimal_paths(g, fresh.sources, h, _labels=fresh)) >= default


# ---------------------------------------------------------------- extension

def test_extend_reports_smallest_negative_cycle():
    g = build_graph(2, [(0, 1, 1), (1, 0, -2)])
    res = extend_hubs(g, {0, 1}, 1)
    assert isinstance(res, NegativeCycle)
    assert res.hops == 2
    assert res.weight == -1


def test_extend_on_dag_path_hits_all_two_hop_paths():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    res = extend_hubs(g, {0, 1, 2, 3}, 1)
    assert isinstance(res, frozenset)
    assert len(res) <= 2
    for path_set in ({0, 1, 2}, {1, 2, 3}):
        assert res & path_set


def test_extend_vacuous_when_nothing_improves():
    # Single edge: every distance settles at one hop, so nothing improves
    # at hop 2 and the next level is empty, a vacuous 4-hub set.
    g = build_graph(2, [(0, 1, 1)])
    res = extend_hubs(g, {0, 1}, 2)
    assert res == frozenset()


# ---------------------------------------------------------------- hierarchy

def test_hierarchy_on_dag():
    g = build_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    hier = build_hub_hierarchy(g, 4)
    assert isinstance(hier, HubHierarchy)
    assert hier.levels[0] == frozenset(range(5))
    assert len(hier.levels) == 3
    for k, level in enumerate(hier.levels):
        assert verify_hub_property(g, level, 1 << k)


def test_hierarchy_surfaces_negative_cycle():
    res = build_hub_hierarchy(build_graph(3, TRIANGLE), 4)
    assert isinstance(res, NegativeCycle)
    assert res.hops == 3
    assert res.weight == -1


def test_hierarchy_levels_verified_on_random_instances():
    for seed in range(20):
        g = negative_cycle_free(16, 0.25, -4, 12, seed=700 + seed)
        hier = build_hub_hierarchy(g, 8)
        assert isinstance(hier, HubHierarchy)
        for k, level in enumerate(hier.levels):
            assert verify_hub_property(g, level, 1 << k), (seed, k)


def test_hierarchy_deterministic():
    g = negative_cycle_free(14, 0.3, -4, 12, seed=41)
    assert build_hub_hierarchy(g, 8) == build_hub_hierarchy(g, 8)


def test_hierarchy_reads_d_as_an_integer():
    g = negative_cycle_free(14, 0.3, -4, 12, seed=41)
    want = build_hub_hierarchy(g, 8)
    assert build_hub_hierarchy(g, np.int64(8)) == want
    assert build_hub_hierarchy(g, np.uint8(8), mode="sampled", seed=3) == \
        build_hub_hierarchy(g, 8, mode="sampled", seed=3)
    for d in (8.0, np.float64(8)):
        with pytest.raises(TypeError):
            build_hub_hierarchy(g, d)


def test_sampled_hierarchy_reproducible_and_tagged():
    g = negative_cycle_free(14, 0.3, -4, 12, seed=42)
    a = build_hub_hierarchy(g, 4, mode="sampled", seed=5)
    b = build_hub_hierarchy(g, 4, mode="sampled", seed=5)
    assert a == b
    assert a.provenance == "sampled" and a.seed == 5
    assert a.levels[0] == frozenset(range(g.n))


def test_sampled_hierarchy_still_detects_cycles():
    res = build_hub_hierarchy(build_graph(3, TRIANGLE), 4,
                              mode="sampled", seed=0)
    assert isinstance(res, NegativeCycle)


def test_sampled_hierarchy_accepts_d_beyond_n():
    # The last level's hop bound 2h = 8 exceeds n = 5; it is capped at n,
    # as deterministic mode builds the same d.
    g = build_graph(5, [(v, (v + 1) % 5, 1) for v in range(5)])
    assert len(build_hub_hierarchy(g, 8).levels) == 4
    hier = build_hub_hierarchy(g, 8, mode="sampled", seed=1)
    assert isinstance(hier, HubHierarchy) and len(hier.levels) == 4
    assert hier.levels[3] == frozenset(range(5))


@pytest.mark.parametrize("mode", ["deterministic", "sampled"])
def test_hierarchy_of_empty_graph_has_empty_levels(mode):
    hier = build_hub_hierarchy(build_graph(0, []), 2, mode=mode, seed=1)
    assert hier.levels == (frozenset(), frozenset())


def test_sampled_hierarchy_requires_seed():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="seed"):
        build_hub_hierarchy(g, 2, mode="sampled")


def test_sampled_levels_meter_label_runs_and_sweep():
    # At n = 64 the sampled sets shrink below V from hop bound 32 on.
    g = ring_with_chords(64, 192, seed=5)
    meter = CostMeter()
    hier = build_hub_hierarchy(g, 64, mode="sampled", seed=3, meter=meter)
    phases = {p.name: p for p in meter.report().phases}
    assert set(phases) == {f"level-{1 << k}" for k in range(hier.K)}
    sizes = set()
    for k in range(hier.K):
        h, L = 1 << k, len(hier.levels[k])
        sizes.add(L)
        # A hub of the level below too resumes its run there: h more steps.
        kept = len(hier.levels[k] & hier.levels[k - 1]) if k else 0
        steps = 2 * h * (L - kept) + h * kept
        work = steps * (g.m + g.n) + 2 * h * L
        assert phases[f"level-{h}"].work == work, h
    assert len(sizes) > 1


# ---------------------------------------------------------------- detection

def test_no_cycle_in_dag():
    g = build_graph(4, [(0, 1, -5), (1, 2, -5), (2, 3, -5)])
    assert shortest_negative_cycle(g) is None


def test_two_cycle_beats_triangle():
    edges = [(0, 1, 1), (1, 0, -2),
             (2, 3, 1), (3, 4, 1), (4, 2, -3)]
    cyc = shortest_negative_cycle(build_graph(5, edges))
    assert cyc.hops == 2
    assert cyc.weight == -1
    assert set(cyc.cycle.vertices) == {0, 1}


def test_hop_minimality_matches_oracle():
    for seed in range(25):
        g = with_negative_cycle(12, 0.25, -5, 7, seed=800 + seed)
        cyc = shortest_negative_cycle(g)
        assert cyc is not None
        assert cyc.hops == negative_cycle_hops_oracle(g), seed
        # witness checks: closed, simple, weight re-sums negative
        assert cyc.cycle.vertices[0] == cyc.cycle.vertices[-1]
        assert len(set(cyc.cycle.vertices[:-1])) == cyc.hops
        total = sum(g.edges[e][2] for e in cyc.cycle.edges)
        assert total == cyc.weight and total < 0


def test_self_loop_is_a_one_hop_cycle():
    g = build_graph(1, [(0, 0, -1)])
    cyc = shortest_negative_cycle(g)
    assert cyc.hops == 1
    assert cyc.cycle.vertices == (0, 0)


def test_nonstrict_mode_finds_zero_cycles():
    g = build_graph(2, [(0, 1, 1), (1, 0, -1)])
    assert shortest_negative_cycle(g) is None
    cyc = shortest_negative_cycle(g, nonstrict=True)
    assert cyc is not None
    assert cyc.hops == 2
    assert cyc.weight == 0


def test_nonstrict_self_loop_zero():
    g = build_graph(1, [(0, 0, 0)])
    cyc = shortest_negative_cycle(g, nonstrict=True)
    assert cyc.hops == 1 and cyc.weight == 0


# ---------------------------------------------------------------- verifier

def test_verify_full_vertex_set_always_true():
    for seed in range(5):
        g = random_digraph(8, 0.4, 0, 9, seed=seed)
        assert verify_hub_property(g, range(8), 3)


def test_verify_midpoint_on_path():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert verify_hub_property(g, {1}, 2)


def test_verify_empty_set_fails_on_path():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert not verify_hub_property(g, set(), 2)
