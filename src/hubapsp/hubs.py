"""Hub-set hierarchies and hop-shortest negative cycle detection.

An h-hub set touches, for every ordered vertex pair whose hop-limited
distance strictly improves at hop h, at least one minimal exactly-h-hop
path between the pair.  Levels double h: greedily hitting the minimal
h-hop paths that start inside an h-hub set yields a 2h-hub set, and 2h
relaxation steps from the current level expose any negative cycle of at
most 2h hops before the next level is built.  Iterating to h >= n/2 makes
the sweep exhaustive, which is how `shortest_negative_cycle` works.

The hub layer works on the label engine's `LabelRun` tables: the sweep
reads one (2h, S) array of closed-walk values, `collect_minimal_paths`
walks back every improving pair at once into one (P, h+1) vertex array,
and `greedy_hitting_set` runs on a CSR path-vertex incidence with numpy
coverage counts.  Both go through `LabelRun.walk_back`, which asks
`LabelRun.edges` for the edge of each hop; no run keeps a predecessor
table, and the edges are found in the label rows, so a level pays for the
P*h edges its paths use, not for S*n per step.  Greedy and sampled levels
share the label run and the sweep; they differ only in how they pick the
next level.

A hub that survives into the next level would repeat there, row for row,
the 2h label steps it just ran.  So each level hands the next the slices of
its run for its surviving hubs only (a `_Carry`), the next run resumes them
from row 2h, and the meter charges each source the steps it actually runs.
When `minplus.apsp` asks, the carry also keeps row 2h of each hub the next
level drops: the all-pairs lift starts that vertex's forward row from it.

Everything here is deterministic: greedy choices break ties by smallest
vertex id, sweeps report the smallest qualifying hop count and then the
smallest hub vertex, the label engine is schedule-independent, and sampled
levels draw from an explicit seed.
"""
from __future__ import annotations

import math
import operator
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Collection, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import Digraph, Path, INF, _oracle_candidates, hop_limited_oracle
from .bellman_ford import LabelRun, _label_run, _less
from .meter import CostMeter


@dataclass(frozen=True)
class NegativeCycle:
    """A closed path witness; `hops` is minimal over all negative closed walks
    when produced by `shortest_negative_cycle`."""
    cycle: Path
    hops: int
    weight: object

    def __post_init__(self):
        if self.cycle.vertices[0] != self.cycle.vertices[-1]:
            raise ValueError("cycle must start and end at the same vertex")
        if self.hops != self.cycle.hops:
            raise ValueError("hop count disagrees with the path")


@dataclass(frozen=True)
class HubHierarchy:
    """Levels indexed by exponent: levels[k] is a 2^k-hub set, levels[0] = V."""
    levels: Tuple[FrozenSet[int], ...]
    provenance: str = "deterministic"
    seed: Optional[int] = None

    @property
    def K(self) -> int:
        return len(self.levels) - 1


def greedy_hitting_set(paths: Sequence[Collection[int]], n: int) -> set:
    """Pick max-coverage vertices (smallest id on ties) until every path is hit.

    ``paths`` is any sequence of vertex collections: sets, tuples, or the
    rows of a 2-D integer array such as `collect_minimal_paths` returns.
    Repeated vertices within one member count once.  The members become a
    deduplicated (path, vertex) incidence with a CSR index by vertex, built
    by one stable sort of the vertex ids held in the narrowest signed
    integer type that fits them: 8 or 16 bits up to 2^15 ids, which numpy
    sorts by radix, and 32 bits past that.  Coverage counts live in one
    array, each pick is its `argmax` (the first maximum, so the smallest
    id wins ties), and the newly hit paths' vertices are subtracted with
    one `bincount`.  The pad id keeps a column of the counts, which only
    falls, so it is never the maximum while a path is unhit, and the
    by-vertex offsets are a Python list: a pick takes no slice of the
    counts and indexes nothing with a numpy scalar.  It calls ``argmax``
    as an array method, past numpy's function wrapper, and gathers the hit
    rows with ``take``, which is faster than a fancy index on whole rows.

    Output size obeys ceil((n/s)*(ln k + 1)) for s = smallest set size and
    k = set count: each pick covers at least an s/n fraction of what is
    left, so k*(1-s/n)^i dips below 1 within that many picks.
    """
    k = len(paths)
    if k == 0:
        return set()
    if isinstance(paths, np.ndarray):
        rows = np.array(paths, dtype=np.int64)
        pad = int(rows.max(initial=-1)) + 1
    else:
        pad = 1 + max((v for p in paths for v in p), default=-1)
        width = max(map(len, paths))
        rows = np.array([list(p) + [pad] * (width - len(p)) for p in paths],
                        dtype=np.int64).reshape(k, width)
    rows.sort(axis=1)
    # One row per path, sorted, repeats replaced by the pad id, so every
    # real entry is one (path, vertex) incidence.
    dup = rows[:, 1:] == rows[:, :-1]
    rows[:, 1:][dup] = pad
    real = rows < pad
    sizes = real.sum(axis=1)
    if not sizes.all():
        raise ValueError(f"path set {int(np.argmin(sizes))} is empty")
    # Row-major order: each path's vertex ids in turn, ascending.
    vid = rows[real]
    pid = np.repeat(np.arange(k), sizes)
    # The narrowest signed type that holds every id: numpy sorts 8- and
    # 16-bit keys stably with a radix sort, wider ones with timsort, and
    # both orders are the one stable order.
    key = vid.astype(np.min_scalar_type(-pad))
    by_vertex = pid[np.argsort(key, kind="stable")]
    cover = np.bincount(vid, minlength=pad + 1)
    indptr = [0, *np.cumsum(cover[:pad]).tolist()]
    hit = np.zeros(k, dtype=bool)
    unhit = k
    chosen: set = set()
    while unhit > 0:
        best = int(cover.argmax())
        chosen.add(best)
        cand = by_vertex[indptr[best]:indptr[best + 1]]
        new = cand[~hit[cand]]
        if not len(new):
            # The best vertex still counts unhit paths, so the index and
            # the counts disagree; another pick would repeat this one.
            raise AssertionError("greedy pick hit no new path; its vertex index is inconsistent")
        hit[new] = True
        unhit -= len(new)
        cover -= np.bincount(rows.take(new, axis=0).ravel(), minlength=pad + 1)
    s_min = int(sizes.min())
    bound = math.ceil((n / s_min) * (math.log(k) + 1))
    assert len(chosen) <= bound, "greedy exceeded its coverage bound"
    return chosen


def sample_hubs(n: int, h: int, seed: int) -> FrozenSet[int]:
    """Uniform random vertex set of size min(n, ceil(4*(n/h)*ln(max(n,2)))).

    ``h`` is read with `operator.index`, as `apsp` reads d.
    """
    h = operator.index(h)
    if not (1 <= h <= n):
        raise ValueError(f"hop bound {h} outside 1..{n}")
    size = min(n, math.ceil(4.0 * (n / h) * math.log(max(n, 2))))
    rng = random.Random(seed)
    return frozenset(rng.sample(range(n), size))


def _first_crossing(vals: np.ndarray, zero: np.ndarray, ops,
                    nonstrict) -> Optional[Tuple[int, int]]:
    """(k, i) of the first value vals[k-1, i] past zero, by k then i, or None.

    Strict mode asks ``vals < zero``, nonstrict ``not zero < vals``, both
    through `_less`: a number run compares the whole table with the zero
    row at once, past the first crossing too, and an ops run each k's row
    in its own `cmp_batch`, in order, until one crosses.
    """
    def crossing(v):
        return ~_less(ops, zero, v) if nonstrict else _less(ops, v, zero)

    if ops is None:
        cross = crossing(vals)
        ks = np.flatnonzero(cross.any(axis=1))
        if not len(ks):
            return None
        k = int(ks[0]) + 1
        return k, int(np.flatnonzero(cross[k - 1])[0])
    for k, row in enumerate(vals, 1):
        hit = np.flatnonzero(crossing(row))
        if len(hit):
            return k, int(hit[0])
    return None


def _sweep_cycle(run: LabelRun, ops, nonstrict) -> Optional[NegativeCycle]:
    """Smallest k (then smallest hub) whose k-hop closed-walk value crosses zero.

    Both modes read the closed-walk candidates, whose entry at z is the
    best closed-walk value over 1..k hops, and the empty walk never shadows
    it; `_first_crossing` compares them with zero, strict mode asking < 0
    and nonstrict <= 0.  The label diagonal d_k(z) is min(0, those values),
    so in strict mode it would cross first at the same (k, z), with the
    same value.  The witness is `LabelRun.walk_back`'s closed walk: it ends
    with the edge of the closed-walk candidate ``closed[k-1]`` at z, and
    the walk back to that edge's tail is a chain of strict improvements
    because k is minimal.
    """
    src = np.asarray(run.sources, dtype=np.int64)
    # The empty walk's label at each source: the domain's zero.
    zero = run.labels[0, np.arange(len(src)), src]
    found = _first_crossing(run.closed, zero, ops, nonstrict)
    if found is None:
        return None
    k, i = found
    verts, edges = run.walk_back(k, [i])
    path = Path(tuple(verts[0].tolist()), run.closed[k - 1, i], k,
                tuple(edges[0].tolist()))
    return NegativeCycle(path, k, path.length)


def collect_minimal_paths(g: Digraph, H: Iterable[int], h: int,
                          *, ops=None, _labels=None) -> np.ndarray:
    """Every minimal exactly-h-hop path from a hub, as an int64 (P, h+1) array.

    Row i holds the vertices of one path, from its source hub to its
    target.  There is one row per improving pair (s, t) in sorted(H) x V,
    where the h-hop label of t strictly beats the (h-1)-hop one, in
    (source, target) order; each row is `extract_minimal_path`'s walk.  The
    two label rows are compared through `_less`, so an ops run signs all
    pairs in one `cmp_batch`, and all rows walk back h steps at once
    (`LabelRun.walk_back`), one `LabelRun.edges` lookup per hop.
    ``_labels``, a `LabelRun` of at least h steps such as `extend_hubs`
    makes, stands in for a run over H.
    """
    if h < 1:
        raise ValueError("hop count must be at least 1")
    run = _labels if _labels is not None else _label_run(g, H, h, ops)
    improving = _less(ops, run.labels[h], run.labels[h - 1])
    return run.walk_back(h, *np.nonzero(improving))[0]


class _Carry:
    """The label-run slices one hierarchy level hands the next.

    ``run`` holds, between levels, the rows of the hubs common to both.  A
    level's label run takes them over (`take`), and leaves its own full run
    here; the hierarchy cuts that down with `keep` before the next level.

    ``kept``, when it is a list, also gets one array per level from `keep`:
    the last label row (row 2h, the 2h-hop distances) of each source that
    the next level drops, in source order.  Those sources are exactly the
    new vertices that `minplus.apsp` lifts at that level, and
    `minplus.lift_level` starts their forward rows from these rows.
    """

    __slots__ = ("run", "kept")

    def __init__(self, kept: Optional[list] = None):
        self.run: Optional[LabelRun] = None
        self.kept = kept

    def take(self) -> Optional[LabelRun]:
        run, self.run = self.run, None
        return run

    def keep(self, level: FrozenSet[int]) -> None:
        run = self.run
        if self.kept is not None:
            gone = [i for i, s in enumerate(run.sources) if s not in level]
            self.kept.append(run.labels[-1, gone])
        self.run = run.select(level.intersection(run.sources))


def _sweep_level(g: Digraph, H: Iterable[int], h: int, ops,
                 meter: Optional[CostMeter], nonstrict: bool, carry: _Carry):
    """Run 2h label steps from every hub of H and sweep them for a cycle.

    Returns the run and the hop-shortest <=2h-hop cycle through a hub, or
    None.  Hubs that ``carry`` holds resume from its rows; the run then
    replaces them there.  The meter, when given, is charged the label steps
    each source ran and the sweep.
    """
    steps = 2 * h
    # The engine gets the carry's only reference, so it frees the carried
    # rows once it has copied them.
    run = _label_run(g, H, steps, ops, carry.take())
    carry.run = run
    if meter is not None:
        w, d = g._step_cost()
        meter.parallel_region([(s * w, s * d) for s in run.ran])
        meter.add(steps * len(run), steps)
    return run, _sweep_cycle(run, ops, nonstrict)


def extend_hubs(g: Digraph, H: Iterable[int], h: int, *, ops=None,
                meter: Optional[CostMeter] = None,
                nonstrict: bool = False,
                _carry: Optional[_Carry] = None,
                ) -> Union[FrozenSet[int], NegativeCycle]:
    """Turn an h-hub set into a 2h-hub set, or surface a <=2h-hop negative cycle.

    Runs 2h label steps from every hub.  The cycle sweep comes first: path
    collection is only guaranteed to produce simple paths when no negative
    cycle of at most h hops exists, and the sweep covering 2h hops restores
    that invariant for the next level.  The (P, h+1) path array from
    `collect_minimal_paths`, read off those same labels, goes to
    `greedy_hitting_set` as it is.  Callers must pass a genuine h-hub set;
    a violated precondition degrades hub quality undetectably.  ``_carry``
    is the hierarchy's `_Carry`, which `_sweep_level` resumes from.  The
    meter is charged the path walks as one parallel region of one h-hop
    walk per path, in one call: P*h work and depth h (0 with no paths).
    """
    if h < 1:
        raise ValueError("hop bound must be at least 1")
    run, cyc = _sweep_level(g, H, h, ops, meter, nonstrict, _carry or _Carry())
    if cyc is not None:
        return cyc
    paths = collect_minimal_paths(g, run.sources, h, ops=ops, _labels=run)
    if meter is not None:
        meter.add(len(paths) * h, h if len(paths) else 0)
    level = greedy_hitting_set(paths, g.n)
    if meter is not None:
        depth = math.ceil(math.log2(max(g.n, 2))) ** 2
        meter.record_modeled("hitting-set", len(paths) * h + g.n, depth)
    return frozenset(level)


def build_hub_hierarchy(g: Digraph, d: int, *, mode: str = "deterministic",
                        seed: Optional[int] = None, ops=None,
                        meter: Optional[CostMeter] = None,
                        nonstrict: bool = False,
                        _kept: Optional[list] = None,
                        ) -> Union[HubHierarchy, NegativeCycle]:
    """Grow hub levels for h = 1, 2, ..., d/2, doubling each time.

    Returns the hierarchy, or the hop-shortest negative cycle of at most d
    hops if one surfaces during a sweep.  Every level runs 2h label steps
    from the current hubs and sweeps them, inside the meter phase
    ``level-h``; then the deterministic mode hits the minimal h-hop paths
    greedily (`extend_hubs`), and the sampled mode draws the next level with
    `sample_hubs` (hop bound capped at n, per-level seeds derived from
    `seed`, which it requires; an empty graph has empty levels).  Sampled
    sweeps inherit only the sampled sets' high-probability hub quality.
    Hubs present at both levels resume their label runs from the level
    below (see `_Carry`).  ``_kept``, a list that `minplus.apsp` passes,
    gets level by level the row 2h of every source the next level drops
    (`_Carry.kept`), the lift's start rows.  ``d`` is read with
    `operator.index`, as vertex ids are, so a float raises TypeError.
    """
    d = operator.index(d)
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError(f"level count must be a positive power of two, got {d}")
    if mode not in ("deterministic", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    sampled = mode == "sampled"
    if sampled and seed is None:
        raise ValueError("sampled mode needs a seed")
    rng = random.Random(seed) if sampled else None
    levels: List[FrozenSet[int]] = [frozenset(range(g.n))]
    carry = _Carry(_kept)
    for k in range(d.bit_length() - 1):
        h = 1 << k
        with meter.phase(f"level-{h}") if meter is not None else nullcontext():
            if sampled:
                res = _sweep_level(g, levels[k], h, ops, meter, nonstrict, carry)[1]
                if res is None:
                    res = (sample_hubs(g.n, min(2 * h, g.n), rng.getrandbits(63))
                           if g.n else frozenset())
            else:
                res = extend_hubs(g, levels[k], h, ops=ops, meter=meter,
                                  nonstrict=nonstrict, _carry=carry)
        if isinstance(res, NegativeCycle):
            return res
        carry.keep(res)
        levels.append(res)
    return HubHierarchy(tuple(levels), mode, seed if sampled else None)


def shortest_negative_cycle(g: Digraph, *, nonstrict: bool = False, ops=None,
                            meter: Optional[CostMeter] = None,
                            ) -> Optional[NegativeCycle]:
    """Hop-minimal negative cycle, or None.

    Builds the hierarchy deep enough that sweeps cover every possible
    simple-cycle hop count (the smallest power of two >= max(2, n); the
    floor of 2 keeps single-vertex self loops inside the first sweep).
    With `nonstrict` the detector accepts weight <= 0 instead of < 0.
    """
    if g.n == 0:
        return None
    d = 1 << max(1, (g.n - 1).bit_length())
    res = build_hub_hierarchy(g, d, ops=ops, meter=meter, nonstrict=nonstrict)
    return res if isinstance(res, NegativeCycle) else None


def verify_hub_property(g: Digraph, H: Iterable[int], h: int) -> bool:
    """Test oracle: does every improving pair at hop h have a minimal
    exactly-h-hop path through H?

    Certified through a walk DP over (vertex, hops used, hub visited); with
    no negative cycles, an exactly-h-hop walk of weight equal to the
    improving hop-h distance cannot repeat a vertex, so DP equality is
    equivalent to the path statement on the instances this runs against.
    """
    if h < 1:
        raise ValueError("hop bound must be at least 1")
    hubs = g._vertex_set(H)
    n = g.n
    d_h = hop_limited_oracle(g, h)
    d_p = hop_limited_oracle(g, h - 1)
    improving = d_h < d_p
    if not improving.any():
        return True
    hubset = frozenset(hubs)
    hub_arr = np.array(hubs, dtype=np.int64)
    for u in np.nonzero(improving.any(axis=1))[0]:
        miss = np.full(n, INF)
        thru = np.full(n, INF)
        if u in hubset:
            thru[u] = 0.0
        else:
            miss[u] = 0.0
        for _ in range(h):
            n_miss = _oracle_candidates(g, miss)
            n_thru = _oracle_candidates(g, thru)
            if len(hub_arr):
                n_thru[hub_arr] = np.minimum(n_thru[hub_arr], n_miss[hub_arr])
                n_miss[hub_arr] = INF
            miss, thru = n_miss, n_thru
        row = improving[u]
        if not np.array_equal(thru[row], d_h[u][row]):
            return False
    return True
