"""Hub-set hierarchies and hop-shortest negative cycle detection.

An h-hub set touches, for every ordered vertex pair whose hop-limited
distance strictly improves at hop h, at least one minimal exactly-h-hop
path between the pair.  Levels double h: greedily hitting the minimal
h-hop paths that start inside an h-hub set yields a 2h-hub set, and 2h
relaxation steps from the current level expose any negative cycle of at
most 2h hops before the next level is built.  Iterating to h >= n/2 makes
the sweep exhaustive, which is how `shortest_negative_cycle` works.

The hub layer works on arrays: `collect_minimal_paths` walks the label
engine's predecessor tables back for every improving pair at once into one
(P, h+1) vertex array, and `greedy_hitting_set` runs on a CSR path-vertex
incidence with numpy coverage counts.

Everything here is deterministic: greedy choices break ties by smallest
vertex id, sweeps report the smallest qualifying hop count and then the
smallest hub vertex, and the label engine is schedule-independent.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Collection, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import Digraph, Path, INF, hop_limited_oracle
from .bellman_ford import (HopLabels, NumberOps, _bf_run_numpy_batch,
                           _run_multi_generic, extract_minimal_path)
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
    deduplicated (path, vertex) incidence with a CSR index by vertex;
    coverage counts live in one array, each pick is its `argmax` (the
    first maximum, so the smallest id wins ties), and the newly hit paths'
    vertices are subtracted with one `bincount`.

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
    pid, col = np.nonzero(real)
    vid = rows[pid, col]
    by_vertex = pid[np.argsort(vid, kind="stable")]
    cover = np.bincount(vid, minlength=pad)
    indptr = np.concatenate(([0], np.cumsum(cover)))
    hit = np.zeros(k, dtype=bool)
    unhit = k
    chosen: set = set()
    while unhit > 0:
        best = int(np.argmax(cover))
        chosen.add(best)
        cand = by_vertex[indptr[best]:indptr[best + 1]]
        new = cand[~hit[cand]]
        hit[new] = True
        unhit -= len(new)
        cover -= np.bincount(rows[new].ravel(), minlength=pad + 1)[:pad]
    s_min = int(sizes.min())
    bound = math.ceil((n / s_min) * (math.log(k) + 1))
    assert len(chosen) <= bound, "greedy exceeded its coverage bound"
    return chosen


def sample_hubs(n: int, h: int, seed: int) -> FrozenSet[int]:
    """Uniform random vertex set of size min(n, ceil(4*(n/h)*ln(max(n,2))))."""
    if not (1 <= h <= n):
        raise ValueError(f"hop bound {h} outside 1..{n}")
    size = min(n, math.ceil(4.0 * (n / h) * math.log(max(n, 2))))
    rng = random.Random(seed)
    return frozenset(rng.sample(range(n), size))


def _run_sources(g, sources, steps, ops, meter, want_relax):
    if ops is None:
        out = _bf_run_numpy_batch(g, sources, steps, collect_relax=want_relax)
        if meter is not None:
            w, d = g._step_cost()
            meter.parallel_region([(steps * w, steps * d)] * len(sources))
        return out
    return _run_multi_generic(g, sources, steps, ops)


def _sweep_cycle(labels, sources, steps, ops, nonstrict) -> Optional[NegativeCycle]:
    """Smallest k (then smallest hub) whose k-hop closed-walk value crosses zero.

    Strict mode reads the label diagonal d_k(z) < 0.  Nonstrict mode reads
    the pre-improvement relax row, whose entry at z is the best closed-walk
    value over 1..k hops, and accepts <= 0; the empty walk never shadows it.
    """
    zero = 0.0 if ops is None else ops.ZERO
    for k in range(1, steps + 1):
        vals = []
        for z in sources:
            lab = labels[z]
            vals.append(lab.relaxed[k - 1][z] if nonstrict else lab.labels[k][z])
        present = [(i, v) for i, v in enumerate(vals)
                   if not (ops is None and v == INF)]
        if not present:
            continue
        signs = (ops or NumberOps).cmp_batch([(v, zero) for _, v in present])
        for (i, value), sg in zip(present, signs):
            if sg < 0 or (nonstrict and sg == 0):
                z = sources[i]
                path = _extract_cycle(labels[z], z, k, value, nonstrict)
                return NegativeCycle(path, k, path.length)
    return None


def _extract_cycle(lab: HopLabels, z: int, k: int, value, nonstrict) -> Path:
    if not nonstrict:
        return extract_minimal_path(lab, z, k)
    # The closing edge comes from the relax row; the prefix to its tail is a
    # strict-improvement chain because k is minimal.
    e = int(lab.relax_edges[k - 1][z])
    if e < 0:
        raise AssertionError("relax row lost its attaining edge")
    u = lab.graph.edges[e][0]
    if k == 1:
        if u != z:
            raise AssertionError("one-hop closed walk must be a self loop")
        return Path((z, z), value, 1, (e,))
    prefix = extract_minimal_path(lab, u, k - 1)
    return Path(prefix.vertices + (z,), value, k, prefix.edges + (e,))


def collect_minimal_paths(g: Digraph, H: Iterable[int], h: int,
                          *, ops=None, _labels=None) -> np.ndarray:
    """Every minimal exactly-h-hop path from a hub, as an int64 (P, h+1) array.

    Row i holds the vertices of one path, from its source hub to its
    target.  There is one row per improving pair (s, t) in sorted(H) x V,
    where the h-hop label of t strictly beats the (h-1)-hop one, in
    (source, target) order; each row is `extract_minimal_path`'s walk.  The
    numpy engine compares its label table directly; an ops engine signs all
    pairs in one `cmp_batch`.  Both walk the predecessor edges back h
    steps for all rows at once.  ``_labels`` is a run of at least h steps
    over exactly sorted(set(H)), as `extend_hubs` makes one.
    """
    if h < 1:
        raise ValueError("hop count must be at least 1")
    sources = sorted(set(H))
    if not sources:
        return np.empty((0, h + 1), dtype=np.int64)
    labels = _labels if _labels is not None else _run_sources(
        g, sources, h, ops, None, want_relax=False)
    first = labels[sources[0]]
    if ops is None:
        # Each source's rows are views of the engine's (steps, S, n)
        # tables, sources in order; read those tables in place.
        table = first.labels.base
        preds = first.pred_edges.base
        if table is None or table.shape[1] != len(sources):
            raise ValueError("labels must come from one run over exactly these sources")
        improving = table[h] < table[h - 1]
    else:
        pairs = [(labels[s].labels[h][t], labels[s].labels[h - 1][t])
                 for s in sources for t in range(g.n)]
        signs = np.asarray(ops.cmp_batch(pairs), dtype=np.int64)
        improving = (signs < 0).reshape(len(sources), g.n)
        preds = np.asarray([labels[s].pred_edges[:h] for s in sources],
                           dtype=np.int64).swapaxes(0, 1)
    rows, cur = np.nonzero(improving)
    out = np.empty((len(cur), h + 1), dtype=np.int64)
    out[:, h] = cur
    edge_src = g._edge_src()
    for i in range(h, 0, -1):
        e = preds[i - 1, rows, cur]
        if (e < 0).any():
            raise AssertionError("predecessor chain broken; labels are inconsistent")
        cur = edge_src[e]
        out[:, i - 1] = cur
    if not np.array_equal(cur, np.asarray(sources, dtype=np.int64)[rows]):
        raise AssertionError("walk did not terminate at the source")
    return out


def extend_hubs(g: Digraph, H: Iterable[int], h: int, *, ops=None,
                meter: Optional[CostMeter] = None,
                nonstrict: bool = False) -> Union[FrozenSet[int], NegativeCycle]:
    """Turn an h-hub set into a 2h-hub set, or surface a <=2h-hop negative cycle.

    Runs 2h label steps from every hub.  The cycle sweep comes first: path
    collection is only guaranteed to produce simple paths when no negative
    cycle of at most h hops exists, and the sweep covering 2h hops restores
    that invariant for the next level.  The (P, h+1) path array from
    `collect_minimal_paths`, read off those same labels, goes to
    `greedy_hitting_set` as it is.  Callers must pass a genuine h-hub set;
    a violated precondition degrades hub quality undetectably.
    """
    if h < 1:
        raise ValueError("hop bound must be at least 1")
    sources = sorted(set(H))
    steps = 2 * h
    labels = _run_sources(g, sources, steps, ops, meter,
                          want_relax=nonstrict)
    cyc = _sweep_cycle(labels, sources, steps, ops, nonstrict)
    if meter is not None:
        meter.add(steps * len(sources), steps)
    if cyc is not None:
        return cyc
    paths = collect_minimal_paths(g, sources, h, ops=ops, _labels=labels)
    if meter is not None:
        meter.parallel_region([(h, h)] * len(paths))
    level = greedy_hitting_set(paths, g.n)
    if meter is not None:
        depth = math.ceil(math.log2(max(g.n, 2))) ** 2
        meter.record_modeled("hitting-set", len(paths) * h + g.n, depth)
    return frozenset(level)


def build_hub_hierarchy(g: Digraph, d: int, *, mode: str = "deterministic",
                        seed: Optional[int] = None, ops=None,
                        meter: Optional[CostMeter] = None,
                        nonstrict: bool = False,
                        ) -> Union[HubHierarchy, NegativeCycle]:
    """Grow hub levels for h = 1, 2, ..., d/2, doubling each time.

    Returns the hierarchy, or the hop-shortest negative cycle of at most d
    hops if one surfaces during a sweep.  Sampled mode draws each level
    with `sample_hubs` (per-level seeds derived from `seed`) instead of the
    greedy construction; its sweeps inherit only the sampled sets'
    high-probability hub quality.
    """
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError(f"level count must be a positive power of two, got {d}")
    if mode not in ("deterministic", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    K = d.bit_length() - 1
    levels: List[FrozenSet[int]] = [frozenset(range(g.n))]
    rng = random.Random(seed) if mode == "sampled" else None
    for k in range(K):
        h = 1 << k
        if mode == "deterministic":
            if meter is None:
                res = extend_hubs(g, levels[k], h, ops=ops, nonstrict=nonstrict)
            else:
                with meter.phase(f"level-{h}"):
                    res = extend_hubs(g, levels[k], h, ops=ops, meter=meter,
                                      nonstrict=nonstrict)
            if isinstance(res, NegativeCycle):
                return res
            levels.append(res)
        else:
            sources = sorted(levels[k])
            steps = 2 * h
            labels = _run_sources(g, sources, steps, ops, meter,
                                  want_relax=nonstrict)
            cyc = _sweep_cycle(labels, sources, steps, ops, nonstrict)
            if cyc is not None:
                return cyc
            levels.append(sample_hubs(g.n, 2 * h, rng.getrandbits(63)))
    if mode == "sampled":
        return HubHierarchy(tuple(levels), "sampled", seed)
    return HubHierarchy(tuple(levels))


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
    n = g.n
    d_h = hop_limited_oracle(g, h)
    d_p = hop_limited_oracle(g, h - 1)
    improving = d_h < d_p
    if not improving.any():
        return True
    hubset = frozenset(H)
    hub_arr = np.array(sorted(hubset), dtype=np.int64)
    src, w, eidx, seg_starts, dst_with_in, edge_seg = g._in_arrays()

    def exact_step(row):
        nxt = np.full(n, INF)
        if len(src):
            cand = row[src] + w
            nxt[dst_with_in] = np.minimum.reduceat(cand, seg_starts)
        return nxt

    for u in np.nonzero(improving.any(axis=1))[0]:
        miss = np.full(n, INF)
        thru = np.full(n, INF)
        if u in hubset:
            thru[u] = 0.0
        else:
            miss[u] = 0.0
        for _ in range(h):
            n_miss = exact_step(miss)
            n_thru = exact_step(thru)
            if len(hub_arr):
                n_thru[hub_arr] = np.minimum(n_thru[hub_arr], n_miss[hub_arr])
                n_miss[hub_arr] = INF
            miss, thru = n_miss, n_thru
        row = improving[u]
        if not np.array_equal(thru[row], d_h[u][row]):
            return False
    return True
