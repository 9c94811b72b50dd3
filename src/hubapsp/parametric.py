"""Minimum mean cycle and minimum cost-to-time ratio cycle.

Every edge carries a cost w(e) and a transit time t(e) > 0, and the target
is the cycle minimizing total cost over total time.  Substituting the edge
weights w(e) - lam * t(e) turns the question into negative-cycle detection:
some cycle beats lam exactly when the substituted graph has a negative
cycle.  Three routes to the optimum lam* are provided:

- `min_mean_cycle_karp`: Karp's rotation formula for unit times, used as an
  independent oracle.
- `min_ratio_binary_search`: bisection on lam, each step a yes/no
  `_negative_cycle_at` until the bracket pins an exact lam* by its
  denominator bound.
- `min_ratio_parametric`: runs the negative-cycle detector generically over
  affine weight functions lam -> b - lam * a, resolving each batch of
  comparisons at the still-unknown lam* through breakpoint bisection with
  `_negative_cycle_at` as the decision oracle.  The symbolic run is exact on
  integers: times are scaled by D_t and costs by D_c, the lcms of their
  denominators, once per instance (`TimedDigraph._scaled`), and each
  edge's pair is packed into one integer time*M + cost, so the run is an
  ordinary integer run of the label engine (`_Resolver`).  Each
  comparison's breakpoint is an integer pair (num, den), unpacked from a
  difference of two labels, and `_Resolver` decides a batch of them
  against the interval around lam* by cross-multiplication on whole
  arrays, of int64 below a bound on every product formed and of Python
  ints past it; only the distinct breakpoints the interval leaves
  undecided become Fractions.  So lam* is exact, and it is returned as a
  Fraction whenever every cost and time is a Fraction or an integral
  number (`_exact`, the one exactness rule, which Karp reads too), and as
  a float otherwise.

Every weighting the search runs on, each concrete probe's and the symbolic
run's, is `tg.base` reweighted (`Digraph._reweighted`): the arcs and their
sorted in-edge layout are the instance's own, and only the weight array is
new.  A concrete probe runs on `_probe_graph`'s.  At a rational lam, scaled
by D, the lcm of D_c and of lam's denominator times D_t, the reduced weights
D*(w - lam*t) are integers, formed from the scaled form, and the label
engine's numpy step decides them exactly, with the same tie-breaks as an
exact rational run: on float64 while the integers are small enough to add
exactly, and on Python ints in object arrays past that (bisection
probes on large costs, whose denominators double with every step, or
float costs with long binary expansions); `Digraph._in_arrays` picks the
dtype.  Every concrete probe decides one way, `_zero_row`: Bellman-Ford
from a virtual source, one zero row on the probe graph, stepped until it
settles, at most n steps.  A yes/no probe, every bisection step before
an exact lam* is pinned and every decision of the parametric search, is
`_negative_cycle_at`, that row alone, on one graph.  A
certificate (`evaluate_lambda`) returns the settled row as its prices, and
runs the hub hierarchy, for a hop-shortest cycle, only when the row moves.
The parametric search's witness is the cycle of its one symbolic run, whose
comparisons `_Resolver.cmp_batch` signs; that run alone takes the engine's
ops step, `_tournament`, so a parametric search runs the hub hierarchy once.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .bellman_ford import _attaining_edges, _min_in_edges
from .graph import INF, Digraph, Path, _read_number, build_graph, has_cycle
from .hubs import NegativeCycle, shortest_negative_cycle

Real = Union[int, float, Fraction]


class AcyclicGraphError(ValueError):
    """Raised by cycle-ratio queries on a graph with no directed cycle."""


def _scale(tg: TimedDigraph) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """(C, T, D_c, D_t): C = D_c*cost and T = D_t*time as object arrays of
    Python ints, D_c and D_t the lcms of the costs' and times' denominators.

    Each number's ``as_integer_ratio`` gives its (numerator, denominator);
    a cost is read by `graph._read_number` first, as a time already was,
    so a numpy scalar a `Digraph` was built with gives Python ints too.
    """
    ws = [_read_number(w, "weight").as_integer_ratio() for (_, _, w) in tg.base.edges]
    ts = [t.as_integer_ratio() for t in tg.times]
    d_c = math.lcm(*(q for _, q in ws))
    d_t = math.lcm(*(q for _, q in ts))
    ints = lambda xs, d: np.array([p * (d // q) for p, q in xs], dtype=object)
    return ints(ws, d_c), ints(ts, d_t), d_c, d_t


@dataclass(frozen=True)
class TimedDigraph:
    """Digraph whose edges each carry a transit time, read by
    `graph._read_number` as a weight is, and strictly positive."""

    base: Digraph
    times: Tuple[Real, ...]

    def __post_init__(self):
        times = tuple(_read_number(t, "time") for t in self.times)
        if len(times) != self.base.m:
            raise ValueError(f"{len(times)} times for {self.base.m} edges")
        if not all(t > 0 for t in times):
            raise ValueError(f"times must be > 0, got {min(times)!r}")
        object.__setattr__(self, "times", times)

    @cached_property
    def _scaled(self) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """The instance scaled to integers (`_scale`), formed on first use."""
        return _scale(self)


def build_timed_graph(n: int, items) -> TimedDigraph:
    """Build from (u, v, cost, time) tuples, validating as build_graph does.

    :raises ValueError: on an item that is not four values, and on
        anything `build_graph` or `TimedDigraph` refuses.
    """
    quads = []
    for i, item in enumerate(items):
        try:
            u, v, w, t = item
        except (TypeError, ValueError):
            raise ValueError(f"edge {i}: expected (u, v, cost, time), got {item!r}") from None
        quads.append((u, v, w, t))
    base = build_graph(n, [q[:3] for q in quads])
    return TimedDigraph(base, tuple(q[3] for q in quads))


@dataclass(frozen=True)
class Feasible:
    """No negative cycle at the probed lam; `price` certifies it edge-wise."""

    price: Tuple[Real, ...]


@dataclass(frozen=True)
class Infeasible:
    cycle: NegativeCycle


@dataclass(frozen=True)
class RatioAnswer:
    """lam*, a cycle attaining it, and prices proving no cycle does better.

    `oracle_calls` counts the distinct concrete decisions the search made,
    plus the final certificate; `breakpoints` counts the comparisons the
    search signed at lam*, its symbolic run's steps and sweeps.  Path
    collection signs none: it reads its improved pairs off the label rows
    (`hubs.collect_minimal_paths`).  Both are deterministic.
    """

    lambda_star: Real
    witness: Path
    certificate: Tuple[Real, ...]
    oracle_calls: int = 0
    breakpoints: int = 0


def _exact(x) -> bool:
    """A Fraction or an integral number: the one exactness rule."""
    if isinstance(x, (int, np.integer, Fraction)):
        return True
    return isinstance(x, float) and math.isfinite(x) and x.is_integer()


def _exact_instance(tg: TimedDigraph) -> bool:
    return (all(_exact(w) for (_, _, w) in tg.base.edges)
            and all(map(_exact, tg.times)))


def min_mean_cycle_karp(g: Digraph) -> Tuple[Real, Path]:
    """Karp's minimum mean cycle: lam* and a simple cycle attaining it.

    Uses the exactly-k walk table D_k(v) seeded with zeros at every vertex
    (equivalent to a virtual source with zero-weight edges to all of V), so
    D_k(v) is the cheapest k-edge walk ending at v from anywhere.  Then

        lam* = min over v with D_n(v) finite of max_k (D_n(v) - D_k(v))/(n - k).

    The witness is cut out of the n-edge walk attaining D_n at the argmin
    vertex, which `_attaining_edges` walks back one edge per row of D, so
    no parent table is kept.  Among the walk's repeated-vertex segments the
    witness is the (mean, hops, start)-lexicographic minimum, which is
    simple because an inner repeat would split it into a part at least as
    good with fewer hops.  Integer and Fraction weights give an exact
    Fraction, read off the exact table; a non-integral float weight gives
    a float.
    """
    n = g.n
    # Read the weights first: a graph they refuse is refused, cycle or not.
    dtype = g._in_arrays()[1].dtype
    if n == 0 or not has_cycle(g):
        raise AcyclicGraphError("minimum mean cycle needs a directed cycle")
    D = np.empty((n + 1, n), dtype=dtype)
    D[0] = 0
    for k in range(1, n + 1):
        D[k] = _min_in_edges(g, D[k - 1][None, :])[0]

    cols = np.flatnonzero(D[n] < INF)
    if not len(cols):
        raise AssertionError("a cycle exists but no n-edge walk was found")
    diff = D[n, cols] - D[:n, cols]
    den = (n - np.arange(n))[:, None]
    if D.dtype == object:
        # Python ints that float64 would round, or Fractions: divide exactly.
        quot = np.frompyfunc(Fraction, 2, 1)(diff, den.astype(object))
    else:
        quot = diff / den
    lam_rows = quot.max(axis=0)
    least = lam_rows.min()

    exact = all(_exact(w) for (_, _, w) in g.edges)
    if exact:
        # Rounded division and max are monotone, so the exact minimiser is
        # among the vertices whose rounded value is least; only those are
        # read as Fractions, and the first exact minimum wins.
        lam, v_star = min(
            (max(Fraction(D[n, v] - D[k, v]) / (n - k) for k in range(n)), int(v))
            for v in cols[lam_rows == least])
    else:
        lam, v_star = float(least), int(cols[np.argmin(lam_rows)])

    walk_v = [0] * (n + 1)
    walk_e = [0] * n
    cur = v_star
    walk_v[n] = cur
    for k in range(n, 0, -1):
        e = int(_attaining_edges(g, D[k - 1][None, :], [0], [cur], D[k][[cur]])[0])
        if e < 0:
            raise AssertionError("parent chain broken below a finite D_n entry")
        walk_e[k - 1] = e
        cur = g.edges[e][0]
        walk_v[k - 1] = cur

    prefix = [0] * (n + 1)
    for i, e in enumerate(walk_e):
        prefix[i + 1] = prefix[i] + _read_number(g.edges[e][2], "weight")

    seen: Dict[int, List[int]] = {}
    best_key = None
    best_ij = None
    for j, vtx in enumerate(walk_v):
        for i in seen.get(vtx, ()):
            hops = j - i
            wt = prefix[j] - prefix[i]
            mean = Fraction(wt) / hops if exact else wt / hops
            key = (mean, hops, i)
            if best_key is None or key < best_key:
                best_key, best_ij = key, (i, j)
        seen.setdefault(vtx, []).append(j)
    if best_ij is None:
        raise AssertionError("an (n+1)-vertex walk must repeat a vertex")
    i, j = best_ij
    if exact and best_key[0] != lam:
        raise AssertionError("extracted cycle mean disagrees with Karp's formula")
    cycle = Path(tuple(walk_v[i:j + 1]), prefix[j] - prefix[i], j - i,
                 tuple(walk_e[i:j]))
    return lam, cycle


def _zero_row(g: Digraph) -> Tuple[np.ndarray, bool]:
    """(row, settled): Bellman-Ford from a virtual super-source over
    zero-weight edges, and whether g has no negative cycle.

    That source's row is 0 everywhere after one step, so its labels are a
    zero row stepped on g itself, in the dtype `Digraph._in_arrays` picks
    for the weights (the int 0 on an object array).  Each step takes the
    kernel's candidates (`_min_in_edges`) where they lie strictly below
    the row.  The row settles at the first step with no such candidate,
    which comes within n steps exactly when no cycle of g is negative; a
    row that still moves at step n is returned as the n-1 steps left it.
    A zero candidate is +0.0 and the row starts at +0.0, so a step that
    finds nothing strictly below changes no bit, and on an object row no
    tie replaces a value by an equal one of another type.
    """
    n = g.n
    row = np.zeros((1, n), dtype=g._in_arrays()[1].dtype)
    for step in range(n):
        new = _min_in_edges(g, row)
        below = new < row
        if not below.any():
            return row, True
        if step < n - 1:
            row = np.where(below, new, row)
    return row, not n


def _probe_graph(tg: TimedDigraph, lam: Real, nonstrict: bool = False):
    """(g, back): `tg.base` reweighted for a probe at lam, and the map of
    g's numbers back to reduced weights w - lam*t.

    lam is read by `graph._read_number`, so a numpy float32 or float16 is
    widened to a Python float first.  A rational lam = p/q (`_exact`) gives
    C*(D/D_c) - p*(D/(q*D_t))*T = D*(w - lam*t) on the scaled instance
    (`_scale`), mapped back over D to Fractions; a float one gives w - lam*t.
    `nonstrict`, for a yes/no decision alone, then puts (n+1)*x - 1 in place
    of each integer x, as `_negative_cycle_at` explains.
    """
    lam = _read_number(lam, "lam")
    if _exact(lam):
        c, t, d_c, d_t = tg._scaled
        p, q = Fraction(lam).as_integer_ratio()
        big_d = math.lcm(d_c, q * d_t)
        ws = c * (big_d // d_c) - t * (p * (big_d // (q * d_t)))
        if nonstrict:
            ws = (tg.base.n + 1) * ws - 1
        back = lambda x: Fraction(int(x), big_d)
    elif nonstrict:
        raise ValueError("a nonstrict decision needs a rational lam")
    else:
        ws = [w - lam * t for (_, _, w), t in zip(tg.base.edges, tg.times)]
        back = float
    return tg.base._reweighted(ws), back


def _negative_cycle_at(tg: TimedDigraph, lam: Real,
                       nonstrict: bool = False) -> bool:
    """Whether some cycle's reduced weight w - lam*t is < 0 (<= 0 when
    `nonstrict`): one `_zero_row` on `_probe_graph`'s graph, no hierarchy.

    `nonstrict` needs a rational lam.  It runs on the weights (n+1)*x - 1
    of the scaled integers x: a cycle of k <= n arcs and integer weight W
    weighs (n+1)*W - k there, which is < 0 exactly when W <= 0.
    """
    return not _zero_row(_probe_graph(tg, lam, nonstrict)[0])[1]


def evaluate_lambda(tg: TimedDigraph, lam: Real):
    """Probe one lam: Infeasible(cycle) when some cycle ratio beats lam,
    else Feasible(price) with w(e) - lam*t(e) + p(u) - p(v) >= 0 on every edge.

    One `_zero_row` on `_probe_graph`'s graph decides, as every yes/no
    probe does, and a settled row is the prices, mapped back.  Only a row
    that moves runs the hub hierarchy, for the hop-shortest cycle whose
    weight is < 0, with its weight mapped back.  Exact when lam is a
    Fraction or an integral number (costs and times convert exactly
    whatever their type); on any other float the probe runs in float64 and
    the decision is the zero row's, as in bisection, so a cycle whose
    reduced weight is within rounding of zero may be decided either way.
    :raises ValueError: on a lam `graph._read_number` refuses, or one so
    large that the probe weights pass the float range
    (`graph.Digraph._in_arrays`).
    """
    g, back = _probe_graph(tg, lam)
    row, settled = _zero_row(g)
    if settled:
        return Feasible(tuple(back(x) for x in row[0]))
    cyc = shortest_negative_cycle(g)
    if cyc is None:
        raise AssertionError("prices not converged despite no negative cycle")
    weight = back(cyc.weight)
    path = cyc.cycle
    return Infeasible(NegativeCycle(
        Path(path.vertices, weight, path.hops, path.edges), cyc.hops, weight))


def _ratio_bounds(tg: TimedDigraph, exact: bool) -> Tuple[Real, Real]:
    """The least and the largest edge cost/time ratio.

    On the scaled instance (`_scale`) every ratio is C_e*D_t / (T_e*D_c),
    whose common factor D_t/D_c > 0 leaves the order of C_e/T_e, so the
    extremes are found by integer cross products and only they become
    Fractions.
    """
    if not exact:
        ratios = [w / t for (_, _, w), t in zip(tg.base.edges, tg.times)]
        return min(ratios), max(ratios)
    c, t, d_c, d_t = tg._scaled
    pairs = list(zip(c.tolist(), t.tolist()))
    lo = hi = pairs[0]
    for ce, te in pairs[1:]:
        if ce * lo[1] < lo[0] * te:
            lo = (ce, te)
        if ce * hi[1] > hi[0] * te:
            hi = (ce, te)
    return Fraction(lo[0] * d_t, lo[1] * d_c), Fraction(hi[0] * d_t, hi[1] * d_c)


def min_ratio_binary_search(tg: TimedDigraph, iterations: int,
                            *, _trace: Optional[list] = None):
    """Bisection bracket for lam*, halving `iterations` times.

    The initial interval spans the edge cost/time ratios; any cycle ratio is
    a time-weighted mean of its edge ratios, so lam* starts inside.  Each
    step asks whether some cycle beats the midpoint, that is whether
    lam* < mid; if one does, lam* lies left of it.

    Exact instances (`_exact_instance`) bisect over exact Fractions, and
    the bracket holds lam*.  On the scaled instance (`_scale`) lam* is
    (D_t/D_c)*C/T for a simple cycle of total scaled cost C and time
    0 < T <= Tbar, the sum of the n largest scaled times.  Two distinct
    fractions with denominators at most Tbar lie at least 1/Tbar^2 apart,
    so once the scaled bracket (D_c/D_t)*[lo, hi] is narrower than that,
    lam* is the one such fraction in it, and the nearest one to the
    midpoint: `Fraction.limit_denominator(Tbar)` of the scaled midpoint,
    scaled back (C. H. Papadimitriou, "Efficient search for rationals",
    IPL 1979).  Steps up to that one each ask `_negative_cycle_at`; every
    later step compares the pinned lam* with its midpoint, so the bracket
    after each step is the one a probe would give.

    Other instances bisect in float64 and probe every step, since a float
    has no denominator bound.  A cycle whose reduced weight is within
    rounding of zero may be decided either way there: the final bracket
    then lies within 2^-50 times the initial span of lam*.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not has_cycle(tg.base):
        raise AcyclicGraphError("ratio search needs a directed cycle")
    exact = _exact_instance(tg)
    lo, hi = _ratio_bounds(tg, exact)
    gap = lam = None
    if exact:
        _, t, d_c, d_t = tg._scaled
        t_bar = sum(heapq.nlargest(tg.base.n, t.tolist()))
        gap = Fraction(d_t, d_c * t_bar * t_bar)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if lam is None and gap is not None and hi - lo < gap:
            lam = (mid * d_c / d_t).limit_denominator(t_bar) * d_t / d_c
            if not lo <= lam <= hi:
                raise AssertionError("the pinned lam* lies outside the bracket")
        if _negative_cycle_at(tg, mid) if lam is None else lam < mid:
            hi = mid
        else:
            lo = mid
        if _trace is not None:
            _trace.append((lo, hi))
    return lo, hi


_to_int = np.frompyfunc(int, 1, 1)

# Breakpoint arithmetic runs on int64 below this bound (`_Resolver`).
_INT64_LIMIT = 2 ** 63


class _Resolver:
    """The symbolic run's weight domain: packed affine values signed at lam*.

    Each edge's affine weight lam -> C - lam*T, with T = D_t*time and
    C = D_c*cost the instance's scaled form (`TimedDigraph._scaled`), is
    packed into the one integer T*M + C of ``graph``, with
    M = 8*n*max|C| + 1.  So the symbolic run is an ordinary integer run:
    `Digraph._in_arrays` holds it in float64, or in Python ints past its
    bound, and the label engine adds, stores, equates and looks up its
    labels as it does distances.  Every value the run forms, compares or
    returns is a walk of at most 2n hops (`shortest_negative_cycle` steps
    at most its depth, the least power of two >= max(2, n)), whose a lies
    in 0..2n*max T and whose b lies within 2n*max|C|, so a difference of
    two has |a| <= 2n*max T and |b| <= 4n*max|C| < M/2, and `unpack` reads
    (a, b) back from it exactly; two values are equal exactly when their
    pairs are.  On float64 such a difference stays below 3n times the
    largest weight, so it is exact too.  Only the order of the labels goes
    through `cmp_batch`, which turns each comparison into a breakpoint for
    `resolve`.

    Holds an interval known to contain lam* with per-end exclusivity flags,
    and the memoized concrete decisions on the reduced graph at x
    (`decide`): strict (is lam* < x) and nonstrict (is lam* <= x).  A batch
    of breakpoints x = num/den, den > 0, in two arrays of ``dtype``, is
    decided against the interval by cross-multiplying with the ends'
    numerators and denominators (`_interval_sign`); only the undecided
    ones are reduced, deduplicated and made Fractions.  Those are sorted
    and split by bisection on strict decisions, then at most one nonstrict
    one separates "equal to lam*" from "below", so a batch of p costs
    O(log p) decisions.  Each decision is a rational `_negative_cycle_at`
    call: scaled integers on the numpy engine, in float64 or in Python
    ints.  `oracle_calls` counts the distinct decisions, and `breakpoints`
    the comparisons `resolve` signed.

    No breakpoint outlives its batch: of all the points a search meets,
    the two initial edge ratios and every breakpoint, only the interval's
    ends can lie in it.  A decided breakpoint lies outside the interval or
    on one of its ends.  Every undecided one lies in [lo, hi], and
    `_shrink` then moves hi to the least of them above lam*, and lo to the
    greatest at or below lam*, or closes the interval on that one.  So
    each ends outside the new interval or on one of its ends, and the
    interval only shrinks after that.

    ``dtype``, chosen once per instance as `Digraph._in_arrays` chooses
    float64 or object, is int64 when B = 16*n^2*max(max|C|, 1)*max T*D_t*D_c
    is below 2^63, and object (Python ints) otherwise.  numpy's int64
    arithmetic wraps silently on overflow, so B carries the correctness:
    every integer formed on int64 arrays lies within B.

    - A breakpoint is (db*D_t, da*D_c) up to sign, with |db| <= 4n*max|C|
      and |da| <= 2n*max T as above, so |num| <= 4n*max|C|*D_t and
      den <= 2n*max T*D_c.  Each is at most B, since max T, D_c and D_t
      are at least 1 (max(max|C|, 1) covers den when every cost is 0).
    - An end of the interval is an edge ratio C_e*D_t / (T_e*D_c) or a
      breakpoint, as a reduced Fraction, so its numerator and denominator
      obey the same two bounds.
    - So each of num*end.denominator and den*end.numerator lies within
      8n^2*max|C|*max T*D_t*D_c, and their difference within B.
    """

    def __init__(self, tg: TimedDigraph, trace: Optional[list] = None):
        self.tg = tg
        c, t, self.d_c, self.d_t = tg._scaled
        n = tg.base.n
        big_c = max(map(abs, c), default=0)
        self.radix = 8 * n * big_c + 1
        bound = 16 * n * n * max(big_c, 1) * max(t, default=1) * self.d_t * self.d_c
        self.dtype = np.dtype(np.int64 if bound < _INT64_LIMIT else object)
        self.graph = tg.base._reweighted(t * self.radix + c)
        self.lo, self.hi = _ratio_bounds(tg, True)
        self.lo_excl = False
        self.hi_excl = False
        self._decided: Dict[Tuple[Fraction, bool], bool] = {}
        self.oracle_calls = 0
        self.breakpoints = 0
        self.trace = trace
        self._snap()

    def _snap(self):
        if self.trace is not None:
            self.trace.append((self.lo, self.hi))

    def unpack(self, x):
        """(a, b) with x = a*M + b and |b| < M/2, elementwise, in ``dtype``;
        a scalar x gives Python ints.  Formed in x's own dtype: exact on
        Python ints, and on float64 integers below 2^53, whose results
        go to int64 as they are."""
        half = self.radix // 2
        b = (x + half) % self.radix - half
        a = (x - b) // self.radix
        if not isinstance(x, np.ndarray):
            return int(a), int(b)
        if self.dtype == object:
            return _to_int(a), _to_int(b)
        return a.astype(np.int64), b.astype(np.int64)

    def cmp_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Signs at lam* of x - y, elementwise, for packed values; x is finite.

        An infinite y gives -1, and equal times the sign of the cost
        difference.  Otherwise x - y unpacks to (da, db) in ``dtype``, and
        unscaled the two values differ by db/D_c - lam*da/D_t, which crosses
        zero at the breakpoint (db*D_t)/(da*D_c): kept with den > 0, the
        numerators and the denominators go to `resolve` as two arrays.  The
        sign of x - y is sign(da) times its sign against lam*.
        """
        out = np.full(len(x), -1, dtype=np.int64)
        at = np.flatnonzero(y != INF)
        da, db = self.unpack(x[at] - y[at])
        flat = da == 0
        out[at[flat]] = np.sign(db[flat])
        at, da, db = at[~flat], da[~flat], db[~flat]
        if len(at):
            up = np.where(da > 0, 1, -1)
            out[at] = up * self.resolve(db * up * self.d_t, da * up * self.d_c)
        return out

    def decide(self, x: Fraction, nonstrict: bool) -> bool:
        key = (x, nonstrict)
        if key not in self._decided:
            self._decided[key] = _negative_cycle_at(self.tg, x, nonstrict)
            self.oracle_calls += 1
        return self._decided[key]

    def _interval_sign(self, num: np.ndarray, den: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(signs, undecided): the signs of num/den - lam*, den > 0, that the
        interval decides, elementwise, and the mask of the rest (sign 0)."""
        lo, hi = self.lo, self.hi
        below = num * lo.denominator - den * lo.numerator
        above = num * hi.denominator - den * hi.numerator
        low, high = below < 0, above > 0
        if lo != hi:
            low |= (below == 0) & self.lo_excl
            high |= (above == 0) & self.hi_excl
        return high.astype(np.int64) - low, ~(low | high) & (lo != hi)

    def resolve(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Signs of x - lam* for the breakpoints x = num/den, den > 0, two
        arrays of ``dtype``, shrinking the interval."""
        self.breakpoints += len(num)
        signs, undecided = self._interval_sign(num, den)
        if undecided.any():
            num, den = num[undecided], den[undecided]
            g = np.gcd(num, den)
            pending = sorted(Fraction(p, q) for p, q in
                             set(zip((num // g).tolist(), (den // g).tolist())))
            self._shrink(pending)
            signs[undecided], still = self._interval_sign(num, den)
            if still.any():
                raise AssertionError("interval failed to separate a breakpoint")
        return signs

    def _shrink(self, xs: List[Fraction]) -> None:
        # Least index whose strict test succeeds; everything at or past it
        # sits strictly above lam*.
        i = bisect.bisect_left(xs, True, key=lambda x: self.decide(x, False))
        if i < len(xs):
            self.hi = xs[i]
            self.hi_excl = True
        if i > 0:
            # Largest non-strict breakpoint: equal to lam* or strictly below.
            x = xs[i - 1]
            if self.decide(x, True):
                self.lo = self.hi = x
                self.lo_excl = self.hi_excl = False
            else:
                self.lo = x
                self.lo_excl = True
        self._snap()


def min_ratio_parametric(tg: TimedDigraph,
                         *, _trace: Optional[list] = None) -> RatioAnswer:
    """lam* exactly, with a witness cycle of that ratio and a price certificate.

    Runs the nonpositive-cycle detector over the packed affine weights of
    a `_Resolver`, which signs its comparisons at lam*.
    At lam* every cycle's reduced weight is >= 0 and the optimal cycle's is
    exactly 0, so the nonstrict run must surface a cycle, and the comparison
    of its closed-walk value against zero has breakpoint exactly lam*.  So
    lam* is a point of the run in the final interval, which holds no such
    point but its two ends (`_Resolver`); in practice the interval closes
    on lam*, since that last comparison puts its breakpoint exactly there.
    lam* is then selected as the lesser end whose reduced graph has a
    nonpositive cycle, and cross-checked from both sides: the witness, the
    symbolic run's own cycle, has ratio equal to the selected value
    (pinning lam* from above), and the Feasible certificate at it proves no
    cycle does better (pinning lam* from below).
    """
    g = tg.base
    if not has_cycle(g):
        raise AcyclicGraphError("ratio search needs a directed cycle")
    resolver = _Resolver(tg, trace=_trace)
    sim = shortest_negative_cycle(resolver.graph, nonstrict=True, ops=resolver)
    if not isinstance(sim, NegativeCycle):
        raise AssertionError("nonstrict run found no cycle despite one existing")
    a, b = resolver.unpack(sim.cycle.length)
    lam_sim = Fraction(b * resolver.d_t, a * resolver.d_c)

    cands = sorted({resolver.lo, resolver.hi})
    i = bisect.bisect_left(cands, True, key=lambda x: resolver.decide(x, True))
    if i == len(cands):
        raise AssertionError("no candidate admits a nonpositive cycle")
    lam = cands[i]
    if lam != lam_sim:
        raise AssertionError("candidate selection disagrees with the simulation")

    if not resolver.decide(lam, True):
        raise AssertionError("nonpositive cycle vanished at the selected lam")
    # The packed graph keeps tg.base's edge ids, so the symbolic run's cycle
    # is the witness as it stands.
    cyc = sim.cycle
    # Each cost read as `_scale` reads it: a numpy scalar a hand-built
    # `Digraph` holds sums to a Python number.
    costs = [_read_number(g.edges[e][2], "weight") for e in cyc.edges]
    # Summed per edge as Fractions: a float sum would round before the check.
    if (sum(map(Fraction, costs))
            / sum(Fraction(tg.times[e]) for e in cyc.edges)) != lam:
        raise AssertionError("witness ratio does not equal lam*")
    witness = Path(cyc.vertices, sum(costs), cyc.hops, cyc.edges)

    cert = evaluate_lambda(tg, lam)
    if not isinstance(cert, Feasible):
        raise AssertionError("a cycle still beats lam*, selection was wrong")

    lam_out: Real = lam if _exact_instance(tg) else float(lam)
    return RatioAnswer(lam_out, witness, cert.price,
                       resolver.oracle_calls + 1, resolver.breakpoints)
