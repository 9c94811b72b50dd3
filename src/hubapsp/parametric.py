"""Minimum mean cycle and minimum cost-to-time ratio cycle.

Every edge carries a cost w(e) and a transit time t(e) > 0, and the target
is the cycle minimizing total cost over total time.  Substituting the edge
weights w(e) - lam * t(e) turns the question into negative-cycle detection:
some cycle beats lam exactly when the substituted graph has a negative
cycle.  Three routes to the optimum lam* are provided:

- `min_mean_cycle_karp`: Karp's rotation formula for unit times, used as an
  independent oracle.
- `min_ratio_binary_search`: bisection on lam driven by `evaluate_lambda`.
- `min_ratio_parametric`: runs the negative-cycle detector generically over
  affine weight functions lam -> b - lam * a, resolving each batch of
  comparisons at the still-unknown lam* through breakpoint bisection with a
  concrete detector as the decision oracle.  All breakpoint arithmetic is
  over exact rationals, so integer instances yield lam* as an exact
  fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bellman_ford import NumberOps, _min_in_edges, _run_multi_generic, bf_run
from .graph import INF, Digraph, Path, build_graph, has_cycle
from .hubs import NegativeCycle, shortest_negative_cycle

Real = Union[int, float, Fraction]


class AcyclicGraphError(ValueError):
    """Raised by cycle-ratio queries on a graph with no directed cycle."""


@dataclass(frozen=True)
class TimedDigraph:
    """Digraph whose edges each carry a transit time, strictly positive."""

    base: Digraph
    times: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        if len(self.times) != self.base.m:
            raise ValueError(
                f"{len(self.times)} times for {self.base.m} edges")
        for i, t in enumerate(self.times):
            if not (t > 0 and math.isfinite(t)):
                raise ValueError(f"time {t!r} on edge {i} must be finite and > 0")


def build_timed_graph(n: int, items) -> TimedDigraph:
    """Build from (u, v, cost, time) tuples, validating as build_graph does."""
    items = list(items)
    base = build_graph(n, [(u, v, w) for (u, v, w, _) in items])
    return TimedDigraph(base, tuple(t for (_, _, _, t) in items))


@dataclass(frozen=True)
class LinearValue:
    """The affine map lam -> b - lam * a; a carries time, b carries cost."""

    a: Fraction
    b: Fraction

    def __add__(self, other: "LinearValue") -> "LinearValue":
        return LinearValue(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LinearValue") -> "LinearValue":
        return LinearValue(self.a - other.a, self.b - other.b)

    def at(self, lam: Real):
        return self.b - lam * self.a


@dataclass(frozen=True)
class Feasible:
    """No negative cycle at the probed lam; `price` certifies it edge-wise."""

    price: Tuple[Real, ...]


@dataclass(frozen=True)
class Infeasible:
    cycle: NegativeCycle


@dataclass(frozen=True)
class RatioAnswer:
    lambda_star: Real
    witness: Path
    certificate: Tuple[Real, ...]


def _is_integral(x) -> bool:
    if isinstance(x, (int, np.integer)):
        return True
    return isinstance(x, float) and math.isfinite(x) and x.is_integer()


def _integral_instance(tg: TimedDigraph) -> bool:
    return (all(_is_integral(w) for (_, _, w) in tg.base.edges)
            and all(_is_integral(t) for t in tg.times))


def min_mean_cycle_karp(g: Digraph) -> Tuple[Real, Path]:
    """Karp's minimum mean cycle: lam* and a simple cycle attaining it.

    Uses the exactly-k walk table D_k(v) seeded with zeros at every vertex
    (equivalent to a virtual source with zero-weight edges to all of V), so
    D_k(v) is the cheapest k-edge walk ending at v from anywhere.  Then

        lam* = min over v with D_n(v) finite of max_k (D_n(v) - D_k(v))/(n - k).

    The witness is cut out of the n-edge walk attaining D_n at the argmin
    vertex: among its repeated-vertex segments the (mean, hops, start)-
    lexicographic minimum, which is simple because an inner repeat would
    split it into a part at least as good with fewer hops.  Integer weights
    give an exact Fraction; otherwise a float.
    """
    n = g.n
    if n == 0 or not has_cycle(g):
        raise AcyclicGraphError("minimum mean cycle needs a directed cycle")
    _src, _w, eidx, _seg, dst_with_in, _eseg = g._in_arrays()
    D = np.full((n + 1, n), INF)
    D[0] = 0.0
    par = np.full((n + 1, n), -1, dtype=np.int64)
    for k in range(1, n + 1):
        red, first = _min_in_edges(g, D[k - 1][None, :], first=True)
        red, first = red[0], first[0]
        D[k][dst_with_in] = red
        # Infinite minima have no attaining edge: inf == inf would
        # otherwise claim a winner.
        ok = np.isfinite(red)
        par[k][dst_with_in[ok]] = eidx[first[ok]]

    vmask = np.isfinite(D[n])
    if not vmask.any():
        raise AssertionError("a cycle exists but no n-edge walk was found")
    ks = np.arange(n)
    quot = (D[n][vmask][None, :] - D[:n][:, vmask]) / (n - ks)[:, None]
    lam_rows = quot.max(axis=0)
    v_star = int(np.nonzero(vmask)[0][int(np.argmin(lam_rows))])

    exact = all(_is_integral(e[2]) for e in g.edges)
    if exact:
        dn = int(D[n][v_star])
        lam = max(Fraction(dn - int(D[k][v_star]), n - k) for k in range(n))
    else:
        lam = float(lam_rows.min())

    walk_v = [0] * (n + 1)
    walk_e = [0] * n
    cur = v_star
    walk_v[n] = cur
    for k in range(n, 0, -1):
        e = int(par[k][cur])
        if e < 0:
            raise AssertionError("parent chain broken below a finite D_n entry")
        walk_e[k - 1] = e
        cur = g.edges[e][0]
        walk_v[k - 1] = cur

    prefix = [0] * (n + 1)
    for i, e in enumerate(walk_e):
        prefix[i + 1] = prefix[i] + g.edges[e][2]

    seen: Dict[int, List[int]] = {}
    best_key = None
    best_ij = None
    for j, vtx in enumerate(walk_v):
        for i in seen.get(vtx, ()):
            hops = j - i
            wt = prefix[j] - prefix[i]
            mean = Fraction(int(wt), hops) if exact else wt / hops
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


def _reduced_graph(tg: TimedDigraph, lam: Real, exact: bool) -> Digraph:
    if exact:
        lf = Fraction(lam)
        edges = tuple((u, v, Fraction(w) - lf * Fraction(t))
                      for (u, v, w), t in zip(tg.base.edges, tg.times))
    else:
        edges = tuple((u, v, w - lam * t)
                      for (u, v, w), t in zip(tg.base.edges, tg.times))
    return Digraph._unchecked(tg.base.n, edges)


def _price_function(gl: Digraph, exact: bool) -> Tuple[Real, ...]:
    """Shortest-path prices from a fresh super-source over zero-weight edges.

    A real vertex is appended so both engines run an ordinary single-source
    label run.  With no negative cycle the labels are stable by row n,
    checked exactly: an unchanged row is bit-identical in either engine.
    """
    n = gl.n
    zero: Real = Fraction(0) if exact else 0.0
    aug = Digraph._unchecked(
        n + 1, gl.edges + tuple((n, v, zero) for v in range(n)))
    if exact:
        lab = _run_multi_generic(aug, [n], n + 1, NumberOps())[n]
        prev, last = lab.labels[n], lab.labels[n + 1]
        if any(a != b for a, b in zip(prev, last)):
            raise AssertionError("prices not converged despite no negative cycle")
        return tuple(last[:n])
    lab = bf_run(aug, n, n + 1)
    prev, last = lab.labels[n], lab.labels[n + 1]
    if not np.array_equal(prev, last):
        raise AssertionError("prices not converged despite no negative cycle")
    return tuple(float(x) for x in last[:n])


def evaluate_lambda(tg: TimedDigraph, lam: Real):
    """Probe one lam: Infeasible(cycle) when some cycle ratio beats lam,
    else Feasible(price) with w(e) - lam*t(e) + p(u) - p(v) >= 0 on every edge.

    Exact rational arithmetic when lam is an integer or Fraction (costs and
    times convert exactly whatever their type); float64 otherwise.
    """
    exact = isinstance(lam, Fraction) or _is_integral(lam)
    gl = _reduced_graph(tg, lam, exact)
    cyc = shortest_negative_cycle(gl, ops=NumberOps() if exact else None)
    if cyc is not None:
        return Infeasible(cyc)
    return Feasible(_price_function(gl, exact))


def _edge_ratios(tg: TimedDigraph, exact: bool) -> List[Real]:
    if exact:
        return [Fraction(w) / Fraction(t)
                for (_, _, w), t in zip(tg.base.edges, tg.times)]
    return [w / t for (_, _, w), t in zip(tg.base.edges, tg.times)]


def min_ratio_binary_search(tg: TimedDigraph, iterations: int,
                            *, _trace: Optional[list] = None):
    """Bisection bracket for lam*, halving `iterations` times.

    The initial interval spans the edge cost/time ratios; any cycle ratio is
    a time-weighted mean of its edge ratios, so lam* starts inside.  A probe
    with a negative cycle means lam* lies left of the midpoint.  Integer
    instances bisect over exact Fractions.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not has_cycle(tg.base):
        raise AcyclicGraphError("ratio search needs a directed cycle")
    ratios = _edge_ratios(tg, _integral_instance(tg))
    lo, hi = min(ratios), max(ratios)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if isinstance(evaluate_lambda(tg, mid), Infeasible):
            hi = mid
        else:
            lo = mid
        if _trace is not None:
            _trace.append((lo, hi))
    return lo, hi


class _Infinity:
    """Identity sentinel ordered above every LinearValue."""

    __slots__ = ()

    def __repr__(self):
        return "LINF"


_LINF = _Infinity()


class _Resolver:
    """Sign oracle for x - lam* over the exact rationals.

    Holds an interval known to contain lam* with per-end exclusivity flags,
    the set of every breakpoint ever generated, and two memoized concrete
    detectors on the reduced graph at x: strict (is lam* < x) and nonpos
    (is lam* <= x).  A batch of undecided breakpoints is sorted and split by
    bisection on the strict oracle, then at most one nonpos call separates
    "equal to lam*" from "below", so a batch of p costs O(log p) detector
    runs.  The interval only ever shrinks.
    """

    def __init__(self, tg: TimedDigraph, trace: Optional[list] = None):
        self.tg = tg
        ratios = _edge_ratios(tg, True)
        self.lo: Fraction = min(ratios)
        self.hi: Fraction = max(ratios)
        self.lo_excl = False
        self.hi_excl = False
        self.candidates = {self.lo, self.hi}
        self._runs: Dict[Tuple[Fraction, bool], Optional[NegativeCycle]] = {}
        self.oracle_calls = 0
        self.trace = trace
        self._snap()

    def _snap(self):
        if self.trace is not None:
            self.trace.append((self.lo, self.hi))

    def detect(self, x: Fraction, nonstrict: bool) -> Optional[NegativeCycle]:
        key = (x, nonstrict)
        if key not in self._runs:
            gl = _reduced_graph(self.tg, x, True)
            self._runs[key] = shortest_negative_cycle(
                gl, nonstrict=nonstrict, ops=NumberOps())
            self.oracle_calls += 1
        return self._runs[key]

    def strict_at(self, x: Fraction) -> bool:
        return self.detect(x, False) is not None

    def nonpos_at(self, x: Fraction) -> bool:
        return self.detect(x, True) is not None

    def _interval_sign(self, x: Fraction) -> Optional[int]:
        if x < self.lo:
            return -1
        if x > self.hi:
            return 1
        if self.lo == self.hi:
            return 0
        if x == self.lo and self.lo_excl:
            return -1
        if x == self.hi and self.hi_excl:
            return 1
        return None

    def resolve(self, xs: Sequence[Fraction]) -> List[int]:
        """Signs of x - lam* for each breakpoint, shrinking the interval."""
        self.candidates.update(xs)
        signs = [self._interval_sign(x) for x in xs]
        pending = sorted({x for x, s in zip(xs, signs) if s is None})
        if pending:
            self._shrink(pending)
            signs = [s if s is not None else self._interval_sign(x)
                     for x, s in zip(xs, signs)]
            if any(s is None for s in signs):
                raise AssertionError("interval failed to separate a breakpoint")
        return signs

    def _shrink(self, xs: List[Fraction]) -> None:
        # Least index whose strict test succeeds; everything at or past it
        # sits strictly above lam*.
        lo_i, hi_i = 0, len(xs)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if self.strict_at(xs[mid]):
                hi_i = mid
            else:
                lo_i = mid + 1
        i = lo_i
        if i < len(xs):
            self.hi = xs[i]
            self.hi_excl = True
        if i > 0:
            # Largest non-strict breakpoint: equal to lam* or strictly below.
            x = xs[i - 1]
            if self.nonpos_at(x):
                self.lo = self.hi = x
                self.lo_excl = self.hi_excl = False
            else:
                self.lo = x
                self.lo_excl = True
        self._snap()


class _LinearOps:
    """Weight domain of LinearValues compared at lam* via a _Resolver."""

    INF = _LINF
    ZERO = LinearValue(Fraction(0), Fraction(0))

    def __init__(self, resolver: _Resolver):
        self.resolver = resolver

    @staticmethod
    def add(a: LinearValue, b: LinearValue) -> LinearValue:
        return a + b

    def cmp_batch(self, pairs) -> List[int]:
        signs: List[Optional[int]] = [None] * len(pairs)
        xs: List[Fraction] = []
        slots: List[int] = []
        dirs: List[int] = []
        for idx, (f, g) in enumerate(pairs):
            fi = f is _LINF
            gi = g is _LINF
            if fi or gi:
                signs[idx] = 0 if (fi and gi) else (1 if fi else -1)
                continue
            da = f.a - g.a
            db = f.b - g.b
            if da == 0:
                signs[idx] = -1 if db < 0 else (1 if db > 0 else 0)
                continue
            # (f - g)(lam) = db - lam*da crosses zero at x = db/da, and its
            # sign at lam* is sign(da) * sign(x - lam*).
            xs.append(db / da)
            slots.append(idx)
            dirs.append(1 if da > 0 else -1)
        if xs:
            for idx, s, d in zip(slots, self.resolver.resolve(xs), dirs):
                signs[idx] = d * s
        return signs

    def cmp(self, a, b) -> int:
        return self.cmp_batch([(a, b)])[0]


def min_ratio_parametric(tg: TimedDigraph,
                         *, _trace: Optional[list] = None) -> RatioAnswer:
    """lam* exactly, with a witness cycle of that ratio and a price certificate.

    Runs the nonpositive-cycle detector over LinearValue weights.  At lam*
    every cycle's reduced weight is >= 0 and the optimal cycle's is exactly 0,
    so the nonstrict run must surface a cycle, and the comparison of its
    closed-walk value against zero has breakpoint exactly lam*: the candidate
    set provably contains the answer.  lam* is then selected as the least
    candidate in the final interval whose reduced graph has a nonpositive
    cycle, and cross-checked from both sides: the witness ratio equals the
    selected value (pinning lam* from above) and the Feasible certificate at
    it proves no cycle does better (pinning lam* from below).
    """
    g = tg.base
    if not has_cycle(g):
        raise AcyclicGraphError("ratio search needs a directed cycle")
    resolver = _Resolver(tg, trace=_trace)
    ops = _LinearOps(resolver)
    lin_edges = tuple(
        (u, v, LinearValue(Fraction(t), Fraction(w)))
        for (u, v, w), t in zip(g.edges, tg.times))
    glin = Digraph._unchecked(g.n, lin_edges)

    sim = shortest_negative_cycle(glin, nonstrict=True, ops=ops)
    if not isinstance(sim, NegativeCycle):
        raise AssertionError("nonstrict run found no cycle despite one existing")
    value = sim.cycle.length
    lam_sim = value.b / value.a

    cands = sorted(x for x in resolver.candidates
                   if resolver.lo <= x <= resolver.hi)
    lo_i, hi_i = 0, len(cands)
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if resolver.nonpos_at(cands[mid]):
            hi_i = mid
        else:
            lo_i = mid + 1
    if lo_i == len(cands):
        raise AssertionError("no candidate admits a nonpositive cycle")
    lam = cands[lo_i]
    if lam != lam_sim:
        raise AssertionError("candidate selection disagrees with the simulation")

    concrete = resolver.detect(lam, True)
    if concrete is None:
        raise AssertionError("nonpositive cycle vanished at the selected lam")
    cyc = concrete.cycle
    wsum = sum(g.edges[e][2] for e in cyc.edges)
    tsum = sum(tg.times[e] for e in cyc.edges)
    if Fraction(wsum) / Fraction(tsum) != lam:
        raise AssertionError("witness ratio does not equal lam*")
    witness = Path(cyc.vertices, wsum, cyc.hops, cyc.edges)

    cert = evaluate_lambda(tg, lam)
    if not isinstance(cert, Feasible):
        raise AssertionError("a cycle still beats lam*, selection was wrong")

    lam_out: Real = lam if _integral_instance(tg) else float(lam)
    return RatioAnswer(lam_out, witness, cert.price)
