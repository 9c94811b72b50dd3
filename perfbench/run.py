#!/usr/bin/env python3
"""Seeded benchmark of hubapsp's public API, one workload per run.

    python3 perfbench/run.py --workload apsp-deep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  One
process, no threads.  Set-up generates the workload's graphs from the seed,
parses them and runs the untimed oracles.  The timed loop then calls the
workload's API function on every graph in turn (one round), each call on a
freshly parsed graph so per-graph lazy caches are paid inside the call,
checks every result, and repeats rounds until --seconds have passed.

--trace 0 prints the end-to-end metrics: setup_s (median seconds to parse
one input), call_ref (median call time divided by the time of fixed
reference jobs run next to it; wall-clock seconds on a shared machine can drift
by 15% over minutes, the ratio far less) and peak_rss_mb.  Raw call seconds,
a tail percentile and the work/depth counts are printed beside them.
--trace 1 spends half the time untraced and half with timing wrappers
installed (see spans.py), then prints the per-layer metrics and writes the
spans under .bench_out/.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 2 when the sources or
the workload are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N = 256                 # vertices of every graph workload
SETUP_PARSES = 5        # parses per input during set-up, each a setup_s sample
PHASES = ("hierarchy", "hub-graph", "closure", "lift")
KINDS = ("apsp", "negcycle", "minratio", "bisect")
REF = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
REF_COLS = np.arange(4 * 256) % 256
REF_SEGMENTS = np.arange(0, REF_COLS.size, 4)
# Preallocated outputs keep page faults out of the reference timings; each
# stays under 4 MiB, the size from which numpy asks for transparent huge
# pages, which a process may or may not get.
REF_SUM = np.empty_like(REF)
REF_GATHER = np.empty((REF.shape[0], REF_COLS.size))
REF_MIN = np.empty((REF.shape[0], REF_SEGMENTS.size))


@dataclass(frozen=True)
class Workload:
    kind: str                            # top-level span name, one of KINDS
    cases: Callable                      # seed -> [GraphCase]
    call: Callable                       # graph -> (result, WorkDepthReport | None)
    expect: Callable                     # (case, graph) -> expected value
    check: Callable                      # (result, graph, expected) -> reason | None
    perturb: Callable                    # result -> wrong result
    reference: tuple                     # reference jobs timed around each call


def workloads():
    """Why each workload exists is recorded in BENCHMARK.json."""
    import checks
    import corpus
    from hubapsp import CostMeter, graph, hubs, minplus, parametric

    def apsp(d):
        def call(g):
            res = minplus.apsp(g, d)
            return res, getattr(res, "meter", None)
        return call

    def negcycle(g):
        meter = CostMeter()
        with meter.phase("hierarchy"):
            res = hubs.shortest_negative_cycle(g, meter=meter)
        return res, meter.report()

    def neg_expect(case, g):
        if case.neg_hops is None:
            return None      # certified by the generator's potentials
        if graph.negative_cycle_hops_oracle(g, case.neg_hops) != case.neg_hops:
            raise RuntimeError(f"{case.label}: oracle disagrees with the planted cycle")
        return case.neg_hops

    def bisect_expect(case, tg):
        lam = parametric.min_ratio_parametric(tg).lambda_star
        if lam != case.lambda_star:
            raise RuntimeError(f"{case.label}: parametric lambda* {lam} is not {case.lambda_star}")
        return lam

    fw = lambda case, g: graph.floyd_warshall_oracle(g)
    apsp_check = lambda res, g, exp: checks.check_apsp(res, exp)
    rings = lambda seed: corpus.ring_graphs(N, 3, seed)
    # Timed instances are fixed (see corpus.timed_cases); the seed is unused.
    minratio_cases = corpus.timed_cases(24, ((3, Fraction(-2)), (6, Fraction(-3, 2)),
                                             (4, Fraction(-9, 5))))
    bisect_cases = corpus.timed_cases(16, ((1, Fraction(-1)), (3, Fraction(-2))))
    # Reference jobs by dominant operations: closure and lift (apsp-shallow),
    # label runs and Python path/greedy work (apsp-deep, negcycle), exact
    # rational arithmetic (minratio, bisect).
    closure_ref, label_ref, exact_ref = ((minplus_rows, gather_reduce),
                                         (gather_reduce, fractions), (fractions,))
    return {
        "apsp-shallow": Workload("apsp", rings, apsp(1), fw, apsp_check,
                                 checks.perturb_apsp, closure_ref),
        "apsp-deep": Workload("apsp", rings, apsp(N // 8), fw, apsp_check,
                              checks.perturb_apsp, label_ref),
        "negcycle": Workload("negcycle", lambda seed: corpus.planted_graphs(N, (None, 4, 8, 13), seed),
                             negcycle, neg_expect, checks.check_negcycle,
                             checks.perturb_negcycle, label_ref),
        "minratio": Workload("minratio", lambda seed: minratio_cases,
                             lambda tg: (parametric.min_ratio_parametric(tg), None),
                             lambda case, tg: case.lambda_star, checks.check_ratio,
                             checks.perturb_ratio, exact_ref),
        "bisect": Workload("bisect", lambda seed: bisect_cases,
                           lambda tg: (parametric.min_ratio_binary_search(
                               tg, checks.BISECT_ITERATIONS), None),
                           bisect_expect, checks.check_bisect, checks.perturb_bisect,
                           exact_ref),
    }


# Reference work: fixed jobs that share no code with hubapsp, timed around
# every untraced call.  Each workload times the jobs that resemble its own
# dominant operations, so the ratio cancels the host's speed drift.

def minplus_rows():
    """Row-by-row min-plus product of a fixed 256 x 256 matrix with itself."""
    for row in REF:
        np.add(row[:, None], REF, out=REF_SUM)
        REF_SUM.min(axis=0)


def gather_reduce():
    """Gather-then-segment-minimum steps shaped like label relaxations."""
    for _ in range(8):
        np.take(REF, REF_COLS, axis=1, out=REF_GATHER)
        np.minimum.reduceat(REF_GATHER, REF_SEGMENTS, axis=1, out=REF_MIN)


def fractions():
    """Small exact rational additions and reductions."""
    x = Fraction(0)
    for i in range(1, 4800):
        x = (x + Fraction(i % 97, 1 + i % 13)) % 7


def time_reference(jobs) -> float:
    t0 = time.perf_counter()
    for job in jobs:
        job()
    return time.perf_counter() - t0


def meter_key(rep):
    if rep is None:
        return None
    return (rep.total_work, rep.total_depth) + tuple(rep.subtotal(p) for p in PHASES)


class Runner:
    """Set-up state and counters of one workload run."""

    def __init__(self, wl, cases, parse):
        self.wl = wl
        self.parse = parse
        self.parse_s = []
        self.prepared = []       # [case, expected, first meter key]
        self.attempted = self.failed = 0
        self.self_test = None    # did the checker reject a perturbed result?
        self.refs = []           # reference seconds around untraced calls
        self.fw_s = []
        for case in cases:
            g = self.timed_parse(case)
            for _ in range(SETUP_PARSES - 1):
                self.timed_parse(case)
            t0 = time.perf_counter()
            expected = wl.expect(case, g)
            if wl.kind == "apsp":    # the oracle is Floyd-Warshall, a baseline
                self.fw_s.append(time.perf_counter() - t0)
            self.prepared.append([case, expected, None])

    def timed_parse(self, case):
        t0 = time.perf_counter()
        g = self.parse(case.text, case.label)
        self.parse_s.append(time.perf_counter() - t0)
        return g

    def rounds(self, seconds, tracer=None):
        """Call seconds per input and in call order, and the meter reports.

        Stops before a round that would overrun `seconds`, after at least one.
        Untraced rounds also time the workload's reference work around every call.
        """
        deadline = time.perf_counter() + seconds
        per_input = [[] for _ in self.prepared]
        per_call, meters = [], []
        refs = [] if tracer is None else None
        while True:
            spent = []
            for item in self.prepared:
                case, expected, first = item
                g = self.timed_parse(case)
                gc.collect()
                if refs is not None:
                    refs.append(time_reference(self.wl.reference))
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        res, rep = self.wl.call(g)
                    else:
                        with tracer.span(self.wl.kind):
                            res, rep = self.wl.call(g)
                    why = None
                except Exception:
                    why = traceback.format_exc()
                dt = time.perf_counter() - t0
                self.attempted += 1
                if why is None:
                    why = self.wl.check(res, g, expected)
                    if why is None and expected is not None and self.self_test is None:
                        # The checker must reject a deliberately wrong result.
                        self.self_test = self.wl.check(self.wl.perturb(res), g, expected) is not None
                if why is None:
                    key = meter_key(rep)
                    if first is None:
                        item[2] = key
                    elif key != first:
                        why = "meter counts differ from the first call on this input"
                    if rep is not None:
                        meters.append(rep)
                if why is not None:
                    self.failed += 1
                    print(f"FAIL {case.label}: {why}", file=sys.stderr)
                spent.append(dt)
            for times, dt in zip(per_input, spent):
                times.append(dt)
            per_call += spent
            if time.perf_counter() + sum(spent) > deadline:
                break
        if refs is not None:
            refs.append(time_reference(self.wl.reference))
            self.refs = refs
        return per_input, per_call, meters

    def call_ref(self, per_call):
        """Mean over inputs of the median call time in reference units.

        Each call is divided by the mean of the reference timings on either
        side of it, which cancels most of the host's speed drift.
        """
        k = len(self.prepared)
        ratios = [[] for _ in range(k)]
        for j, dt in enumerate(per_call):
            ratios[j % k].append(2 * dt / (self.refs[j] + self.refs[j + 1]))
        return statistics.fmean(statistics.median(r) for r in ratios)


def call_seconds(per_input):
    """Mean over the inputs of each input's median call time."""
    return statistics.fmean(statistics.median(t) for t in per_input)


def tail_line(per_call):
    """Highest whole percentile with at least ten calls beyond it."""
    n = len(per_call)
    if n < 20:
        return f"tail: too few calls ({n}) for a percentile at or above the median with ten calls beyond it"
    q = int(100 * (1 - 10 / n))
    return f"tail: call_p{q}_s {statistics.quantiles(per_call, n=100)[q - 1]:.6f} s ({n} calls)"


def meter_metrics(meters):
    out = {"work": 0.0, "depth": 0.0}
    out.update({f"meter.{p}.{k}": 0.0 for p in PHASES for k in ("work", "depth")})
    if meters:
        out["work"] = statistics.fmean(r.total_work for r in meters)
        out["depth"] = statistics.fmean(r.total_depth for r in meters)
        for p in PHASES:
            out[f"meter.{p}.work"] = statistics.fmean(r.subtotal(p)[0] for r in meters)
            out[f"meter.{p}.depth"] = statistics.fmean(r.subtotal(p)[1] for r in meters)
    return out


def baselines(runner, graphs):
    """Reference seconds from Floyd-Warshall and scipy.sparse.csgraph; not gated."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, johnson

    def matrix(g, extra=0):
        # Minimum over parallel arcs; explicit zeros stay arcs in a CSR built
        # from coordinates, unlike one converted from a dense matrix.
        best = {}
        for u, v, w in g.edges:
            best[u, v] = min(w, best.get((u, v), w))
        for v in range(g.n if extra else 0):
            best[g.n, v] = 0
        keys = list(best)
        size = g.n + extra
        return csr_matrix((np.array([best[k] for k in keys], dtype=float),
                           ([k[0] for k in keys], [k[1] for k in keys])), shape=(size, size))

    out = {"baseline.floyd_warshall_s": 0.0, "baseline.scipy_johnson_s": 0.0,
           "baseline.scipy_bellman_ford_s": 0.0}
    if runner.wl.kind == "apsp":
        times = []
        for (case, fw, _), g in zip(runner.prepared, graphs):
            m = matrix(g)
            t0 = time.perf_counter()
            dist = johnson(m, directed=True)
            times.append(time.perf_counter() - t0)
            if not np.array_equal(dist, fw):
                raise RuntimeError(f"{case.label}: scipy johnson disagrees with Floyd-Warshall")
        out["baseline.floyd_warshall_s"] = statistics.median(runner.fw_s)
        out["baseline.scipy_johnson_s"] = statistics.median(times)
    elif runner.wl.kind == "negcycle":
        times = []
        for (case, hops, _), g in zip(runner.prepared, graphs):
            m = matrix(g, extra=1)
            t0 = time.perf_counter()
            try:
                bellman_ford(m, directed=True, indices=g.n)
                found = False
            except NegativeCycleError:
                found = True
            times.append(time.perf_counter() - t0)
            if found != (hops is not None):
                raise RuntimeError(f"{case.label}: scipy bellman_ford disagrees on the cycle")
        out["baseline.scipy_bellman_ford_s"] = statistics.median(times)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hubapsp" / "__init__.py").is_file():
        print(f"hubapsp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    from hubapsp import fileio

    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    runner = Runner(wl, wl.cases(args.seed), fileio.parse_graph_text)
    if args.trace == 0:
        per_input, per_call, meters = runner.rounds(args.seconds)
        metrics = {
            "setup_s": (statistics.median(runner.parse_s), "s"),
            "call_ref": (runner.call_ref(per_call), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"call_s {call_seconds(per_input):.6f} s (mean over inputs of the median call)")
        print(f"host.ref_s {statistics.median(runner.refs):.6f} s (median reference work)")
        print(tail_line(per_call))
        for k, v in meter_metrics(meters).items():
            print(f"{k} {v:.10g} ops (mean per call; identical on every call of an input)")
        if runner.fw_s:
            print(f"baseline.floyd_warshall_s {statistics.median(runner.fw_s):.6f} s")
    else:
        plain, _, _ = runner.rounds(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, per_call, meters = runner.rounds(args.seconds / 2, tracer)
        finally:
            tracer.remove()
        calls = sum(1 for s in tracer.spans if s[0] == wl.kind)
        metrics = spans.layer_metrics(tracer, calls)
        metrics["call_s"] = (call_seconds(plain), "s")
        metrics["host.ref_s"] = (statistics.median(runner.refs), "s")
        metrics["traced.call_s"] = (call_seconds(traced), "s")
        metrics["trace.overhead"] = (call_seconds(traced) / call_seconds(plain), "ratio")
        metrics.update({k: (v, "ops") for k, v in meter_metrics(meters).items()})

        case = runner.prepared[0][0]
        g = runner.parse(case.text, case.label)
        tracemalloc.start()
        try:
            wl.call(g)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        metrics.update({f"{k}.peak_mb": (peak if k == wl.kind else 0.0, "MB") for k in KINDS})
        graphs = [runner.parse(c.text, c.label) for c, _, _ in runner.prepared]
        metrics.update({k: (v, "s") for k, v in baselines(runner, graphs).items()})

        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if runner.self_test:
        print("checker self-test: perturbed result rejected")
    else:
        print("checker self-test failed: perturbed result accepted or never tried",
              file=sys.stderr)
    print(f"error_rate {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} calls failed)")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.self_test is True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
