"""Command-line front end.

Subcommands: apsp, negcycle, hubs, minmean, minratio, verify, bench.
Results are emitted as flat key-value text documents so golden-file diffing
is trivial; matrices appear row-major with "inf" for unreachable, vertex
ids are 1-based to match the file format.  Exit codes: 0 for a completed
query (finding a negative cycle counts), 1 when the problem itself is
infeasible for the command (negative cycle blocking apsp/hubs, acyclic
input to the ratio commands, failed verification), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .fileio import ParseError, parse_graph
from .generate import (
    negative_cycle_free,
    random_digraph,
    random_timed,
    with_negative_cycle,
)
from .graph import (
    Digraph,
    enumerate_simple_cycles,
    floyd_warshall_oracle,
    hop_limited_oracle,
    negative_cycle_hops_oracle,
)
from .bellman_ford import bf_run
from .hubs import NegativeCycle, build_hub_hierarchy, shortest_negative_cycle, verify_hub_property
from .minplus import ApspResult, apsp
from .parametric import (
    AcyclicGraphError,
    TimedDigraph,
    min_mean_cycle_karp,
    min_ratio_binary_search,
    min_ratio_parametric,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _val(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _dist_val(x, integral: bool) -> str:
    # integer-weight instances have integer distances: exact Python ints
    # from object arrays, or integral floats, whose float dress is dropped
    if isinstance(x, int):
        return str(int(x))
    xf = float(x)
    if integral and math.isfinite(xf):
        return str(int(xf))
    return repr(xf)


def _integral_weights(g: Digraph) -> bool:
    return all(isinstance(w, int) for (_, _, w) in g.edges)


def _cycle_lines(cyc: NegativeCycle, integral: bool) -> List[str]:
    verts = " ".join(str(v + 1) for v in cyc.cycle.vertices)
    return [
        "cycle: " + verts,
        f"hops: {cyc.hops}",
        "weight: " + _dist_val(cyc.weight, integral),
    ]


def _meter_lines(report) -> List[str]:
    lines = [
        "total-work: " + str(report.total_work),
        "total-depth: " + str(report.total_depth),
    ]
    for ph in report.phases:
        tag = "modeled" if ph.modeled else "measured"
        lines.append(f"phase: {ph.name} work={ph.work} depth={ph.depth} {tag}")
    return lines


def _write(lines: List[str], out: Optional[str]) -> None:
    doc = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(doc)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(doc)


def _load(path: str):
    try:
        return parse_graph(path)
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e.strerror}") from None


def _base(g) -> Digraph:
    return g.base if isinstance(g, TimedDigraph) else g


def cmd_apsp(args) -> int:
    g = _base(_load(args.file))
    if g.n == 0:
        raise SystemExit("error: apsp needs at least one vertex")
    if not (1 <= args.d <= g.n):
        raise SystemExit(f"error: --d must lie in 1..{g.n}")
    res = apsp(g, args.d)
    lines = ["command: apsp", f"n: {g.n}", f"m: {g.m}", f"d: {args.d}"]
    if isinstance(res, NegativeCycle):
        lines.append("status: negative-cycle")
        lines += _cycle_lines(res, _integral_weights(g))
        _write(lines, args.out)
        return EXIT_INFEASIBLE
    lines.append("status: ok")
    lines.append("distances:")
    integral = _integral_weights(g)
    for row in res.dist.values:
        lines.append(" ".join(_dist_val(x, integral) for x in row))
    lines += _meter_lines(res.meter)
    _write(lines, args.out)
    return EXIT_OK


def cmd_negcycle(args) -> int:
    g = _base(_load(args.file))
    cyc = shortest_negative_cycle(g)
    lines = ["command: negcycle", f"n: {g.n}", f"m: {g.m}"]
    if cyc is None:
        lines.append("status: no-negative-cycle")
    else:
        lines.append("status: negative-cycle")
        lines += _cycle_lines(cyc, _integral_weights(g))
    _write(lines, args.out)
    return EXIT_OK


def cmd_hubs(args) -> int:
    g = _base(_load(args.file))
    if not (1 <= args.d <= max(g.n, 1)):
        raise SystemExit(f"error: --d must lie in 1..{g.n}")
    d = 1 << (args.d.bit_length() - 1)
    mode = "deterministic" if args.mode == "det" else "sampled"
    res = build_hub_hierarchy(g, d, mode=mode, seed=args.seed)
    lines = ["command: hubs", f"n: {g.n}", f"m: {g.m}", f"d: {d}",
             f"mode: {mode}"]
    if mode == "sampled":
        lines.append(f"seed: {args.seed}")
    if isinstance(res, NegativeCycle):
        lines.append("status: negative-cycle")
        lines += _cycle_lines(res, _integral_weights(g))
        _write(lines, args.out)
        return EXIT_INFEASIBLE
    lines.append("status: ok")
    for k, level in enumerate(res.levels):
        members = " ".join(str(v + 1) for v in sorted(level))
        lines.append(f"level {1 << k} size={len(level)}: {members}")
    _write(lines, args.out)
    return EXIT_OK


def cmd_minmean(args) -> int:
    g = _base(_load(args.file))
    lines = ["command: minmean", f"n: {g.n}", f"m: {g.m}"]
    try:
        lam, cyc = min_mean_cycle_karp(g)
    except AcyclicGraphError:
        lines.append("status: acyclic")
        _write(lines, args.out)
        return EXIT_INFEASIBLE
    lines.append("status: ok")
    lines.append("lambda: " + _val(lam))
    lines.append("cycle: " + " ".join(str(v + 1) for v in cyc.vertices))
    lines.append(f"hops: {cyc.hops}")
    lines.append("weight: " + _val(cyc.length))
    _write(lines, args.out)
    return EXIT_OK


def cmd_minratio(args) -> int:
    if args.method == "binary" and args.iterations < 1:
        raise SystemExit("error: --iterations must be >= 1")
    g = _load(args.file)
    if not isinstance(g, TimedDigraph):
        raise SystemExit("error: minratio needs a timed graph ('p spt' file)")
    lines = ["command: minratio", f"n: {g.base.n}", f"m: {g.base.m}",
             f"method: {args.method}"]
    try:
        if args.method == "binary":
            lo, hi = min_ratio_binary_search(g, args.iterations)
            lines.append(f"iterations: {args.iterations}")
            lines.append("status: ok")
            lines.append("lambda-low: " + _val(lo))
            lines.append("lambda-high: " + _val(hi))
        else:
            ans = min_ratio_parametric(g)
            lines.append("status: ok")
            lines.append("lambda: " + _val(ans.lambda_star))
            lines.append("cycle: "
                         + " ".join(str(v + 1) for v in ans.witness.vertices))
            lines.append(f"hops: {ans.witness.hops}")
            lines.append("weight: " + _val(ans.witness.length))
            lines.append("time: " + _val(sum(g.times[e]
                                             for e in ans.witness.edges)))
            lines.append("certificate: "
                         + " ".join(_val(p) for p in ans.certificate))
    except AcyclicGraphError:
        lines.append("status: acyclic")
        _write(lines, args.out)
        return EXIT_INFEASIBLE
    _write(lines, args.out)
    return EXIT_OK


def _suite_apsp(seed: int, count: int) -> int:
    bad = 0
    for i in range(count):
        g = negative_cycle_free(12, 0.25, -4, 12, seed=seed * 100003 + i)
        fw = floyd_warshall_oracle(g)
        for d in (1, 2, 4, 8):
            res = apsp(g, d)
            if not (isinstance(res, ApspResult)
                    and np.array_equal(res.dist.values, fw)):
                bad += 1
                break
    return bad


def _suite_negcycle(seed: int, count: int) -> int:
    bad = 0
    for i in range(count):
        g = with_negative_cycle(9, 0.3, -5, 7, seed=seed * 100019 + i)
        cyc = shortest_negative_cycle(g)
        want = negative_cycle_hops_oracle(g)
        if cyc is None or want is None or cyc.hops != want or not cyc.weight < 0:
            bad += 1
    return bad


def _suite_hubs(seed: int, count: int) -> int:
    bad = 0
    for i in range(count):
        g = negative_cycle_free(14, 0.2, -4, 12, seed=seed * 100043 + i)
        hier = build_hub_hierarchy(g, 8)
        if isinstance(hier, NegativeCycle):
            bad += 1
            continue
        if not all(verify_hub_property(g, level, 1 << k)
                   for k, level in enumerate(hier.levels)):
            bad += 1
    return bad


def _suite_snapshots(seed: int, count: int) -> int:
    bad = 0
    for i in range(count):
        g = random_digraph(10, 0.3, -4, 12, seed=seed * 100057 + i)
        want = hop_limited_oracle(g, 6)
        for s in range(g.n):
            lab = bf_run(g, s, 6)
            if not np.array_equal(lab.labels[6], want[s]):
                bad += 1
                break
    return bad


def _suite_minratio(seed: int, count: int) -> int:
    bad = 0
    for i in range(count):
        tg = random_timed(8, 0.3, -3, 9, seed=seed * 100069 + i)
        ans = min_ratio_parametric(tg)
        best = min(
            Fraction(sum(tg.base.edges[e][2] for e in c.edges),
                     sum(tg.times[e] for e in c.edges))
            for c in enumerate_simple_cycles(tg.base))
        if Fraction(ans.lambda_star) != best:
            bad += 1
    return bad


_SUITES = [
    ("apsp-vs-floyd-warshall", _suite_apsp),
    ("negative-cycle-hops", _suite_negcycle),
    ("hub-property", _suite_hubs),
    ("snapshot-vs-oracle", _suite_snapshots),
    ("minratio-vs-enumeration", _suite_minratio),
]


def cmd_verify(args) -> int:
    if args.count < 1:
        raise SystemExit("error: --count must be >= 1")
    lines = ["command: verify", f"seed: {args.seed}", f"count: {args.count}"]
    failures = 0
    for name, fn in _SUITES:
        bad = fn(args.seed, args.count)
        failures += bad
        verdict = "pass" if bad == 0 else f"FAIL ({bad}/{args.count})"
        lines.append(f"suite {name}: {verdict}")
    lines.append("status: " + ("ok" if failures == 0 else "failed"))
    _write(lines, args.out)
    return EXIT_OK if failures == 0 else EXIT_INFEASIBLE


def cmd_bench(args) -> int:
    g = _base(_load(args.file))
    try:
        ds = [int(tok) for tok in args.d_list.split(",") if tok]
    except ValueError:
        raise SystemExit("error: --d-list must be comma-separated integers")
    if not ds or any(not (1 <= d <= max(g.n, 1)) for d in ds):
        raise SystemExit(f"error: every d must lie in 1..{g.n}")
    lines = ["command: bench", f"n: {g.n}", f"m: {g.m}"]
    for d in ds:
        t0 = time.perf_counter()
        res = apsp(g, d)
        elapsed = time.perf_counter() - t0
        if isinstance(res, NegativeCycle):
            lines.append(f"d {d}: negative-cycle hops={res.hops}")
            continue
        rec = (f"d {d}: work={res.meter.total_work} "
               f"depth={res.meter.total_depth}")
        if args.wallclock:
            rec += f" wallclock-ms={elapsed * 1000.0:.1f}"
        lines.append(rec)
    _write(lines, args.out)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hubapsp",
        description="Deterministic shortest-path toolkit: depth-tunable "
                    "all-pairs distances, shortest negative cycles, and "
                    "minimum mean / cost-to-time ratio cycles.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, timed_ok=True):
        p.add_argument("file", help="graph file ('p sp' header"
                       + (", 'p spt' accepted)" if timed_ok else ")"))
        p.add_argument("--out", help="write the result document here "
                       "instead of stdout")

    p = sub.add_parser("apsp", help="all-pairs distances at depth knob d")
    p.add_argument("--d", type=int, required=True,
                   help="depth parameter, 1..n (rounded down to a power of two)")
    common(p)
    p.set_defaults(fn=cmd_apsp)

    p = sub.add_parser("negcycle", help="shortest negative cycle, if any")
    common(p)
    p.set_defaults(fn=cmd_negcycle)

    p = sub.add_parser("hubs", help="hub-set hierarchy levels")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("det", "sampled"), default="det")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (sampled mode)")
    common(p)
    p.set_defaults(fn=cmd_hubs)

    p = sub.add_parser("minmean", help="minimum mean cycle (Karp)")
    common(p)
    p.set_defaults(fn=cmd_minmean)

    p = sub.add_parser("minratio",
                       help="minimum cost-to-time ratio cycle ('p spt' input)")
    p.add_argument("--method", choices=("binary", "parametric"),
                   required=True)
    p.add_argument("--iterations", type=int, default=60,
                   help="bisection steps (binary method)")
    common(p)
    p.set_defaults(fn=cmd_minratio)

    p = sub.add_parser("verify",
                       help="run the oracle suites on generated instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25,
                   help="instances per suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="work/depth totals across d values")
    p.add_argument("--d-list", required=True,
                   help="comma-separated d values, e.g. 4,8,16")
    p.add_argument("--wallclock", action="store_true",
                   help="include wall-clock timings (not deterministic)")
    common(p)
    p.set_defaults(fn=cmd_bench)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
