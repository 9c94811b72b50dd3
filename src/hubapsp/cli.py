"""Command-line front end.

Subcommands: apsp, negcycle, hubs, minmean, minratio, verify, bench.
Results are emitted as flat key-value text documents so golden-file diffing
is trivial; matrices appear row-major with "inf" for unreachable, vertex
ids are 1-based to match the file format.  Each command builds its
document as (lines, exit code), and `main` alone writes it.  Exit codes:
0 for a completed query (finding a negative cycle counts), 1 when the
problem itself is infeasible for the command (negative cycle blocking
apsp/hubs, acyclic input to the ratio commands, failed verification), 2
for a refused input: bad flags, an unreadable file or an unwritable
--out, malformed input, or weights the engines refuse.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .fileio import parse_graph
from .generate import (
    negative_cycle_free,
    random_digraph,
    random_timed,
    with_negative_cycle,
)
from .graph import (
    Digraph,
    Path,
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

Document = Tuple[List[str], int]


def _val(x, integral: bool = False) -> str:
    # integral: x is a distance on integer weights, so an integral float
    # drops its float dress (exact ints from object arrays print as they are)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    return str(int(xf)) if integral and math.isfinite(xf) else repr(xf)


def _integral_weights(g: Digraph) -> bool:
    return all(isinstance(w, int) for (_, _, w) in g.edges)


def _cycle_lines(path: Path, weight: str) -> List[str]:
    return ["cycle: " + " ".join(str(v + 1) for v in path.vertices),
            f"hops: {path.hops}", "weight: " + weight]


def _meter_lines(report) -> List[str]:
    lines = [
        "total-work: " + str(report.total_work),
        "total-depth: " + str(report.total_depth),
    ]
    for ph in report.phases:
        tag = "modeled" if ph.modeled else "measured"
        lines.append(f"phase: {ph.name} work={ph.work} depth={ph.depth} {tag}")
    return lines


def _load(path: str):
    try:
        return parse_graph(path)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None


def _base(g) -> Digraph:
    return g.base if isinstance(g, TimedDigraph) else g


def _rounded_depth(d: int) -> int:
    """d >= 1 rounded down to a power of two, as `apsp` and
    `build_hub_hierarchy` round it: the d a run reports."""
    return 1 << (d.bit_length() - 1)


def _depth(args, g: Digraph) -> int:
    """--d checked against 1..n and rounded as it runs (`_rounded_depth`)."""
    if g.n == 0:
        raise ValueError(f"{args.cmd} needs at least one vertex")
    if not (1 <= args.d <= g.n):
        raise ValueError(f"--d must lie in 1..{g.n}")
    return _rounded_depth(args.d)


def cmd_apsp(args) -> Document:
    g = _base(_load(args.file))
    d = _depth(args, g)
    res = apsp(g, d)
    lines = ["command: apsp", f"n: {g.n}", f"m: {g.m}", f"d: {d}"]
    integral = _integral_weights(g)
    if isinstance(res, NegativeCycle):
        return (lines + ["status: negative-cycle"] + _cycle_lines(
            res.cycle, _val(res.weight, integral))), EXIT_INFEASIBLE
    lines += ["status: ok", "distances:"]
    lines += [" ".join(_val(x, integral) for x in row) for row in res.dist.values]
    return lines + _meter_lines(res.meter), EXIT_OK


def cmd_negcycle(args) -> Document:
    g = _base(_load(args.file))
    cyc = shortest_negative_cycle(g)
    lines = ["command: negcycle", f"n: {g.n}", f"m: {g.m}"]
    if cyc is None:
        return lines + ["status: no-negative-cycle"], EXIT_OK
    return (lines + ["status: negative-cycle"] + _cycle_lines(
        cyc.cycle, _val(cyc.weight, _integral_weights(g)))), EXIT_OK


def cmd_hubs(args) -> Document:
    g = _base(_load(args.file))
    d = _depth(args, g)
    mode = "deterministic" if args.mode == "det" else "sampled"
    res = build_hub_hierarchy(g, d, mode=mode, seed=args.seed)
    lines = ["command: hubs", f"n: {g.n}", f"m: {g.m}", f"d: {d}",
             f"mode: {mode}"]
    if mode == "sampled":
        lines.append(f"seed: {args.seed}")
    if isinstance(res, NegativeCycle):
        return (lines + ["status: negative-cycle"] + _cycle_lines(
            res.cycle, _val(res.weight, _integral_weights(g)))), EXIT_INFEASIBLE
    lines.append("status: ok")
    for k, level in enumerate(res.levels):
        members = " ".join(str(v + 1) for v in sorted(level))
        lines.append(f"level {1 << k} size={len(level)}: {members}")
    return lines, EXIT_OK


def cmd_minmean(args) -> Document:
    g = _base(_load(args.file))
    lines = ["command: minmean", f"n: {g.n}", f"m: {g.m}"]
    try:
        lam, cyc = min_mean_cycle_karp(g)
    except AcyclicGraphError:
        return lines + ["status: acyclic"], EXIT_INFEASIBLE
    return (lines + ["status: ok", "lambda: " + _val(lam)]
            + _cycle_lines(cyc, _val(cyc.length))), EXIT_OK


def cmd_minratio(args) -> Document:
    if args.method == "binary" and args.iterations < 1:
        raise ValueError("--iterations must be >= 1")
    g = _load(args.file)
    if not isinstance(g, TimedDigraph):
        raise ValueError("minratio needs a timed graph ('p spt' file)")
    lines = ["command: minratio", f"n: {g.base.n}", f"m: {g.base.m}",
             f"method: {args.method}"]
    try:
        if args.method == "binary":
            lo, hi = min_ratio_binary_search(g, args.iterations)
            return lines + [f"iterations: {args.iterations}", "status: ok",
                            "lambda-low: " + _val(lo),
                            "lambda-high: " + _val(hi)], EXIT_OK
        ans = min_ratio_parametric(g)
    except AcyclicGraphError:
        return lines + ["status: acyclic"], EXIT_INFEASIBLE
    cyc = ans.witness
    return (lines + ["status: ok", "lambda: " + _val(ans.lambda_star)]
            + _cycle_lines(cyc, _val(cyc.length))
            + ["time: " + _val(sum(g.times[e] for e in cyc.edges)),
               "certificate: " + " ".join(map(_val, ans.certificate))]), EXIT_OK


def _apsp_ok(g: Digraph) -> bool:
    fw = floyd_warshall_oracle(g)
    return all(isinstance(res := apsp(g, d), ApspResult)
               and np.array_equal(res.dist.values, fw) for d in (1, 2, 4, 8))


def _negcycle_ok(g: Digraph) -> bool:
    cyc = shortest_negative_cycle(g)
    want = negative_cycle_hops_oracle(g)
    return (cyc is not None and want is not None and cyc.hops == want
            and cyc.weight < 0)


def _hubs_ok(g: Digraph) -> bool:
    hier = build_hub_hierarchy(g, 8)
    return not isinstance(hier, NegativeCycle) and all(
        verify_hub_property(g, level, 1 << k)
        for k, level in enumerate(hier.levels))


def _snapshots_ok(g: Digraph) -> bool:
    want = hop_limited_oracle(g, 6)
    return all(np.array_equal(bf_run(g, s, 6).labels[6], want[s])
               for s in range(g.n))


def _minratio_ok(tg: TimedDigraph) -> bool:
    ans = min_ratio_parametric(tg)
    return Fraction(ans.lambda_star) == min(
        Fraction(sum(tg.base.edges[e][2] for e in c.edges),
                 sum(tg.times[e] for e in c.edges))
        for c in enumerate_simple_cycles(tg.base))


# (suite name, seed stride, instance draw, check): instance i of a run
# with seed s is draw(s * stride + i)
_SUITES = [
    ("apsp-vs-floyd-warshall", 100003,
     lambda seed: negative_cycle_free(12, 0.25, -4, 12, seed=seed), _apsp_ok),
    ("negative-cycle-hops", 100019,
     lambda seed: with_negative_cycle(9, 0.3, -5, 7, seed=seed), _negcycle_ok),
    ("hub-property", 100043,
     lambda seed: negative_cycle_free(14, 0.2, -4, 12, seed=seed), _hubs_ok),
    ("snapshot-vs-oracle", 100057,
     lambda seed: random_digraph(10, 0.3, -4, 12, seed=seed), _snapshots_ok),
    ("minratio-vs-enumeration", 100069,
     lambda seed: random_timed(8, 0.3, -3, 9, seed=seed), _minratio_ok),
]


def cmd_verify(args) -> Document:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    lines = ["command: verify", f"seed: {args.seed}", f"count: {args.count}"]
    failures = 0
    for name, stride, draw, ok in _SUITES:
        bad = sum(not ok(draw(args.seed * stride + i))
                  for i in range(args.count))
        failures += bad
        verdict = "pass" if bad == 0 else f"FAIL ({bad}/{args.count})"
        lines.append(f"suite {name}: {verdict}")
    lines.append("status: " + ("ok" if failures == 0 else "failed"))
    return lines, EXIT_OK if failures == 0 else EXIT_INFEASIBLE


def cmd_bench(args) -> Document:
    g = _base(_load(args.file))
    try:
        ds = [int(tok) for tok in args.d_list.split(",") if tok]
    except ValueError:
        raise ValueError("--d-list must be comma-separated integers") from None
    if not ds or any(not (1 <= d <= g.n) for d in ds):
        raise ValueError(f"every d must lie in 1..{g.n}")
    lines = ["command: bench", f"n: {g.n}", f"m: {g.m}"]
    # Each distinct rounded d runs once, in the order first listed.
    for d in dict.fromkeys(map(_rounded_depth, ds)):
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
    return lines, EXIT_OK


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hubapsp",
        description="Deterministic shortest-path toolkit: depth-tunable "
                    "all-pairs distances, shortest negative cycles, and "
                    "minimum mean / cost-to-time ratio cycles.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("file", help="graph file ('p sp' header, 'p spt' "
                       "accepted)")
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
    """Run one command; a refused input is any ValueError, exit 2."""
    args = _parser().parse_args(argv)
    try:
        lines, code = args.fn(args)
        doc = "\n".join(lines) + "\n"
        if args.out is None:
            sys.stdout.write(doc)
        else:
            try:
                with open(args.out, "w", encoding="ascii") as fh:
                    fh.write(doc)
            except OSError as e:
                raise ValueError(
                    f"cannot write {args.out}: {e.strerror}") from None
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
