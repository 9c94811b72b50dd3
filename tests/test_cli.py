import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hubapsp.cli import main
from hubapsp.fileio import parse_graph

DATA = Path(__file__).parent / "data"
TRI = str(DATA / "triangle-neg.gr")
CYC4 = str(DATA / "cycle4.gr")
TRI_T = str(DATA / "triangle-timed.gr")
RING8 = str(DATA / "ring8.gr")
TIMED6 = str(DATA / "timed6.gr")


def run(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


def test_negcycle_reports_shortest_witness(tmp_path):
    code, doc = run(tmp_path, ["negcycle", TRI])
    assert code == 0
    assert "status: negative-cycle" in doc
    assert "hops: 3" in doc
    assert "weight: -1" in doc.splitlines()  # exact, no float dress
    cyc = next(l for l in doc.splitlines() if l.startswith("cycle: "))
    ids = cyc.split()[1:]
    assert ids[0] == ids[-1] and sorted(ids[:-1]) == ["1", "2", "3"]


def test_negcycle_clean_graph(tmp_path):
    code, doc = run(tmp_path, ["negcycle", CYC4])
    assert code == 0
    assert "status: no-negative-cycle" in doc


def test_apsp_on_four_cycle(tmp_path):
    code, doc = run(tmp_path, ["apsp", "--d", "2", CYC4])
    assert code == 0
    lines = doc.splitlines()
    i = lines.index("distances:")
    assert lines[i + 1:i + 5] == ["0 1 2 3", "3 0 1 2", "2 3 0 1", "1 2 3 0"]
    assert any(l.startswith("total-work: ") for l in lines)
    assert any(l.startswith("phase: closure ") for l in lines)


def test_apsp_negative_cycle_is_infeasible(tmp_path):
    code, doc = run(tmp_path, ["apsp", "--d", "2", TRI])
    assert code == 1
    assert "status: negative-cycle" in doc
    assert "hops: 3" in doc


def test_apsp_rejects_bad_d(tmp_path, capsys):
    assert main(["apsp", "--d", "9", CYC4]) == 2
    assert main(["apsp", "--d", "0", CYC4]) == 2
    assert "--d" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["negcycle", "no-such-file.gr"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p sp 2 1\na 1 5 2\n")
    assert main(["negcycle", str(bad)]) == 2
    assert "bad.gr:2" in capsys.readouterr().err


def test_non_ascii_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "x.gr"
    bad.write_bytes(b"c caf\xc3\xa9\np sp 2 1\na 1 2 5\n")
    assert main(["negcycle", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {bad}:1: non-ASCII character in column 6"]


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["apsp", "--bogus", CYC4])
    assert info.value.code == 2


def test_hubs_rounds_d_down_to_power_of_two(tmp_path):
    code, doc = run(tmp_path, ["hubs", "--d", "5", RING8])
    assert code == 0
    assert "d: 4" in doc
    assert "mode: deterministic" in doc
    levels = [l for l in doc.splitlines() if l.startswith("level ")]
    assert levels and levels[0].startswith("level 1 size=8:")


def test_hubs_sampled_reports_seed(tmp_path):
    code, doc = run(tmp_path, ["hubs", "--d", "4", "--mode", "sampled",
                               "--seed", "9", RING8])
    assert code == 0
    assert "seed: 9" in doc


def test_hubs_negative_cycle_is_infeasible(tmp_path):
    bad = tmp_path / "neg2.gr"
    bad.write_text("p sp 2 2\na 1 2 1\na 2 1 -3\n")
    code, doc = run(tmp_path, ["hubs", "--d", "2", str(bad)])
    assert code == 1
    assert "status: negative-cycle" in doc
    assert "hops: 2" in doc


def test_hubs_shallow_depth_misses_longer_cycle(tmp_path):
    # level invariants are hop-limited, so a 3-hop negative cycle is
    # invisible to a d=2 hierarchy; apsp on the same file still flags it
    code, doc = run(tmp_path, ["hubs", "--d", "2", TRI])
    assert code == 0
    assert "status: ok" in doc


def test_minmean_triangle(tmp_path):
    code, doc = run(tmp_path, ["minmean", TRI])
    assert code == 0
    assert "lambda: -1/3" in doc
    assert "hops: 3" in doc


def test_minmean_acyclic_is_infeasible(tmp_path):
    dag = tmp_path / "dag.gr"
    dag.write_text("p sp 3 2\na 1 2 1\na 2 3 1\n")
    code, doc = run(tmp_path, ["minmean", str(dag)])
    assert code == 1
    assert "status: acyclic" in doc


def test_minratio_parametric_triangle(tmp_path):
    code, doc = run(tmp_path, ["minratio", "--method", "parametric", TRI_T])
    assert code == 0
    assert "lambda: 2" in doc
    assert "hops: 3" in doc
    assert "weight: 6" in doc
    assert "time: 3" in doc


def test_minratio_certificate_satisfies_reduced_costs(tmp_path):
    code, doc = run(tmp_path, ["minratio", "--method", "parametric", TIMED6])
    assert code == 0
    lam = Fraction(next(l.split()[1] for l in doc.splitlines()
                        if l.startswith("lambda: ")))
    price = [Fraction(tok) for tok in
             next(l for l in doc.splitlines()
                  if l.startswith("certificate: ")).split()[1:]]
    tg = parse_graph(TIMED6)
    for (u, v, w), t in zip(tg.base.edges, tg.times):
        assert w - lam * t + price[u] - price[v] >= 0


def test_minratio_binary_brackets_parametric(tmp_path):
    code, doc = run(tmp_path, ["minratio", "--method", "binary",
                               "--iterations", "30", TIMED6])
    assert code == 0
    lines = dict(l.split(": ", 1) for l in doc.splitlines())
    lo, hi = Fraction(lines["lambda-low"]), Fraction(lines["lambda-high"])
    _, pdoc = run(tmp_path, ["minratio", "--method", "parametric", TIMED6],
                  name="p.txt")
    lam = Fraction(next(l.split()[1] for l in pdoc.splitlines()
                        if l.startswith("lambda: ")))
    assert lo <= lam <= hi


def test_minratio_requires_timed_input(capsys):
    assert main(["minratio", "--method", "parametric", CYC4]) == 2
    assert "spt" in capsys.readouterr().err


def test_minratio_binary_rejects_bad_iterations(capsys):
    # Zero steps once escaped as a traceback with exit status 1.
    for steps in ("0", "-3"):
        assert main(["minratio", "--method", "binary", "--iterations", steps,
                     TIMED6]) == 2
        assert capsys.readouterr().err == "error: --iterations must be >= 1\n"


@pytest.mark.parametrize("cmd,flag,printed", [
    ("apsp", "--d", "d: 4"), ("hubs", "--d", "d: 4"),
    ("bench", "--d-list", "d 4: work=")], ids=["apsp", "hubs", "bench"])
def test_d_is_printed_as_it_runs(tmp_path, cmd, flag, printed):
    # d rounds down to a power of two; apsp once printed "d: 5" for a d=4
    # run, a document otherwise identical to the --d 4 one, and bench
    # printed "d 5: work=..." for its d=4 run.
    c5, d5 = run(tmp_path, [cmd, flag, "5", RING8], name="d5.txt")
    c4, d4 = run(tmp_path, [cmd, flag, "4", RING8], name="d4.txt")
    assert (c5, d5) == (c4, d4)
    assert any(line.startswith(printed) for line in d5.splitlines())


def test_bench_lists_each_d(tmp_path):
    code, doc = run(tmp_path, ["bench", "--d-list", "1,2,4", RING8])
    assert code == 0
    for d in (1, 2, 4):
        assert any(l.startswith(f"d {d}: work=") for l in doc.splitlines())
    assert "wallclock" not in doc


def test_bench_runs_each_rounded_d_once(tmp_path):
    # 3 rounds down to 2; the list once printed "d 2: work=..." twice.
    c23, d23 = run(tmp_path, ["bench", "--d-list", "2,3", RING8], name="d23.txt")
    c2, d2 = run(tmp_path, ["bench", "--d-list", "2", RING8], name="d2.txt")
    assert (c23, d23) == (c2, d2)
    c, doc = run(tmp_path, ["bench", "--d-list", "4,1,5,2", RING8])
    assert c == 0
    assert [l.split(":")[0] for l in doc.splitlines() if l.startswith("d ")] == [
        "d 4", "d 1", "d 2"]


def test_bench_rejects_bad_list(tmp_path, capsys):
    assert main(["bench", "--d-list", "1,x", RING8]) == 2
    assert main(["bench", "--d-list", "99", RING8]) == 2
    capsys.readouterr()


def test_verify_passes_on_small_run(tmp_path):
    code, doc = run(tmp_path, ["verify", "--seed", "1", "--count", "2"])
    assert code == 0
    assert "status: ok" in doc
    suites = [l for l in doc.splitlines() if l.startswith("suite ")]
    assert len(suites) == 5 and all(l.endswith(": pass") for l in suites)


def test_verify_rejects_an_empty_count(capsys):
    # A count below 1 once checked nothing and still printed "status: ok".
    for count in ("0", "-1"):
        assert main(["verify", "--count", count]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: --count must be >= 1\n"


# (argv, text of the graph file appended to argv or None, start of the
# one stderr line)
REFUSED = {
    "mixed-weights": (["apsp", "--d", "2",
                       str(DATA / "refused" / "mixed-weights.gr")], None,
                      "error: integer weights this large need exact arithmetic"),
    "float-range": (["apsp", "--d", "1"], "p sp 3 2\na 1 2 1e308\na 2 3 1e308\n",
                    "error: weights this large pass the float range"),
    "bench-empty-graph": (["bench", "--d-list", "1"], "p sp 0 0\n",
                          "error: every d must lie in 1..0"),
    "hubs-empty-graph": (["hubs", "--d", "1",
                          str(DATA / "refused" / "empty.gr")], None,
                         "error: hubs needs at least one vertex"),
    "minmean-float-range": (["minmean",
                             str(DATA / "refused" / "float-range-acyclic.gr")],
                            None, "error: weights this large pass the float range"),
    "unwritable-out": (["negcycle", RING8], None, "error: cannot write "),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_is_one_error_line(tmp_path, capsys, case):
    # Each of these once escaped as a traceback with exit status 1.
    argv, text, want = REFUSED[case]
    if text is not None:
        (tmp_path / "g.gr").write_text(text)
        argv = argv + [str(tmp_path / "g.gr")]
    out = tmp_path / ("no-such-dir/out.txt" if case == "unwritable-out"
                      else "out.txt")
    assert main(argv + ["--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and "Traceback" not in got.err
    assert len(got.err.splitlines()) == 1 and got.err.startswith(want)
    assert not out.exists()


def test_internal_check_failure_still_raises(monkeypatch):
    # An AssertionError is a broken cross-check in the package, not a
    # refused input: it must not turn into an exit status.
    def broken(g):
        raise AssertionError("cross-check failed")

    monkeypatch.setattr("hubapsp.cli.shortest_negative_cycle", broken)
    with pytest.raises(AssertionError, match="cross-check failed"):
        main(["negcycle", RING8])


def test_stdout_when_no_out_flag(capsys):
    assert main(["negcycle", CYC4]) == 0
    assert "status: no-negative-cycle" in capsys.readouterr().out


DETERMINISTIC = [
    ["apsp", "--d", "2", CYC4],
    ["apsp", "--d", "4", RING8],
    ["negcycle", TRI],
    ["hubs", "--d", "4", RING8],
    ["hubs", "--d", "4", "--mode", "sampled", "--seed", "3", RING8],
    ["minmean", TRI],
    ["minratio", "--method", "binary", "--iterations", "40", TIMED6],
    ["minratio", "--method", "parametric", TIMED6],
    ["bench", "--d-list", "1,2,4", RING8],
    ["verify", "--seed", "1", "--count", "1"],
]


@pytest.mark.parametrize("argv", DETERMINISTIC,
                         ids=lambda a: "-".join(a[:2]).lstrip("-"))
def test_two_runs_are_byte_identical(tmp_path, argv):
    c1, d1 = run(tmp_path, argv, name="a.txt")
    c2, d2 = run(tmp_path, argv, name="b.txt")
    assert c1 == c2
    assert d1 == d2


GOLDEN = DATA / "golden"


@pytest.mark.parametrize("method", ["parametric", "binary"])
@pytest.mark.parametrize("name", ["timed6", "triangle-timed", "timed6-tenths",
                                  "timed4-dyadic", "timed6-wide"])
def test_minratio_matches_golden_document(tmp_path, method, name):
    # Written by the all-Fraction ratio search; every later engine must
    # reproduce it byte for byte.  timed6-tenths is timed6 with every cost
    # times 0.1, written as decimals: float costs with long binary expansions.
    # timed4-dyadic's costs reach down to 2^-27, so its symbolic run stays
    # in float64 while its breakpoints pass the int64 bound; its documents
    # were written by the search that signed every breakpoint on Python ints.
    # timed6-wide is timed6 with every cost times 2^40 + 1, so bisection
    # probes on object arrays before its bracket pins lam*; its documents
    # were written by the bisection that probed all 60 steps.
    code, doc = run(tmp_path, ["minratio", "--method", method,
                               str(DATA / f"{name}.gr")])
    assert code == 0
    assert doc == (GOLDEN / f"minratio-{method}-{name}.txt").read_text()


@pytest.mark.parametrize("name", ["karp-close-means", "timed6", "triangle-timed"])
def test_minmean_matches_golden_document(tmp_path, name):
    # Each lambda and witness mean was checked against Fraction cycle
    # enumeration.  karp-close-means holds two cycle means that round to
    # one float64; Karp must still pick the smaller.
    code, doc = run(tmp_path, ["minmean", str(DATA / f"{name}.gr")])
    assert code == 0
    assert doc == (GOLDEN / f"minmean-{name}.txt").read_text()


# d is 8 (64 on ring64, which has paths enough to exercise greedy
# tie-breaks), cut to n on the smaller graphs, which the CLI requires.
GRAPH_GOLDEN = [
    (name, command)
    for name in ["cycle4", "ring8", "ring64", "timed6", "triangle-neg",
                 "triangle-timed"]
    for command in ["hubs", "negcycle", "apsp"]
]
HUB_D = {"cycle4": 4, "ring8": 8, "ring64": 64, "timed6": 6,
         "triangle-neg": 3, "triangle-timed": 3}


@pytest.mark.parametrize("name,command", GRAPH_GOLDEN)
def test_graph_command_matches_golden_document(tmp_path, name, command):
    # Pinned hub levels, cycles, distances and meter counts: every engine
    # change must reproduce them byte for byte.
    argv = {"hubs": ["hubs", "--d", str(HUB_D[name])],
            "negcycle": ["negcycle"],
            "apsp": ["apsp", "--d", "2"]}[command]
    code, doc = run(tmp_path, argv + [str(DATA / f"{name}.gr")])
    assert code in (0, 1)
    assert doc == (GOLDEN / f"{command}-{name}.txt").read_text()


@pytest.mark.parametrize("d", [8, 16, 64])
def test_deeper_apsp_prints_the_pinned_distances(tmp_path, d):
    # The golden apsp documents run d = 2, one hub level; deeper hierarchies
    # resume label runs and lift through several levels, to the same block.
    def block(doc):
        lines = doc.splitlines()
        i = lines.index("distances:")
        return lines[i:i + 65]

    code, doc = run(tmp_path, ["apsp", "--d", str(d), str(DATA / "ring64.gr")])
    assert code == 0
    assert block(doc) == block((GOLDEN / "apsp-ring64.txt").read_text())


@pytest.mark.parametrize("name", ["ring64", "ring64-wide"])
def test_top_level_apsp_matches_golden_document(tmp_path, name):
    # At d=1 every vertex is a hub, so the closure squares the whole 64 x 64
    # matrix: in float32 on ring64, and in float64 on ring64-wide (every
    # weight times 2^20), past the bound under which float32 is exact.
    code, doc = run(tmp_path, ["apsp", "--d", "1", str(DATA / f"{name}.gr")])
    assert code == 0
    assert doc == (GOLDEN / f"apsp-{name}-d1.txt").read_text()


def test_multi_level_apsp_matches_golden_document(tmp_path):
    # At d=16 apsp lifts through five hub levels, which are not nested;
    # the meter report pins every level's lift, not only the distances.
    code, doc = run(tmp_path, ["apsp", "--d", "16", str(DATA / "ring64.gr")])
    assert code == 0
    assert doc == (GOLDEN / "apsp-ring64-d16.txt").read_text()


def test_module_entry_point_prints_the_golden_document():
    # `python -m hubapsp` (`__main__.py`) writes the document to standard
    # output; run from the repository root on the source tree.
    root = DATA.parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-m", "hubapsp", "negcycle",
                          "tests/data/ring8.gr"],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / "negcycle-ring8.txt").read_text()
