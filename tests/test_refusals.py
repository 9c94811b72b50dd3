"""Refusals and empty-input answers that no other test reaches, each pinned
to its exception type and message."""
import pytest

from hubapsp.bellman_ford import bf_run, bf_step, extract_minimal_path, relax
from hubapsp.cli import main
from hubapsp.fileio import ParseError, parse_graph_text
from hubapsp.generate import ring_with_chords
from hubapsp.graph import Digraph, build_graph, hop_limited_oracle
from hubapsp.hubs import (build_hub_hierarchy, collect_minimal_paths, extend_hubs,
                          sample_hubs, shortest_negative_cycle, verify_hub_property)
from hubapsp.minplus import apsp
from hubapsp.parametric import _negative_cycle_at, build_timed_graph

RING3 = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
TIMED2 = build_timed_graph(2, [(0, 1, 1, 1), (1, 0, 1, 2)])


def _minratio_on_a_dag(method):
    def call(tmp_path):
        dag = tmp_path / "dag.gr"
        dag.write_text("p spt 3 2\na 1 2 1 1\na 2 3 1 2\n")
        out = tmp_path / "out.txt"
        code = main(["minratio", "--method", method, str(dag), "--out", str(out)])
        return code, out.read_text().splitlines()[-1]
    return call


CASES = {
    "apsp-no-vertices": (lambda _: apsp(Digraph(0, []), 1),
                         ValueError("graph has no vertices")),
    "apsp-d-below": (lambda _: apsp(RING3, 0), ValueError("d must lie in 1..3, got 0")),
    "apsp-d-above": (lambda _: apsp(RING3, 4), ValueError("d must lie in 1..3, got 4")),
    "hierarchy-d": (lambda _: build_hub_hierarchy(RING3, 3),
                    ValueError("level count must be a positive power of two, got 3")),
    "hierarchy-mode": (lambda _: build_hub_hierarchy(RING3, 2, mode="random"),
                       ValueError("unknown mode 'random'")),
    "sample-h-below": (lambda _: sample_hubs(3, 0, 1), ValueError("hop bound 0 outside 1..3")),
    "sample-h-above": (lambda _: sample_hubs(3, 4, 1), ValueError("hop bound 4 outside 1..3")),
    "extend-h": (lambda _: extend_hubs(RING3, {0}, 0),
                 ValueError("hop bound must be at least 1")),
    "collect-h": (lambda _: collect_minimal_paths(RING3, {0}, 0),
                  ValueError("hop count must be at least 1")),
    "verify-h": (lambda _: verify_hub_property(RING3, {0}, 0),
                 ValueError("hop bound must be at least 1")),
    "relax-steps": (lambda _: relax(RING3, [[0, 0, 0]], -1),
                    ValueError("step count must be nonnegative")),
    "bf-step-row": (lambda _: bf_step(RING3, [0, 0]),
                    ValueError("label row must have length 3")),
    "extract-h-below": (lambda _: extract_minimal_path(bf_run(RING3, 0, 2), 1, 0),
                        ValueError("hop count 0 outside 1..2")),
    "extract-h-above": (lambda _: extract_minimal_path(bf_run(RING3, 0, 2), 1, 3),
                        ValueError("hop count 3 outside 1..2")),
    "oracle-k": (lambda _: hop_limited_oracle(RING3, -1),
                 ValueError("hop budget must be nonnegative")),
    "nonstrict-float": (lambda _: _negative_cycle_at(TIMED2, 0.5, nonstrict=True),
                        ValueError("a nonstrict decision needs a rational lam")),
    "parse-n": (lambda _: parse_graph_text("p sp 2.5 1\na 1 2 3\n"),
                ParseError("N and M must be integers", "<string>", 1)),
    "parse-m": (lambda _: parse_graph_text("p sp 2 x\na 1 2 3\n"),
                ParseError("N and M must be integers", "<string>", 1)),
    "parse-vertex": (lambda _: parse_graph_text("p sp 2 1\na 1 2.0 3\n"),
                     ParseError("vertex ids must be integers", "<string>", 2)),
    "ring-n": (lambda _: ring_with_chords(1, 0, seed=1), ValueError("ring needs n >= 2")),
    "ring-weight": (lambda _: ring_with_chords(4, 1, seed=1, chord_lo=-1),
                    ValueError("ring and chord weights must be nonnegative")),
    # Two answers rather than refusals: an empty graph has no cycle, and
    # both ratio methods report an acyclic file and exit 1.
    "negcycle-no-vertices": (lambda _: shortest_negative_cycle(Digraph(0, [])), None),
    "minratio-parametric-dag": (_minratio_on_a_dag("parametric"), (1, "status: acyclic")),
    "minratio-binary-dag": (_minratio_on_a_dag("binary"), (1, "status: acyclic")),
}


@pytest.mark.parametrize("call,want", CASES.values(), ids=CASES.keys())
def test_refusal(call, want, tmp_path):
    if not isinstance(want, Exception):
        assert call(tmp_path) == want
        return
    with pytest.raises(Exception) as exc:
        call(tmp_path)
    assert type(exc.value) is type(want)
    assert str(exc.value) == str(want)
