from fractions import Fraction

import pytest

from hubapsp.fileio import ParseError, parse_graph, parse_graph_text, serialize_graph
from hubapsp.generate import random_digraph, random_timed
from hubapsp.graph import Digraph, build_graph
from hubapsp.parametric import TimedDigraph

PLAIN = "p sp 2 1\na 1 2 5\n"
TIMED = "p spt 2 2\na 1 2 3 1\na 2 1 0 1\n"


def test_parse_minimal_plain():
    g = parse_graph_text(PLAIN)
    assert isinstance(g, Digraph)
    assert g.n == 2 and g.m == 1
    assert g.edges[0] == (0, 1, 5)
    assert isinstance(g.edges[0][2], int)


def test_parse_minimal_timed():
    tg = parse_graph_text(TIMED)
    assert isinstance(tg, TimedDigraph)
    assert tg.base.edges == ((0, 1, 3), (1, 0, 0))
    assert tg.times == (1, 1)


def test_round_trip_is_byte_exact():
    for text in (PLAIN, TIMED):
        assert serialize_graph(parse_graph_text(text)) == text


def test_comments_and_blanks_are_skipped():
    text = "c generated\n\nc more\np sp 2 1\nc inner\na 1 2 5\n"
    assert serialize_graph(parse_graph_text(text)) == PLAIN


def test_float_weights_round_trip():
    text = "p sp 2 1\na 1 2 5.25\n"
    g = parse_graph_text(text)
    assert g.edges[0][2] == 5.25
    assert isinstance(g.edges[0][2], float)
    assert serialize_graph(g) == text


def test_parse_from_file(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text(TIMED)
    tg = parse_graph(path)
    assert serialize_graph(tg) == TIMED


def test_built_graphs_round_trip():
    for seed in range(5):
        g = random_digraph(9, 0.4, -4, 12, seed=3000 + seed)
        assert parse_graph_text(serialize_graph(g)) == g
        tg = random_timed(7, 0.4, -4, 8, seed=3100 + seed)
        back = parse_graph_text(serialize_graph(tg))
        assert back.base == tg.base and back.times == tg.times


def _err(text):
    with pytest.raises(ParseError) as info:
        parse_graph_text(text, source="bad.gr")
    return info.value


def test_arc_out_of_range_names_line():
    err = _err("p sp 2 1\na 1 3 5\n")
    assert err.line == 2
    assert str(err).startswith("bad.gr:2:")


def test_vertex_ids_are_one_based():
    err = _err("p sp 2 1\na 0 1 5\n")
    assert err.line == 2


def test_duplicate_problem_line():
    assert _err("p sp 2 1\np sp 2 1\na 1 2 5\n").line == 2


def test_arc_before_problem_line():
    assert _err("a 1 2 5\np sp 2 1\n").line == 1


def test_missing_problem_line():
    err = _err("c nothing here\n")
    assert err.line is None
    assert "problem line" in str(err)


def test_bad_number():
    assert _err("p sp 2 1\na 1 2 five\n").line == 2


def test_non_finite_weight():
    assert _err("p sp 2 1\na 1 2 inf\n").line == 2
    assert _err("p sp 2 1\na 1 2 nan\n").line == 2


@pytest.mark.parametrize("text,message", [
    ("p sp 2 1\na 1 2 inf\n", "non-finite weight 'inf'"),
    ("p spt 2 1\na 1 2 inf 1\n", "non-finite weight 'inf'"),
    ("p spt 2 1\na 1 2 1 inf\n", "non-finite time 'inf'"),
    ("p spt 2 1\na 1 2 five 1\n", "bad weight 'five'"),
    ("p spt 2 1\na 1 2 1 five\n", "bad time 'five'"),
], ids=["inf-weight", "inf-weight-timed", "inf-time", "bad-weight", "bad-time"])
def test_number_errors_name_their_field_and_line(text, message):
    # A bad time token was once reported as a non-finite weight.
    assert str(_err(text)) == f"bad.gr:2: {message}"


def test_field_count_enforced_per_format():
    assert _err("p sp 2 1\na 1 2\n").line == 2
    assert _err("p sp 2 1\na 1 2 5 1\n").line == 2
    assert _err("p spt 2 1\na 1 2 5\n").line == 2


def test_nonpositive_time_rejected():
    assert _err("p spt 2 1\na 1 2 5 0\n").line == 2
    assert _err("p spt 2 1\na 1 2 5 -1\n").line == 2


def test_declared_count_enforced():
    # one arc too many errors on the extra line
    assert _err("p sp 2 1\na 1 2 5\na 2 1 6\n").line == 3
    # one arc too few errors once the input ends
    too_few = _err("p sp 2 2\na 1 2 5\n")
    assert "2" in str(too_few)


def test_unknown_record_type():
    assert _err("p sp 2 1\nx 1 2 5\n").line == 2


def test_a_record_starting_with_c_is_not_a_comment():
    # Only a first field of exactly "c" makes a comment line.
    assert str(_err("p sp 2 1\ncycle 1 2\na 1 2 5\n")) == (
        "bad.gr:2: unknown record type 'cycle'")
    assert _err("cx\np sp 2 1\na 1 2 5\n").line == 1
    text = "c\n  c indented_comment\nc\tcafe_1\np sp 2 1\na 1 2 5\n"
    assert serialize_graph(parse_graph_text(text)) == PLAIN


@pytest.mark.parametrize("text,line,message", [
    ("p sp 2 1\na 1 2 1_000\n", 2, "'_' outside a comment"),
    ("p sp 2 1\na 1 2 1.5_0\n", 2, "'_' outside a comment"),
    ("p sp 1_0 0\n", 1, "'_' outside a comment"),
    ("p spt 2 1\na 1 2 1 2_0\n", 2, "'_' outside a comment"),
    ("p sp 2 1\na 1 2 \uff15\n", 2, "non-ASCII character in column 7"),
    ("p sp 2 1\na \u0661 2 5\n", 2, "non-ASCII character in column 3"),
    ("c caf\u00e9\np sp 2 1\na 1 2 5\n", 1, "non-ASCII character in column 6"),
    ("p sp 2 1\r\nc\r\na 1 2\u00a05\r\n", 3, "non-ASCII character in column 6"),
], ids=["separator", "float-separator", "header-separator", "time-separator",
        "fullwidth-digit", "arabic-indic-digit", "comment", "crlf-nbsp"])
def test_numbers_python_reads_but_dimacs_does_not_are_refused(text, line, message):
    # int() and float() accept digit separators and every Unicode digit;
    # the format has neither, and serialize never writes them.
    err = _err(text)
    assert err.line == line
    assert str(err) == f"bad.gr:{line}: {message}"


def test_non_ascii_byte_in_a_file_names_its_line(tmp_path):
    path = tmp_path / "x.gr"
    path.write_bytes(b"p sp 2 1\nc caf\xc3\xa9\na 1 2 5\n")
    with pytest.raises(ParseError) as info:
        parse_graph(path)
    assert info.value.line == 2
    assert str(info.value) == f"{path}:2: non-ASCII character in column 6"


def test_bad_problem_line():
    assert _err("p shortest 2 1\na 1 2 5\n").line == 1
    assert _err("p sp -1 0\n").line == 1
    assert _err("p sp 2\n").line == 1


def test_serialize_rejects_unsupported_weight():
    # build_graph keeps a Fraction weight exact, as the constructor does,
    # and a graph file holds only ints and floats.
    for g in (Digraph(2, ((0, 1, Fraction(1, 3)),)),
              build_graph(2, [(0, 1, Fraction(1, 3))])):
        with pytest.raises(TypeError):
            serialize_graph(g)
