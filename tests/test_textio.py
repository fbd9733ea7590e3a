"""The shared text layer: format rules, malformed input, reader fuzz, round trips."""

import csv
from fractions import Fraction as F
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from poslim import cli, densities, graphs, measures, poset, recognition, sampling
from poslim import semiorders
from poslim import textio
from poslim.errors import (
    FormatError,
    InvalidArgument,
    InvariantError,
    PoslimError,
    SizeLimit,
)
from poslim.rng import SeededRng

import reference as ref
from conftest import outcome, posets, step_measures

READERS = {
    "poset": poset.read_poset,
    "graph": graphs.read_graph,
    "measure": measures.read_measure,
    "pwl": semiorders.read_g,
    "rate": semiorders.read_rate,
    "representation": recognition.read_representation,
}

# -- format rules -------------------------------------------------------------


def test_rationals_and_cells():
    assert textio.format_rational(F(0)) == "0/1"
    assert textio.format_rational(F(-6, 4)) == "-3/2"
    assert textio.parse_rational("3/6") == F(1, 2)
    assert textio.parse_rational("0.25") == F(1, 4)
    assert textio.to_csv(["a", "b", "c", "d"], [[True, None, F(2), 0.5]]) == (
        "a,b,c,d\n1,,2/1,0.5\n"
    )
    assert textio.to_json({"x": [F(1, 3)]}) == '{\n  "x": [\n    "1/3"\n  ]\n}\n'
    assert textio.write_rows("rate", 1, [textio.fields(F(0), F(1), 2)]) == (
        "rate 1\n0/1 1/1 2\n"
    )


_den = st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1 << 62, 1 << 70))


@given(
    _den.flatmap(lambda den: st.tuples(st.just(den), st.lists(
        st.one_of(st.sampled_from([0, den, -den]), st.integers(-den, den),
                  st.integers(-(1 << 70), 1 << 70)), min_size=1, max_size=20))),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_format_rationals_equals_format_rational(den_num, as_object):
    """Each k/den as `format_rational(Fraction(k, den))`: 0, ±den, den = 1
    and values past 2^63, on int64 columns where they fit and object ones."""
    den, num = den_num
    fits = all(abs(k) < 1 << 63 for k in num)
    column = np.array(num, dtype=object if as_object or not fits else np.int64)
    assert textio.format_rationals(column, den) == [textio.format_rational(F(k, den)) for k in num]


def test_format_rationals_on_narrow_columns():
    for dtype in (np.int32, np.uint16):
        column = np.array([0, 3, 6, 40000], dtype=dtype)
        assert textio.format_rationals(column, 6) == ["0/1", "1/2", "1/1", "20000/3"]
        assert textio.format_rationals(column, 1 << 40)[1] == f"3/{1 << 40}"
    assert textio.format_rationals(np.array([1 << 62]), 1 << 64) == ["1/4"]


def test_to_json_refuses_tokens_that_are_not_json():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            textio.to_json({"threshold": value})


def test_blank_lines_ignored():
    assert poset.read_poset("\n  \nposet 3\n\n1 2\n  \n2 3\n\n") == poset.chain(3)
    rep = recognition.interval_representation(poset.chain(3))
    text = recognition.write_representation(rep).replace("\n", "\n\n")
    back = recognition.read_representation(text)
    assert back == rep and back.intervals == rep.intervals
    assert recognition.write_representation(back) == text.replace("\n\n", "\n")


# -- readers reject malformed files ---------------------------------------------

BAD_FILES = [
    ("poset", "posets 2\n1 2\n"),  # keyword matched by prefix before
    ("poset", "poset\n"),
    ("poset", "poset two\n"),
    ("poset", "poset 2 3\n"),
    ("poset", "poset -1\n"),
    ("poset", "poset 3\n1 2 3\n"),
    ("poset", "poset 3\n1 x\n"),
    ("poset", "poset 2\n1 2\n2 1\n"),
    ("graph", "graphs 2\n1 2\n"),
    ("graph", "graph 3\n1 x\n"),
    ("graph", "graph -1\n"),
    ("poset", "poset 1000000000\n"),  # tried to allocate a mask row per point
    ("graph", "graph 1000000000\n"),
    ("measure", ""),
    ("measure", "atomz 1\n0 1 1\n"),
    ("measure", "atoms 2\n0 1 1\n"),  # declared count never checked before
    ("measure", "atoms 1\n0 1 1/0\n"),
    ("measure", "atoms 1\n0 1e5000 1\n"),  # exited 1: too long to print
    ("measure", "stepmeasure 2\n0 1 : 1 1\n"),
    ("measure", "stepmeasure 1\n0 1 1 1\n"),
    ("measure", "stepmeasure 1\n0 1 : 1\n"),
    ("pwl", "pwl 3\n0 1 1 0\n1 1 1 0\n"),
    ("pwl", "pwl 2\n0 1/0 1 0\n1 1 1 0\n"),  # ZeroDivisionError before
    ("pwl", "pwl 2\n0 a 1 0\n1 1 1 0\n"),
    ("pwl", "pwl 0\n"),
    ("pwl", "pwlx 2\n0 1 1 0\n1 1 1 0\n"),
    ("rate", "rate 2\n0 1 1\n"),
    ("rate", "rate 1\n0 1 one\n"),
    ("rate", "rated 1\n0 1 1\n"),
    ("representation", "index,rank,a,b\n1,1,1/2,1/1\n1,2,1/1,1/1\n"),  # repeated
    ("representation", "index,rank,a,b\n1,1,1/2,1/1\n3,2,1/1,1/1\n"),  # missing 2
    ("representation", "index,rank,a,b\n1,1,1/2\n"),
    ("representation", "index,rank,a,b\nx,1,1/2,1/1\n"),
    ("representation", "index,rank,a,b\n1,1,1/0,1/1\n"),
    ("representation", "rank,index,a,b\n"),
    ("representation", "index,rank,a,b\n1,1,\0,1\n"),
    ("representation", "index,rank,a,b\n1,1,1/1,1/2\n"),  # an empty interval
    ("representation", "index,rank,a,b\n"),  # no rows: n = 0
    ("representation", "index,rank,a,b\n1,7,1/2,1/1\n2,7,1/1,1/1\n"),  # ranks not a's
]


@pytest.mark.parametrize("kind,text", BAD_FILES)
def test_reader_rejects(kind, text):
    with pytest.raises(PoslimError):
        READERS[kind](text)


def test_point_cap_is_inclusive():
    assert poset.read_poset(f"poset {textio.MAX_POINTS}\n").n == textio.MAX_POINTS
    with pytest.raises(SizeLimit):
        poset.read_poset(f"poset {textio.MAX_POINTS + 1}\n")


def test_representation_point_cap_is_inclusive():
    def rows(n):  # distinct left ends i/n, so rank i
        return "index,rank,a,b\n" + "".join(f"{i},{i},{i}/{n},{i}/{n}\n" for i in range(1, n + 1))

    assert recognition.read_representation(rows(textio.MAX_POINTS)).n == textio.MAX_POINTS
    with pytest.raises(SizeLimit, match=f"{textio.MAX_POINTS + 1} points"):
        recognition.read_representation(rows(textio.MAX_POINTS + 1))


def test_representation_cap_applies_before_any_row_is_checked():
    """5,001 rows whose last is short: the cap is the fault, not the row's width."""
    n = textio.MAX_POINTS + 1
    text = "index,rank,a,b\n" + "".join(f"{i},{i},{i}/{n},{i}/{n}\n" for i in range(1, n)) + f"{n},{n}\n"
    with pytest.raises(SizeLimit, match=f"representation has {n} points"):
        recognition.read_representation(text)


def test_representation_index_faults_are_format_errors():
    for _, text in [f for f in BAD_FILES if f[0] == "representation"][:2]:
        with pytest.raises(FormatError, match="index"):
            recognition.read_representation(text)


def test_representation_intervals_and_ranks_are_checked():
    *_, empty, no_rows, ranks = [t for k, t in BAD_FILES if k == "representation"]
    with pytest.raises(InvariantError, match="interval 0 is empty"):
        recognition.read_representation(empty)
    with pytest.raises(InvariantError, match="non-empty"):
        recognition.read_representation(no_rows)
    with pytest.raises(FormatError, match="rank column"):
        recognition.read_representation(ranks)


# -- every malformed input exits 2 from the CLI ----------------------------------

# (file name, file text, argv with {f} for the file's path and {good} for a
# well-formed poset file)
CLI_FAULTS = [
    ("p.poset", "posets 2\n1 2\n", ["recognize", "--in", "{f}"]),
    ("p.poset", "poset 2\n1 x\n", ["nu", "--in", "{f}", "--sign", "minus"]),
    ("p.poset", "poset 2\n1 2\n2 1\n", ["converge", "--in", "{f}"]),
    ("a.measure", "atoms 2\n0 1 1\n", ["sample", "--kernel", "measure", "--in", "{f}",
                                      "--n", "5", "--seed", "1"]),
    ("s.measure", "stepmeasure 2\n0 1 : 1 1\n", ["project", "--in", "{f}"]),
    ("s.measure", "stepmeasure 1\n0 1 : 1 x\n", ["equiv", "--a", "{f}", "--b", "{f}"]),
    ("g.pwl", "pwl 2\n0 1/0 1 0\n1 1 1 0\n", ["sample", "--kernel", "g", "--in", "{f}",
                                             "--n", "5", "--seed", "1"]),
    ("g.pwl", "pwl 3\n0 1 1 0\n1 1 1 0\n",
     ["converge", "--in", "{good}", "--g", "{f}"]),
    ("g.pwl", "pwl 0\n", ["sample", "--kernel", "g", "--in", "{f}", "--n", "5",
                          "--seed", "1"]),
    ("r.rate", "rate 1\n0 1 x\n", ["sample", "--kernel", "rate", "--in", "{f}",
                                   "--n", "5", "--seed", "1"]),
    ("r.rate", "rate 2\n0 1 1\n", ["converge", "--in", "{good}", "--rate", "{f}"]),
    ("b.poset", b"\xff\xfe\x00poset", ["recognize", "--in", "{f}"]),
    ("e.measure", "atoms 1\n0 1e5000 1\n", ["sample", "--kernel", "measure", "--in",
                                            "{f}", "--n", "5", "--seed", "1"]),
]

ARGUMENT_FAULTS = [
    ["sample", "--kernel", "gc", "--c", "1/4", "--n", "0", "--seed", "1"],
    ["sample", "--kernel", "gc", "--c", "1/4", "--n", "-5", "--seed", "1"],
    ["rgo", "--n", "10", "--p", "0", "--seed", "1"],
    ["rgo", "--n", "0", "--p", "1/2", "--seed", "1"],
    ["rgo", "--n", "-3", "--p", "1/2", "--seed", "1"],
    ["sample", "--kernel", "gc", "--c", "1/0", "--n", "5", "--seed", "1"],
    ["density", "--kind", "hom", "--q", "h", "--p", "chain" + "9" * 5000],  # exited 1
    ["density", "--kind", "hom", "--q", "q" + "9" * 5000 + "+", "--p", "h"],
    ["density", "--kind", "hom", "--q", "h", "--p", "chain" + "0" * 5000 + "9999"],
]


def _exit_code(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name,content,argv", CLI_FAULTS)
def test_cli_malformed_file_exits_2(tmp_path, capsys, name, content, argv):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    good = tmp_path / "good.poset"
    good.write_text("poset 3\n1 2\n")
    code, err = _exit_code(capsys, [a.format(f=path, good=good) for a in argv])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", ARGUMENT_FAULTS)
def test_cli_bad_argument_exits_2(capsys, argv):
    code, err = _exit_code(capsys, argv)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("extra", [["--n", "0"], ["--trials", "10"]])
def test_cli_bad_statistical_argument_exits_2(tmp_path, capsys, extra):
    path = tmp_path / "m.measure"
    path.write_text("atoms 1\n0 1 1\n")
    argv = ["equiv", "--a", str(path), "--b", str(path), "--statistical",
            "--seed", "1", *extra]
    code, err = _exit_code(capsys, argv)
    assert code == 2 and "error:" in err


def test_c_parameter_rejects_empty():
    with pytest.raises(InvalidArgument):
        sampling.c_parameter(0, 0.5)


_CHAIN = poset.chain(3)
_NU = measures.StepCDF.from_jumps([(F(1, 2), 1)])
_ATOMS = measures.AtomicMeasure.dirac(0, 1)

LIBRARY_ARGUMENT_FAULTS = {
    "degree.sign": lambda: _CHAIN.degrees("up"),
    "count_maps.kind": lambda: densities.count_maps(_CHAIN, _CHAIN, "iso"),
    "moment_identity_check.k": lambda: densities.moment_identity_check(_CHAIN, 0, "minus"),
    "moment_identity_check.sign": lambda: densities.moment_identity_check(_CHAIN, 1, "both"),
    "kernel_density_mc.samples": lambda: densities.kernel_density_mc(
        _CHAIN, semiorders.MonotoneRC.identity(), 99, 1
    ),
    "h_map.variant": lambda: measures.h_map(_NU, F(1, 4), "bar_minus"),
    "push_h.variant": lambda: measures.push_h(_ATOMS, "plus"),
    "SeededRng._key.index": lambda: SeededRng(1).uniforms(1, 3, index=-1),
    "nu_empirical.sign": lambda: sampling.nu_empirical(_CHAIN, "both"),
    "SeededRng.raw.count": lambda: SeededRng(1).raw(1, -1),
    "enumerate_graphs.0": lambda: graphs.enumerate_graphs(0),
    "enumerate_graphs.-3": lambda: graphs.enumerate_graphs(-3),
    "empty_graph.n": lambda: graphs.empty_graph(-2),
    "complete_graph.n": lambda: graphs.complete_graph(-1),
    "cycle_graph.2": lambda: graphs.cycle_graph(2),
    "cycle_graph.0": lambda: graphs.cycle_graph(0),
    # K7 has 2^21 orientations: refused before the first is tried
    "poset_orientations.size": lambda: graphs.poset_orientations(graphs.complete_graph(7)),
}


@pytest.mark.parametrize(
    "call", LIBRARY_ARGUMENT_FAULTS.values(), ids=LIBRARY_ARGUMENT_FAULTS.keys()
)
def test_library_argument_check_raises_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()


# -- fuzz: any text parses or raises a PoslimError -----------------------------

_KEYWORDS = ["poset", "graph", "atoms", "stepmeasure", "pwl", "rate", "posets", "x"]
# header counts and every integer token stay <= 64, so no input asks for a
# large allocation
_token = st.one_of(
    st.sampled_from([":", ";", "1/0", "0/0", "x", "", "-", "1.5", "nan", "index",
                     "1e5000", "-1E-5000"]),
    st.integers(-2, 64).map(str),
    st.fractions(-1, 2, max_denominator=8).map(str),
    st.fractions(0, 1, max_denominator=8).map(textio.format_rational),
)
_line = st.builds(
    lambda sep, tokens: sep.join(tokens),
    st.sampled_from([" ", ",", " : ", " ; ", "\t"]),
    st.lists(_token, max_size=6),
)
_header = st.one_of(
    st.builds("{} {}".format, st.sampled_from(_KEYWORDS), st.integers(-1, 64)),
    st.just("index,rank,a,b"),
    _line,
)
_text = st.one_of(
    st.builds(
        lambda h, body: "\n".join([h, *body]), _header, st.lists(_line, max_size=8)
    ),
    st.text(alphabet="0123456789 /-:;,.\n\tx", max_size=40),
)


@pytest.mark.parametrize("kind", sorted(READERS))
@given(text=_text)
@settings(max_examples=150, deadline=None)
def test_reader_fuzz(kind, text):
    try:
        READERS[kind](text)
    except PoslimError:
        pass


# -- fuzz: writer output round-trips ------------------------------------------


@given(posets(max_n=7))
@settings(max_examples=40, deadline=None)
def test_graph_roundtrip(p):
    g = graphs.comparability_graph(p)
    assert graphs.read_graph(graphs.write_graph(g)) == g
    assert graphs.read_graph(graphs.write_graph(g).replace("\n", "\r\n")) == g


@given(step_measures())
@settings(max_examples=40, deadline=None)
def test_atoms_roundtrip(mu):
    atoms = measures.push_h(mu, "minus")
    assert measures.read_measure(measures.write_measure(atoms)) == atoms


@given(st.lists(st.tuples(st.integers(1, 8), st.fractions(0, 5, max_denominator=9)),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rate_roundtrip(pieces):
    total = sum(w for w, _ in pieces)
    cuts = [F(sum(w for w, _ in pieces[:i]), total) for i in range(len(pieces) + 1)]
    r = semiorders.RateFunction.from_pieces(
        [(cuts[i], cuts[i + 1], v) for i, (_, v) in enumerate(pieces)]
    )
    assert semiorders.read_rate(semiorders.write_rate(r)) == r


@given(
    st.integers(1, 40), st.integers(0, 2**32), st.fractions(0, 1, max_denominator=10)
)
@settings(max_examples=30, deadline=None)
def test_representation_roundtrip(n, seed, c):
    p = sampling.sample_kernel_poset(semiorders.gc(c), n, SeededRng(seed))
    rep = recognition.interval_representation(p)
    text = recognition.write_representation(rep)
    back = recognition.read_representation(text)
    assert back == rep and back.intervals == rep.intervals
    assert recognition.write_representation(back) == text


# -- the integer-row parser against the `rows` reference ------------------------


def _graph(n, pairs):
    return graphs.SimpleGraph.from_edges(n, [(a - 1, b - 1) for a, b in pairs])


def assert_parsers_agree(body, n=3):
    """`int_pairs`, `read_poset` and `read_graph` against `ref.read_pairs`
    and the models built on it: the same values or the same error."""
    fast = outcome(lambda: textio.int_pairs(body))
    if isinstance(fast, tuple) and isinstance(fast[0], np.ndarray):
        fast = list(zip(*(c.tolist() for c in fast)))
    assert fast == outcome(lambda: ref.read_pairs(body))
    for keyword, read, model in (
        ("poset", poset.read_poset, ref.relation),
        ("graph", graphs.read_graph, _graph),
    ):
        got = outcome(lambda: read(f"{keyword} {n}{body}"))
        assert got == outcome(lambda: model(n, ref.read_pairs(body)))
        if isinstance(got, poset.FinitePoset):
            got.check_valid()


PAIR_BODIES = [
    "\n1 2\n2 3\n",
    "\r\n1 2\r\n2 3\r\n",  # CRLF
    "\r1 2\r2 3",  # CR only, no final newline
    "\n1\t2\n \t2 \t 3\t\n",  # tabs and padding
    "\n001 0002\n",  # leading zeros
    "\n\n  \n\t\n1 2\n\n",  # blank and whitespace-only lines
    "\n1 2\n2 3",  # no final newline
    "\n1\n",  # one field
    "\n1 2 3\n",  # three fields
    "\n1 2\n1 2 3\n3\n",  # the first bad line is named
    "\n1 x\n",
    "\n+1 2\n",  # `int` accepts a sign
    "\n1_0 2\n",  # and underscores
    "\n\u0661 2\n",  # and non-ASCII digits
    "\n1 " + "1" * 30 + "\n",  # a token past int64
    "\n1 " + "9" * 18 + "\n",  # the longest token parsed in numpy
    "\n1 0\n",  # out of range
    "\n3 1\n1 4\n",  # the first pair out of range is named
    "\n1 2\n2 1\n",  # a cycle
    "\n2 2\n",  # a self-pair
    "\x0c1 2\x0b2 3\x1c",  # other `splitlines` breaks
    "\u20281 2\x852 3\u2029",
    "",
    "\n",
    # gaps of 3 bytes or more whose only line breaks are inside
    "\n1 2 \n 3 4",
    "\n1 2\t\r\n\t3 4",
    "\n1 2 \n\n 3 4\n",
    "\n1 \t \t 2\n",  # and none
    "\n1 \n 2\n",  # one field either side
    "\n1 2 \n 3 \r\n\t4 5\n",
    # tokens across the 4-digit word boundaries, with and without leading zeros
    "\n123 1234\n12345 12345678\n123456789 12345678901234567\n",
    "\n007 0012\n00012 00000123\n000000123 00000000000000017\n",
    "\n1 2\n12345678 9\n000000001 12345\n",  # long tokens open blocks of 4 and 16
    "\n3 0003\n000000000000000003 1\n",  # pairs in range, zeros on the left
    "\n3 0003\n0000000000000000003 1\n",  # 19 digits: left to `rows`
]


@pytest.mark.parametrize("body", PAIR_BODIES)
@pytest.mark.parametrize("block", [4, 16, 1 << 16])
def test_int_pairs_matches_rows(body, block):
    with mock.patch.object(textio, "_BLOCK", block):
        assert_parsers_agree(body)


def test_int_pairs_parses_plain_bodies_in_numpy():
    tails, heads = textio.int_pairs("\r\n1 2\r\n\t3  4")
    assert tails.dtype == np.int32 and tails.tolist() == [1, 3] and heads.tolist() == [2, 4]
    assert textio.int_pairs("\n+1 2")[0].dtype == object  # left to `rows`
    for body in ("\n1 2 \n 3 4", "\n1 2\t\r\n\t3 4", "\n1 2 \n\n 3 4\n"):  # inner breaks
        tails, heads = textio.int_pairs(body)
        assert tails.dtype == np.int32 and (tails.tolist(), heads.tolist()) == ([1, 3], [2, 4])
    assert textio.int_pairs("poset 4\n1 2\n3 4", 7)[0].tolist() == [1, 3]  # read in place


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("width", [10, 13, 18])
def test_int_pairs_columns_are_int32_up_to_9_digits(where, width):
    """Bodies of tokens of at most 9 digits give int32 columns; one token of
    10 to 18 digits, in any block and either column, gives int64 for both."""
    lines = [f"{k} {999999999 - k}" for k in range(60)]
    with mock.patch.object(textio, "_BLOCK", 64):
        tails, heads = textio.int_pairs("\n".join(lines))
        assert tails.dtype == heads.dtype == np.int32
        assert tails.tolist() == list(range(60)) and heads[0] == 999999999
        big = "9" * (width - 1) + "7"
        at = {"first": 0, "middle": 30, "last": 59}[where]
        lines[at] = f"{at} {big}" if where == "middle" else f"{big} {999999999 - at}"
        tails, heads = textio.int_pairs("\n".join(lines))
    assert tails.dtype == heads.dtype == np.int64
    assert (tails if where != "middle" else heads)[at] == int(big)
    assert tails.flags.c_contiguous and heads.flags.c_contiguous


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_int_pairs_cuts_a_body_without_line_feeds_into_blocks(end):
    """A CR-only body (and CRLF) is cut into blocks at its carriage returns,
    not read as one block, and equals the LF parse."""
    body = "".join(f"{k} {k + 1}\n" for k in range(1, 400))
    blocks, pair_block = [], textio._pair_block

    def counted(text):
        blocks.append(text)
        return pair_block(text)

    with mock.patch.object(textio, "_BLOCK", 64), mock.patch.object(textio, "_pair_block", counted):
        want = textio.int_pairs(body)
        got = textio.int_pairs(body.replace("\n", end))
    assert len(blocks) > 2 * len(body) // (64 + 16)  # both bodies, each in blocks of one line past 64
    assert max(map(len, blocks)) < 64 + 16
    assert all(np.array_equal(g, w) and g.dtype == w.dtype == np.int32 for g, w in zip(got, want))


_pair_token = st.sampled_from(
    ["1", "2", "3", "4", "0", "03", "x", "+1", "-2", "\u0661", "1_0", "1" * 30, "9" * 19]
    # 3, 4, 5, 8, 9 and 17 digits, with and without leading zeros
    + ["123", "0012", "12345", "00003", "12345678", "00000002", "987654321", "000000001"]
    + ["12345678901234567", "00000000000000003"]
)
# padding either side of a line break makes gaps of 3 bytes or more whose
# breaks are only inside: " \n ", "\t\r\n\t", " \n\n " across a blank line
_pad = st.sampled_from(["", " ", "\t", " \t", "  "])
_pair_line = st.builds(
    lambda pad, sep, tokens, end: pad + sep.join(tokens) + end,
    _pad,
    st.sampled_from([" ", "\t", " \t "]),
    st.lists(st.one_of(st.sampled_from(["1", "2", "3"]), _pair_token), max_size=3),
    _pad,
)
_pair_body = st.builds(
    lambda br, lines, last: br + br.join(lines) + last,
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.lists(_pair_line, max_size=8),
    st.sampled_from(["", "\n"]),
)


@given(_pair_body, st.sampled_from([4, 16, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_int_pairs_matches_rows_generated(body, block):
    """Same columns, poset and graph, or the same error class and message,
    whatever the block size."""
    with mock.patch.object(textio, "_BLOCK", block):
        assert_parsers_agree(body)


@pytest.mark.parametrize("block", [4, 16, 1 << 16])
def test_int_pairs_reads_every_width_as_int_does(block):
    """Every width from 1 to 18 digits, at the start and the end of a line
    and of a block, with and without leading zeros, equals `int`."""
    rng = np.random.default_rng(block)
    tokens = []
    for width in range(1, 19):
        for _ in range(6):
            digits = "".join(rng.choice(list("0123456789"), width))
            tokens += [digits, "1" + digits[1:], "0" * (width - 1) + digits[-1]]
    tokens += ["9" * 18, "1" + "0" * 17]
    tokens += ["0"] * (len(tokens) % 2)
    body = "".join(f"{a} {b}\n" for a, b in zip(tokens[0::2], tokens[1::2]))
    with mock.patch.object(textio, "_BLOCK", block):
        tails, heads = textio.int_pairs(body)
    assert tails.dtype == heads.dtype == np.int64
    assert tails.flags.c_contiguous and heads.flags.c_contiguous
    assert tails.tolist() == [int(t) for t in tokens[0::2]]
    assert heads.tolist() == [int(t) for t in tokens[1::2]]


def test_int_pairs_returns_contiguous_columns():
    for body in ("\n1 2\n3 4\n", "\n+1 2\n3 4\n", "\n", ""):  # numpy, `rows`, no rows
        tails, heads = textio.int_pairs(body)
        assert tails.flags.c_contiguous and heads.flags.c_contiguous


# -- write_poset against the reference writer ------------------------------------


_WRITTEN = {
    "gc(3/10)": lambda rng: sampling.sample_kernel_poset(semiorders.gc(F(3, 10)), 30, rng),
    "identity": lambda rng: sampling.sample_kernel_poset(semiorders.MonotoneRC.identity(), 12, rng),
    "rate": lambda rng: sampling.sample_kernel_poset(
        semiorders.RateFunction.from_pieces([(0, F(1, 2), 3), (F(1, 2), 1, F(1, 2))]), 25, rng
    ),
    "step": lambda rng: sampling.sample_kernel_poset(
        measures.StepKernelMeasure.from_cells(
            [(0, F(1, 2), [(F(1, 2), F(1, 3)), (F(3, 4), F(2, 3))]), (F(1, 2), 1, [(1, 1)])]
        ), 25, rng
    ),
    "atoms": lambda rng: sampling.sample_kernel_poset(
        measures.AtomicMeasure.from_atoms([(0, F(1, 2), F(1, 2)), (F(1, 4), 1, F(1, 2))]), 25, rng
    ),
    "2+2": lambda rng: poset.two_plus_two(),
    "3+1": lambda rng: poset.three_plus_one(),
    "random graph order": lambda rng: sampling.random_graph_order(20, F(1, 5), rng),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", _WRITTEN)
def test_write_poset_equals_the_reference_writer(kind, seed):
    p = _WRITTEN[kind](SeededRng(seed))
    text = poset.write_poset(p)
    assert text == ref.write_poset(p)
    assert poset.read_poset(text) == p


@pytest.mark.parametrize(
    "text",
    [
        "poset 1\n",  # one point, no pairs
        "poset 4\n2 3\n2 4\n",  # point 1 has no cover either way
        "poset 4\n1 2\n1 3\n",  # nor has point 4
        "poset 5\n2 3\n3 4\n",  # nor have points 1 and 5
        "poset 6\n2 4\n3 4\n4 5\n",
    ],
)
def test_sorted_covers_with_coverless_ends_read_as_their_closure(text):
    _, n, start = textio.read_header(text, "poset")
    tails, heads = textio.int_pairs(text, start)
    closure = poset.transitive_closure(n, tails - 1, heads - 1)
    p = poset.read_poset(text)
    assert p == closure and p.pred == closure.pred
    assert poset.write_poset(p) == ref.write_poset(closure) == text


def test_read_csv_refuses_a_field_past_the_csv_limit():
    text = "a\n" + "x" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(FormatError, match="bad CSV: field larger than field limit"):
        textio.read_csv(text, ["a"])
