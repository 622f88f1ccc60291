"""Differential tests of the array-based graph I/O against the per-pair
reference implementations in conftest, the tokenizer's character classes, the
parsers' allocation bounds and load_graph's format sniffing and errors.

Hypothesis runs derandomized (a fixed seed per test) with example counts
sized so that each test takes a few seconds at most.
"""

from __future__ import annotations

import itertools
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromres import (
    GnpParams,
    Graph,
    GraphFormatError,
    generate_gnp,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
)
from chromres.cli import main as cli_main
from chromres.graph import _TEXT_BLOCK_CHARS, _blocks, _classify
from conftest import (
    from_edges_reference,
    generate_gnp_reference,
    parse_dimacs_reference,
    parse_edge_list_reference,
    to_dimacs_reference,
    to_edge_list_reference,
)

pytestmark = pytest.mark.filterwarnings("ignore::chromres.RegimeWarning")



def fixed(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


# n = 181 is the largest n whose C(n, 2) pairs fit one 2^14-draw block.
@pytest.mark.parametrize("n", [1, 2, 3, 17, 181, 182, 1000])
@pytest.mark.parametrize("p", [1e-12, 0.05, 0.3, 0.5])
def test_generator_matches_reference(n, p):
    for seed in (0, 1, 12345):
        params = GnpParams(n, p, seed)
        assert generate_gnp(params) == generate_gnp_reference(params)


@st.composite
def graphs(draw):
    """Random graphs from both the generator and from_edges, n from 0."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 60))
        return generate_gnp(GnpParams(n, draw(st.sampled_from([0.1, 0.5, 0.9])),
                                      draw(st.integers(0, 99))))
    n = draw(st.integers(0, 40))
    if n < 2:
        return Graph.empty(n)
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=80))
    return Graph.from_edges(n, pairs)


@fixed(150)
@given(graphs())
def test_writers_match_reference(g):
    assert to_edge_list(g) == to_edge_list_reference(g)
    assert to_dimacs(g) == to_dimacs_reference(g)


def _outcome(build, *args):
    """build(*args), or the type of the exception it raised."""
    try:
        return build(*args)
    except Exception as exc:  # the references may raise beyond GraphFormatError
        return type(exc)


@fixed(200)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)),
                         max_size=20))))
def test_from_edges_matches_reference(case):
    n, pairs = case
    got = _outcome(Graph.from_edges, n, pairs)
    want = _outcome(from_edges_reference, n, pairs)
    assert got == want


def test_generator_matches_reference_past_one_matrix_block():
    # n = 2897 is the first n whose packed matrix exceeds 1 MiB: the builder
    # holds draw blocks until they outweigh the matrix, then fills it whole
    params = GnpParams(2897, 0.5, 0)
    assert generate_gnp(params) == generate_gnp_reference(params)


@pytest.mark.parametrize("n, m", [
    (20000, 3000),  # sparse: 2500-byte rows filled in blocks of 419 rows
    (3000, 80000),  # the pairs outweigh the 1.1 MB matrix, which is held whole
])
def test_from_edges_large_n_matches_reference(n, m):
    rng = np.random.default_rng(5)
    ends = rng.integers(0, n, size=(m, 2))
    pairs = [(int(a), int(b)) for a, b in ends if a != b] + [(n - 1, 0), (0, n - 1), (7, 8)]
    assert Graph.from_edges(n, pairs) == from_edges_reference(n, pairs)


def test_from_edges_rejects_bad_pairs():
    for pairs in ([(1, 1)], [(0, 5)], [(-1, 2)], [(0, 1 << 70)]):
        with pytest.raises(ValueError):
            Graph.from_edges(5, pairs)
    with pytest.raises(TypeError):
        Graph.from_edges(5, [(0, 1.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(5, [(0, 1, 2)])


MUTANT_TOKENS = ["x", "-1", "+1", "1_0", str(10**30)]


@st.composite
def mutated_texts(draw):
    """(is_dimacs, text): a written graph with up to four line or token
    mutations: drop, duplicate or swap lines, exchange a line's last two
    tokens, replace a token, insert blank, comment or problem lines, or end a
    line with CRLF."""
    n = draw(st.integers(1, 12))
    g = generate_gnp(GnpParams(n, draw(st.sampled_from([0.2, 0.5])), draw(st.integers(0, 9))))
    dimacs = draw(st.booleans())
    lines = (to_dimacs if dimacs else to_edge_list)(g).splitlines()
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "flip", "token", "blank",
                                   "crlf", "comment", "problem"]))
        i = draw(st.integers(0, len(lines)))
        if op in ("blank", "comment", "problem"):
            line = {"blank": draw(st.sampled_from(["", "  ", "\t"])),
                    "comment": "c a comment line",
                    "problem": f"p edge {draw(st.integers(0, 14))} {draw(st.integers(0, 40))}",
                    }[op]
            lines.insert(i, line)
            ends.insert(i, "\n")
            continue
        if i == len(lines):
            continue
        if op == "drop":
            del lines[i], ends[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
            ends.insert(i, "\n")
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "flip":  # exchange the last two tokens, e.g. the endpoints
            parts = lines[i].split()
            lines[i] = " ".join(parts[:-2] + parts[-2:][::-1])
        elif op == "token":
            parts = lines[i].split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(MUTANT_TOKENS))
                lines[i] = " ".join(parts)
        else:
            ends[i] = "\r\n"
    return dimacs, "".join(map(operator.add, lines, ends))


@fixed(600)
@given(mutated_texts())
def test_parsers_match_reference_on_mutated_text(case):
    dimacs, text = case
    parse, reference = ((parse_dimacs, parse_dimacs_reference) if dimacs
                        else (parse_edge_list, parse_edge_list_reference))
    want = _outcome(reference, text)
    if isinstance(want, Graph):
        assert parse(text) == want
    else:
        with pytest.raises(GraphFormatError):
            parse(text)


WIDE_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                   "\x0e", "\x00"]
WIDE_TOKENS = ["\u0663", "\uff13", "1__0", "_1", str(2**63 - 1), str(2**63), "1" * 25]


@st.composite
def wide_mutated_texts(draw):
    """(is_dimacs, text): a written graph with up to four mutations: insert a
    separator, replace a space or newline by one, replace a token, or insert
    one. The separators are Unicode whitespace, line breaks, a control
    character and NUL (the last two are not whitespace); the tokens are
    non-ASCII digits, misplaced underscores and values at and past the int64
    bound. Some texts then get a blank line that pushes the lines after it
    across the parsers' block cut."""
    n = draw(st.integers(1, 12))
    g = generate_gnp(GnpParams(n, draw(st.sampled_from([0.2, 0.5])), draw(st.integers(0, 9))))
    dimacs = draw(st.booleans())
    text = (to_dimacs if dimacs else to_edge_list)(g)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "replace", "token", "put"]))
        if op == "insert":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(WIDE_SEPARATORS)) + text[i:]
        elif op == "replace":
            seps = [m.start() for m in re.finditer("[ \n]", text)]
            if not seps:
                continue
            i = draw(st.sampled_from(seps))
            text = text[:i] + draw(st.sampled_from(WIDE_SEPARATORS)) + text[i + 1:]
        else:
            token = draw(st.sampled_from(WIDE_TOKENS))
            spans = [m.span() for m in re.finditer(r"\S+", text)]
            if not spans:
                continue
            a, b = draw(st.sampled_from(spans))
            if op == "put":
                token, b = token + " ", a
            text = text[:a] + token + text[b:]
    if draw(st.booleans()):
        # a blank line ending a few characters before the cut, so that the
        # lines after it hold the tokens on both sides of it
        starts = [0] + [m.end() for m in re.finditer("\n", text)]
        at = draw(st.sampled_from(starts))
        fill = draw(st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000"]))
        width = _TEXT_BLOCK_CHARS - draw(st.integers(0, 30)) - at - 1
        text = text[:at] + fill * width + "\n" + text[at:]
    return dimacs, text


@fixed(400)
@given(wide_mutated_texts())
def test_parsers_match_reference_on_wide_mutations(case):
    dimacs, text = case
    parse, reference = ((parse_dimacs, parse_dimacs_reference) if dimacs
                        else (parse_edge_list, parse_edge_list_reference))
    want = _outcome(reference, text)
    if isinstance(want, Graph):
        assert parse(text) == want
    else:
        with pytest.raises(GraphFormatError):
            parse(text)


@pytest.mark.parametrize("parse, reference, text", [
    (parse_edge_list, parse_edge_list_reference, "4 2\n0 1 2 3\n"),
    (parse_edge_list, parse_edge_list_reference, "4 2\n0 1\xa02 3\n"),
    (parse_edge_list, parse_edge_list_reference, "4 2\n0\n1\n2 3\n"),
    (parse_edge_list, parse_edge_list_reference, "4 2\n0 1\n2 3 \x1e4\n"),
    (parse_edge_list, parse_edge_list_reference, "4 2 0\n1\n2 3\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\nex 1 2\n"),
    (parse_dimacs, parse_dimacs_reference, "pp edge 3 1\ne 1 2\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\ne 1 2 e 2 3\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\ne 1\n2\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\n e\u20281 2\n"),
    # well-shaped lines whose pairs the shared edge validator rejects
    (parse_edge_list, parse_edge_list_reference, "3 1\n2 1\n"),
    (parse_edge_list, parse_edge_list_reference, "3 1\n1 1\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\ne -9223372036854775808 1\n"),
    (parse_dimacs, parse_dimacs_reference, "p edge 3 1\ne 0 1\n"),
])
def test_parsers_reject_lines_of_the_wrong_shape(parse, reference, text):
    with pytest.raises(GraphFormatError):
        reference(text)
    with pytest.raises(GraphFormatError):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_edge_list, "3 1\n1 1\n", r"edge \(1,1\) violates u < v"),
    (parse_edge_list, "3 2\n0 1\n1 3\n", "edge 2 of 2 has an endpoint out of range for n=3"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 0 1\n", "edge 2 of 2 has an endpoint out of range"),
    (parse_dimacs, "p edge 3 1\ne 2 2\n", "edge 1 of 1 is a self-loop$"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 1\n", "duplicate edges"),
])
def test_edge_validator_names_the_failing_check(parse, text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse(text)


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, "\u2029 4 2\x85\x1f0\u30001\u20282\xa03\x1c\n"),
    (parse_dimacs, "cx\u2028p\x1fedge 4 2\x85e 1 2\x1de\xa03 4\r\n"),
])
def test_parsers_read_unicode_whitespace_and_breaks(parse, text):
    assert parse(text) == Graph.from_edges(4, [(0, 1), (2, 3)])


def test_tokenizer_classes_match_str_methods():
    chars = "".join(map(chr, itertools.chain(range(0xD800), range(0xE000, 0x110000))))
    space, brk = _classify(np.frombuffer(chars.encode("utf-32-le"), dtype="<u4"))
    want_space = np.array([ch.isspace() for ch in chars])
    want_brk = np.array([len(("a" + ch + "b").splitlines()) == 2 for ch in chars])
    assert [hex(ord(chars[i])) for i in np.flatnonzero(space != want_space)] == []
    assert [hex(ord(chars[i])) for i in np.flatnonzero(brk != want_brk)] == []


def test_tokenizer_classes_match_at_either_code_width():
    # an ASCII block is tokenized on one-byte codes, any other on UTF-32
    ascii_codes = np.frombuffer(bytes(range(128)), dtype=np.uint8)
    wide = _classify(ascii_codes.astype("<u4"))
    for got, want in zip(_classify(ascii_codes), wide):
        assert np.array_equal(got, want)


def test_parsers_match_reference_across_code_widths():
    # one no-break space and one line separator on a middle line of G(400):
    # the block holding them is read as UTF-32, every other block as bytes
    g = generate_gnp(GnpParams(400, 0.5, 4))
    for write, parse, reference in ((to_edge_list, parse_edge_list, parse_edge_list_reference),
                                    (to_dimacs, parse_dimacs, parse_dimacs_reference)):
        lines = write(g).splitlines()
        mid = len(lines) // 2
        lines[mid] = lines[mid].replace(" ", "\xa0", 1)
        text = "\n".join(lines[:mid + 1]) + "\u2028" + "\n".join(lines[mid + 1:]) + "\n"
        widths = [block.codes.itemsize for block in _blocks(text)]
        assert len(widths) > 3 and sorted(widths)[-2:] == [1, 4]
        assert parse(text) == reference(text) == g


# Tokens of 9, 10, 18, 19 and 20 characters, on either side of the nine-digit
# column sums and of int64, and tokens only int() reads
WIDTH_TOKENS = ["000000002", "0000000002", "0" * 17 + "2", "0" * 18 + "2", "0" * 19 + "2",
                "+1", "1_0", "999999999", str(2**32 + 2), "9" * 18, str(2**63 - 1), str(2**63),
                str(2**64 + 2)]


def _graph_or_message(parse, text):
    """parse(text), or the message of the GraphFormatError it raised."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("token", WIDTH_TOKENS)
def test_header_tokens_match_reference(token):
    texts = [f"3 {token}\n0 2\n", f"p edge 3 {token}\ne 1 3\n"]
    if int(token) < 100:  # a larger n would make the reference build its rows
        texts += [f"{token} 0\n", f"p edge {token} 0\n"]
    for text in texts:
        parse, reference = ((parse_dimacs, parse_dimacs_reference) if text[0] == "p"
                            else (parse_edge_list, parse_edge_list_reference))
        assert _graph_or_message(parse, text) == _graph_or_message(reference, text)


@pytest.mark.parametrize("token", WIDTH_TOKENS)
def test_endpoint_tokens_match_reference(token):
    # token as an endpoint of a 12-vertex graph; the validator words an
    # out-of-range endpoint its own way, and reads an int64 overflow as a
    # bad line, so those messages are pinned here
    for text, parse, reference in (
            (f"12 2\n0 {token}\n10 11\n", parse_edge_list, parse_edge_list_reference),
            (f"p edge 12 2\ne 3 {token}\ne 11 12\n", parse_dimacs, parse_dimacs_reference)):
        got, want = _graph_or_message(parse, text), _graph_or_message(reference, text)
        if int(token) < 12:
            assert isinstance(want, Graph) and got == want
        else:
            assert isinstance(want, str)
            assert got == (f"bad edge line {text.splitlines()[1]!r}" if int(token) >= 2**63
                           else "edge 1 of 2 has an endpoint out of range for n=12")


def test_parsers_match_reference_across_text_blocks():
    # G(400, 1/2) writes about 330 kB per format: several tokenizer blocks,
    # with blank, CRLF and comment lines spread through them
    g = generate_gnp(GnpParams(400, 0.5, 2))
    for write, parse, reference in ((to_edge_list, parse_edge_list, parse_edge_list_reference),
                                    (to_dimacs, parse_dimacs, parse_dimacs_reference)):
        lines = write(g).splitlines()
        for k in range(len(lines) - 1, 0, -997):
            lines.insert(k, "")
            lines[k - 1] += "\r"
        if write is to_dimacs:
            lines[30000:30000] = ["c middle"]
        text = "\n".join(lines) + "\n"
        assert parse(text) == reference(text) == g
        # the first edge again at the end, with the header count raised to match
        head = lines[0].split()
        head[-1] = str(g.edge_count + 1)
        repeated = "\n".join([" ".join(head)] + lines[1:] + [lines[1]]) + "\n"
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse(repeated)
        with pytest.raises(GraphFormatError):
            reference(repeated)


def test_sparse_large_n_matches_reference():
    text = "p edge 200000 3\ne 1 200000\ne 199999 5\nc\ne 100001 100000\n"
    assert parse_dimacs(text) == parse_dimacs_reference(text)
    text = "200000 3\n0 199999\n4 199998\n99999 100000\n"
    assert parse_edge_list(text) == parse_edge_list_reference(text)


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, "1048577 0\n"),
    (parse_dimacs, "p edge 1048577 0\n"),
    (parse_dimacs, "p edge 7 0\np edge 1048577 0\n"),
    (parse_edge_list, f"{10**30} 0\n"),
])
def test_header_vertex_bound(parse, text):
    with pytest.raises(GraphFormatError):
        parse(text)


@pytest.mark.parametrize("parse, text", [
    (parse_dimacs, "p edge 200000 0\n"),
    (parse_edge_list, "200000 0\n"),
])
def test_large_header_allocates_no_bit_matrix(parse, text):
    tracemalloc.start()
    try:
        g = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == Graph.empty(200000)
    assert peak < 4 << 20, f"peak {peak} bytes"


def test_parse_peak_allocation():
    # 250k edges: the endpoint arrays and their concatenation dominate
    g = generate_gnp(GnpParams(1000, 0.5, 3))
    for write, parse in ((to_edge_list, parse_edge_list), (to_dimacs, parse_dimacs)):
        text = write(g)
        tracemalloc.start()
        try:
            h = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == g
        assert peak <= 10 << 20, f"{parse.__name__}: peak {peak} bytes"


@pytest.mark.parametrize("text", [
    "\n \x1c\x1fp edge 3 1\ne 1 3\n",
    "\t\nc comment\np edge 3 1\ne 1 3\n",
    "\n\x1f 3 1\n0 2\n",
])
def test_load_graph_sniffs_first_non_blank_character(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    assert load_graph(str(path)) == Graph.from_edges(3, [(0, 2)])


@pytest.mark.parametrize("data", [b"3 1\n0 2\xe9\n", b"p edge 3 1\ne 1 \xff3\n"])
def test_load_graph_rejects_non_ascii(tmp_path, capsys, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(GraphFormatError) as info:
        load_graph(str(path))
    assert isinstance(info.value.__cause__, UnicodeDecodeError)
    assert cli_main(["color", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: GraphFormatError: ")
