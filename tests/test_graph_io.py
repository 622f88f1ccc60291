"""Differential tests of the array-based graph I/O against the per-pair
reference implementations in conftest, plus the parsers' allocation bound.

Hypothesis runs derandomized (a fixed seed per test) with example counts
sized so that each test takes a few seconds at most.
"""

from __future__ import annotations

import operator
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
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
)
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
