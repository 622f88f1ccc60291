from __future__ import annotations

import math
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromres import (
    EdgeSet,
    GnpParams,
    Graph,
    GraphFormatError,
    RegimeWarning,
    enumerate_isets,
    generate_gnp,
    induced_subgraph,
    max_independent_set,
    parse_dimacs,
    parse_edge_list,
    to_dimacs,
    to_edge_list,
    union,
)
from chromres import graph
from chromres.graph import _bits, _edges_inside, _ints, _members, _projected
from conftest import (
    enumerate_sets_reference,
    induced_subgraph_reference,
    max_independent_set_reference,
)


def gnp(n, p, seed):
    return generate_gnp(GnpParams(n, p, seed))


class TestGenerate:
    def test_degenerate_low_p(self):
        g = generate_gnp(GnpParams(5, 1e-12, 3))
        assert g.edge_count == 0

    def test_degenerate_high_p(self):
        with pytest.warns(RegimeWarning):
            g = generate_gnp(GnpParams(4, 0.999999, 1))
        assert g.edge_count == 6

    def test_edge_count_within_four_sigma(self):
        g = gnp(1000, 0.5, 7)
        pairs = math.comb(1000, 2)
        mean = pairs / 2
        sigma = math.sqrt(pairs * 0.25)
        assert abs(g.edge_count - mean) <= 4 * sigma
        g.validate()

    def test_determinism_and_thread_independence(self):
        a = to_edge_list(gnp(60, 0.3, 11))
        b = to_edge_list(gnp(60, 0.3, 11))
        assert a == b
        out = {}

        def worker():
            out["g"] = to_edge_list(gnp(60, 0.3, 11))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert out["g"] == a

    def test_seed_sensitivity(self):
        assert gnp(40, 0.5, 1) != gnp(40, 0.5, 2)

    def test_empirical_pair_frequency(self):
        # fixed pairs over 200 fixed seeds: binomial(200, 0.5) stays well
        # inside [0.4, 0.6] (4-sigma is ~0.14)
        hits_01 = hits_far = 0
        for seed in range(200):
            g = gnp(200, 0.5, seed)
            hits_01 += g.has_edge(0, 1)
            hits_far += g.has_edge(37, 101)
        assert 0.4 <= hits_01 / 200 <= 0.6
        assert 0.4 <= hits_far / 200 <= 0.6

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GnpParams(0, 0.5, 1)
        with pytest.raises(ValueError):
            GnpParams(5, 0.0, 1)
        with pytest.raises(ValueError):
            GnpParams(5, 1.0, 1)
        with pytest.warns(RegimeWarning):
            GnpParams(100, 0.6, 1)
        with pytest.warns(RegimeWarning):
            GnpParams(100, 0.1, 1)  # below n^(-1/3) ~ 0.215


class TestUnion:
    def test_add_edge_to_empty(self):
        g = union(Graph.empty(3), EdgeSet.from_pairs([(0, 1)]))
        assert g.edge_count == 1 and g.has_edge(0, 1)

    def test_idempotent_overlap(self):
        k3 = Graph.complete(3)
        g = union(k3, EdgeSet.from_pairs([(0, 1)]))
        assert g == k3

    def test_disjoint_count(self):
        c5 = Graph.cycle(5)
        g = union(c5, EdgeSet.from_pairs([(0, 2), (1, 3)]))
        assert g.edge_count == 7

    def test_original_unchanged_and_monotone(self):
        g = gnp(20, 0.3, 5)
        before = g.rows
        e = EdgeSet.from_pairs([(0, 1), (2, 17)])
        h = union(g, e)
        assert g.rows == before
        for u, v in g.edges():
            assert h.has_edge(u, v)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            union(Graph.empty(3), EdgeSet.from_pairs([(0, 3)]))


class TestInduced:
    def test_empty_selection(self):
        h, mapping = induced_subgraph(gnp(6, 0.5, 1), [])
        assert h.n == 0 and mapping == ()

    def test_k5_to_k3(self):
        h, mapping = induced_subgraph(Graph.complete(5), [1, 3, 4])
        assert h == Graph.complete(3)
        assert mapping == (1, 3, 4)

    def test_c5_prefix_is_path(self):
        h, _ = induced_subgraph(Graph.cycle(5), [0, 1, 2])
        assert h.edge_count == 2
        assert h.has_edge(0, 1) and h.has_edge(1, 2) and not h.has_edge(0, 2)

    def test_identity(self):
        g = gnp(15, 0.4, 9)
        h, mapping = induced_subgraph(g, range(15))
        assert h == g and mapping == tuple(range(15))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(Graph.empty(3), [5])

    @pytest.mark.filterwarnings("ignore::chromres.RegimeWarning")
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(1, 70).flatmap(lambda n: st.tuples(
        st.integers(0, 99), st.just(n), st.sampled_from([0.1, 0.5, 0.9]),
        st.one_of(st.just([]), st.just(list(range(n))[::-1]),
                  st.lists(st.integers(0, n - 1), max_size=2 * n)))))
    def test_matches_reference(self, case):
        # unsorted vertex lists with repeats, the empty set and every vertex
        seed, n, p, verts = case
        g = gnp(n, p, seed)
        assert induced_subgraph(g, verts) == induced_subgraph_reference(g, verts)


class TestCodec:
    @pytest.mark.parametrize("rows, width", [
        ([], 0), ([], 3), ([0, 0], 0), ([0, 0, 0], 2),
        ([0, 1, 0x80, 0xFF], 1),
        ([1 << 23, (1 << 24) - 1, 5], 3),  # bit 8w-1 set
    ])
    def test_round_trip(self, rows, width):
        bits = _bits(rows, width)
        assert bits.shape == (len(rows), 8 * width) and bits.dtype == bool
        assert _ints(bits) == rows
        for i, row in enumerate(rows):
            assert bits[i].tolist() == [bool((row >> j) & 1) for j in range(8 * width)]

    @pytest.mark.parametrize("seed", range(4))
    def test_projected_one_row_per_block(self, monkeypatch, seed):
        monkeypatch.setattr(graph, "_PROJECT_BLOCK_BYTES", 1)
        g = gnp(40, 0.5, seed)
        rng = random.Random(seed)
        verts = rng.sample(range(40), 25)  # unsorted, as the MIS search passes them
        blocks = list(_projected(g.rows, verts))
        assert [b.shape for b in blocks] == [(1, 25)] * 25
        assert [[g.has_edge(u, v) for v in verts] for u in verts] == \
            [row.tolist() for b in blocks for row in b]
        assert induced_subgraph(g, verts) == induced_subgraph_reference(g, verts)
        within = graph.mask_of(verts)
        assert max_independent_set(g, within=within) == \
            max_independent_set_reference(g, within=within)
        assert enumerate_isets(g, 3, within=within).sets == \
            tuple(enumerate_sets_reference(g.rows, within, 3, 10 ** 6))

    @staticmethod
    def _mask_cases():
        wide = graph._WIDE_MEMBERS
        rng = random.Random(5)
        yield 0
        yield 1
        yield 1 << 63
        yield 1 << 64
        yield (1 << 63) | (1 << 64) | 1
        for count in (wide, wide + 1):  # either side of the switch to _bits
            yield graph.mask_of(rng.sample(range(200), count))
            yield (1 << count) - 1
        yield graph.mask_of(rng.sample(range(600), 20))  # sparse on 600 bits
        yield graph.mask_of(v for v in range(600) if rng.random() < 0.9)  # dense

    def test_members_lists_set_bits_ascending(self):
        for mask in self._mask_cases():
            assert _members(mask) == [v for v in range(mask.bit_length()) if mask >> v & 1]
        counts = {mask.bit_count() for mask in self._mask_cases()}
        assert {graph._WIDE_MEMBERS, graph._WIDE_MEMBERS + 1} <= counts

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_inside_counts_pairs_within_mask(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 120)
        g = gnp(n, rng.choice([0.1, 0.5, 0.9]), seed)
        full = (1 << n) - 1
        masks = [0, full] + [rng.getrandbits(n) for _ in range(8)]
        for mask in masks:
            expect = sum(1 for u, v in g.edges() if mask >> u & 1 and mask >> v & 1)
            assert _edges_inside(g, mask) == expect
        assert _edges_inside(g, full) == g.edge_count


class TestSerialization:
    def test_single_vertex(self):
        g = Graph.empty(1)
        text = to_edge_list(g)
        assert text == "1 0\n"
        assert parse_edge_list(text) == g

    def test_k3(self):
        text = to_edge_list(Graph.complete(3))
        assert text.splitlines() == ["3 3", "0 1", "0 2", "1 2"]
        assert parse_edge_list(text) == Graph.complete(3)

    def test_gnp_roundtrip(self):
        g = gnp(50, 0.5, 3)
        assert parse_edge_list(to_edge_list(g)) == g
        assert parse_dimacs(to_dimacs(g)) == g

    def test_dimacs_one_based(self):
        text = to_dimacs(Graph.from_edges(3, [(0, 2)]))
        assert "e 1 3" in text

    def test_dimacs_comments_ok(self):
        g = parse_dimacs("c hello\np edge 3 1\ne 1 2\n")
        assert g.edge_count == 1 and g.has_edge(0, 1)

    @pytest.mark.parametrize("bad", [
        "",
        "3\n",
        "3 2\n0 1\n",          # header claims 2 edges
        "3 1\n1 0\n",          # u >= v
        "3 1\n0 3\n",          # v out of range
        "3 1\n0 x\n",
        "3 2\n0 1\n0 1\n",     # duplicate edge
        "-1 0\n",              # negative n
    ])
    def test_malformed_edge_list(self, bad):
        with pytest.raises(GraphFormatError):
            parse_edge_list(bad)

    @pytest.mark.parametrize("bad", [
        "e 1 2\n",                       # missing header
        "p edge 3 2\ne 1 2\n",           # count mismatch
        "p edge 3 1\ne 1 4\n",           # out of range
        "p edge 3 1\nq 1 2\n",           # unknown line
        "p edge x 1\ne 1 2\n",           # non-integer header
        "p edge 3 1\ne 1 y\n",           # non-integer endpoint
        "p edge 3 1\ne 2 2\n",           # self-loop
        "p edge 3 2\ne 1 2\ne 2 1\n",    # duplicate edge
        "p edge -2 0\n",                 # negative n
    ])
    def test_malformed_dimacs(self, bad):
        with pytest.raises(GraphFormatError):
            parse_dimacs(bad)


class TestEdgeSet:
    def test_normalization_and_m(self):
        e = EdgeSet.from_pairs([(3, 1), (1, 3), (0, 2)])
        assert e.m == 2
        assert e.sorted_pairs() == [(0, 2), (1, 3)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            EdgeSet.from_pairs([(2, 2)])

    def test_max_degree(self):
        e = EdgeSet.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2)])
        assert e.max_degree() == 3


@pytest.mark.parametrize("build", [
    lambda: Graph.empty(-1),
    lambda: Graph.from_edges(-1, []),
    lambda: Graph(-1, (), 0),
])
def test_negative_vertex_count_rejected(build):
    with pytest.raises(ValueError, match="negative vertex count -1"):
        build()


@pytest.mark.parametrize("rows, count, message", [
    ((0b010, 0b101, 0b010), 2, None),  # the path 0-1-2
    ((0b011, 0b001, 0), 1, "self-loop at 0"),
    ((0b1000, 0, 0), 0, "row 0 has bits beyond n=3"),
    ((0b010, 0, 0), 0, "asymmetric pair \\(0,1\\)"),
    ((0b010, 0b101, 0b010), 3, "edge_count 3 != recount 2"),
])
def test_validate_names_the_broken_invariant(rows, count, message):
    g = Graph(3, rows, count)
    if message is None:
        g.validate()
    else:
        with pytest.raises(ValueError, match=message):
            g.validate()


@pytest.mark.parametrize("rows, message", [
    ((0, 0, 0, 0), "4 rows for n=3"),
    ((0,), "1 rows for n=3"),
])
def test_construction_checks_the_row_count(rows, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, rows, 0)


@pytest.mark.parametrize("method, args, label", [
    ("has_edge", (-1, 1), -1),
    ("has_edge", (0, 7), 7),
    ("has_edge", (3, 0), 3),
    ("neighbors", (-1,), -1),
    ("neighbors", (3,), 3),
], ids=["has_edge-wrap", "has_edge-beyond-row", "has_edge-n", "neighbors-wrap", "neighbors-n"])
def test_adjacency_queries_check_their_labels(method, args, label):
    # on 3 vertices, -1 would wrap to vertex 2 and 7 read a bit beyond the row;
    # neighbors raises at the call, before anything iterates it
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError, match=f"^vertex {label} out of range for n=3$"):
        getattr(g, method)(*args)
