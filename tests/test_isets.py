from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chromres import (
    EdgeSet,
    EnumerationLimitError,
    GnpParams,
    Graph,
    SizeLimitError,
    enumerate_isets,
    generate_gnp,
    induced_subgraph,
    is_independent,
    max_independent_set,
    sparse_iset,
    turan_extract,
    uniform_family,
)
from chromres import isets
from chromres.graph import _bits, _words
from chromres.isets import _turan, min_degree_vertex
from conftest import _greedy_strip_reference, brute_alpha, is_independent_reference, petersen, run_python


def gnp(n, p, seed):
    return generate_gnp(GnpParams(n, p, seed))


class TestIsIndependent:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_pairwise_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        g = gnp(n, rng.choice([0.05, 0.3, 0.7]), rng.randrange(1000))
        size = rng.randint(0, 6)
        # a subset of an independent set, or any vertices; repeats allowed
        pool = list(turan_extract(g)) if rng.random() < 0.5 else list(range(n))
        vs = [rng.choice(pool) for _ in range(size)]
        assert is_independent(g, vs) == is_independent_reference(g, vs)

    @pytest.mark.parametrize("vs", [[0, 10**6], [600], [-1], [3, -1]])
    def test_label_out_of_range(self, vs):
        with pytest.raises(ValueError):
            is_independent(Graph.empty(600), vs)


class TestMaxIndependentSet:
    def test_empty_graph(self):
        assert len(max_independent_set(Graph.empty(7))) == 7

    def test_complete_graph(self):
        assert len(max_independent_set(Graph.complete(5))) == 1

    def test_petersen_against_exhaustive(self):
        g = petersen()
        assert brute_alpha(g) == 4  # oracle over all 2^10 subsets
        mis = max_independent_set(g)
        assert len(mis) == 4
        assert is_independent(g, mis)

    @pytest.mark.parametrize("p", [0.15, 0.4, 0.7])
    def test_matches_brute_force(self, p):
        for seed in range(12):
            g = gnp(13, p, seed)
            assert len(max_independent_set(g)) == brute_alpha(g)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            max_independent_set(Graph.empty(10), limit=9)

    def test_deterministic(self):
        g = gnp(40, 0.5, 77)
        assert max_independent_set(g) == max_independent_set(g)


class TestTuranExtract:
    def test_empty_meets_bound(self):
        assert len(turan_extract(Graph.empty(7))) == 7  # bound 49/7

    def test_complete(self):
        assert len(turan_extract(Graph.complete(5))) == 1  # bound 25/25

    def test_c5(self):
        got = turan_extract(Graph.cycle(5))
        assert len(got) == 2  # bound 25/15 -> >= 2, and alpha(C5) = 2
        assert brute_alpha(Graph.cycle(5)) == 2

    def test_bound_on_random_graphs(self):
        rng = random.Random(5)
        for trial in range(50):
            n = rng.randint(5, 45)
            g = gnp(n, rng.choice([0.2, 0.5]), trial)
            got = turan_extract(g)
            bound = math.ceil(n * n / (2 * g.edge_count + n))
            assert len(got) >= bound
            assert is_independent(g, got)
            assert len(got) <= len(max_independent_set(g))


class TestMatrixPicks:
    """min_degree_vertex's word-matrix strategy against its scan."""

    @staticmethod
    def _graph(rng: random.Random) -> Graph:
        n = rng.randint(1, 200)  # 1 to 4 words a row
        kind = rng.choice(["gnp", "gnp", "gnp", "empty", "complete", "cycle"])
        if kind == "empty":
            return Graph.empty(n)
        if kind == "complete":
            return Graph.complete(n)
        if kind == "cycle":
            return Graph.cycle(max(n, 3))
        return gnp(n, rng.choice([0.05, 0.5, 0.95]), rng.randrange(1000))

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matrix_picks_and_extracts_match_the_scan(self, seed):
        rng = random.Random(seed)
        g = self._graph(rng)
        words = _words(_bits(g.rows, ((g.n + 63) >> 6) << 3))
        masks = [(1 << g.n) - 1, 0] + [rng.getrandbits(g.n) for _ in range(4)]
        with mock.patch.object(isets, "_WIDE_PICK", 0):  # every non-empty mask is wide
            for alive in masks:
                scan = min_degree_vertex(g.rows, alive)
                assert min_degree_vertex(g.rows, alive, words) == scan
                if alive:
                    assert scan == min(((g.rows[v] & alive).bit_count(), v)
                                       for v in range(g.n) if alive >> v & 1)[::-1]
                else:
                    assert scan == (-1, 0)
                extract = _turan(g, alive, words)
                assert extract == turan_extract(g, alive) == _greedy_strip_reference(g, alive)

    def test_matrix_pick_takes_the_lowest_label_among_ties(self):
        g = Graph.cycle(150)  # every degree is 2
        words = _words(_bits(g.rows, 24))
        with mock.patch.object(isets, "_WIDE_PICK", 0):
            assert min_degree_vertex(g.rows, (1 << 150) - 1, words) == (0, 2)
            # without 0 and 1, vertices 2 and 149 tie at degree 1
            assert min_degree_vertex(g.rows, ((1 << 150) - 1) ^ 0b11, words) == (2, 1)


class TestEnumerate:
    def test_complete_graph_empty_family(self):
        fam = enumerate_isets(Graph.complete(4), 2)
        assert len(fam) == 0 and fam.coverage == {}

    def test_empty_graph_pairs(self):
        fam = enumerate_isets(Graph.empty(4), 2)
        assert len(fam) == 6
        assert all(c == 1 for c in fam.coverage.values())
        assert len(fam.coverage) == 6

    def test_c5_nonadjacent_pairs(self):
        fam = enumerate_isets(Graph.cycle(5), 2)
        assert len(fam) == 5  # C(5,2) - 5 edges

    def test_sets_sorted_and_independent(self):
        g = gnp(18, 0.4, 2)
        fam = enumerate_isets(g, 3)
        assert list(fam.sets) == sorted(fam.sets)
        for s in fam.sets:
            assert is_independent(g, s)

    def test_coverage_recount(self):
        g = gnp(16, 0.3, 4)
        fam = enumerate_isets(g, 4)
        recount = {}
        for s in fam.sets:
            for i in range(4):
                for j in range(i + 1, 4):
                    pr = (s[i], s[j])
                    recount[pr] = recount.get(pr, 0) + 1
        assert recount == fam.coverage

    def test_limit_guard(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_isets(Graph.empty(20), 10, limit=100)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            enumerate_isets(Graph.empty(4), 0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_negative_limit(self, k):
        # k = 5 exceeds the 4 vertices: an empty family, but the limit is
        # still rejected
        with pytest.raises(ValueError, match="limit must be an integer >= 0"):
            enumerate_isets(Graph.empty(4), k, limit=-1)


class TestUniformFamily:
    def test_pairs_under_cap_all_retained(self):
        fam = uniform_family(enumerate_isets(Graph.empty(4), 2), cap=1)
        assert len(fam) == 6 and fam.deleted == 0 and fam.excess_mass == 0

    def test_triples_all_deleted(self):
        # each pair lies in exactly 2 of the 4 triples of the empty graph
        fam = uniform_family(enumerate_isets(Graph.empty(4), 3), cap=1)
        assert len(fam) == 0
        assert fam.deleted == 4
        assert fam.excess_mass == 12  # 6 pairs x coverage 2

    def test_c5_pairs_retained(self):
        fam = uniform_family(enumerate_isets(Graph.cycle(5), 2), cap=1)
        assert len(fam) == 5

    def test_real_valued_cap(self):
        # cap below 1 deletes every set that covers any pair at all
        fam = uniform_family(enumerate_isets(Graph.empty(4), 2), cap=0.9)
        assert len(fam) == 0 and fam.deleted == 6

    @pytest.mark.parametrize("cap", [math.nan, -1, -math.inf, math.inf])
    def test_cap_must_be_nonnegative(self, cap):
        with pytest.raises(ValueError):
            uniform_family(enumerate_isets(Graph.empty(4), 2), cap=cap)

    def test_size_accounting_and_cap_respected(self):
        for seed in range(6):
            g = gnp(20, 0.5, seed)
            total = enumerate_isets(g, 4)
            capped = uniform_family(total, cap=2)
            assert len(capped) + capped.deleted == len(total)
            assert all(c <= 2 for c in capped.coverage.values())
            # excess mass recounts pre-deletion coverage above the cap
            assert capped.excess_mass == sum(
                c for c in total.coverage.values() if c > 2)


class TestSparseIset:
    def test_empty_budget(self):
        fam = enumerate_isets(Graph.empty(4), 2)
        chosen, count = sparse_iset(fam, EdgeSet(frozenset()))
        assert count == 0 and chosen in fam.sets

    def test_single_pair_avoided(self):
        fam = uniform_family(enumerate_isets(Graph.empty(4), 2), cap=1)
        chosen, count = sparse_iset(fam, EdgeSet.from_pairs([(0, 1)]))
        assert count == 0 and set(chosen) != {0, 1}

    def test_empty_family_rejected(self):
        fam = enumerate_isets(Graph.complete(4), 2)
        with pytest.raises(ValueError):
            sparse_iset(fam, EdgeSet(frozenset()))

    def test_matches_linear_scan_oracle(self):
        from chromres import random_budget

        for seed in range(10):
            g = gnp(24, 0.5, seed)
            k = len(max_independent_set(g)) - 1
            fam = enumerate_isets(g, k)
            e = random_budget(g, 20, seed + 1000)
            chosen, count = sparse_iset(fam, e)
            per_member = []
            for s in fam.sets:
                inside = sum(1 for u, v in e.pairs if u in s and v in s)
                per_member.append(inside)
            assert count == min(per_member)
            assert count <= sum(per_member) / len(per_member)  # averaging


class TestSearchWithinMask:
    """Searching a vertex mask of g equals searching the relabelled induced
    subgraph on that mask and mapping the result back."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_matches_induced_subgraph(self, seed, k):
        rng = random.Random(seed)
        n = rng.randint(1, 24)
        g = gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(1000))
        mask = rng.getrandbits(n)
        sub, mapping = induced_subgraph(g, [v for v in range(n) if (mask >> v) & 1])

        def back(vs):
            return tuple(mapping[v] for v in vs)

        assert turan_extract(g, mask) == back(turan_extract(sub))
        assert enumerate_isets(g, k, within=mask).sets == tuple(
            back(s) for s in enumerate_isets(sub, k).sets)
        assert max_independent_set(g, within=mask) == back(max_independent_set(sub))

    def test_size_limit_counts_the_mask(self):
        assert max_independent_set(Graph.empty(30), limit=3, within=0b111) == (0, 1, 2)
        with pytest.raises(SizeLimitError):
            max_independent_set(Graph.empty(30), limit=3, within=0b1111)

    @pytest.mark.parametrize("mask", [0b1000, -1])
    def test_mask_outside_graph_rejected(self, mask):
        with pytest.raises(ValueError):
            turan_extract(Graph.empty(3), mask)
        with pytest.raises(ValueError):
            enumerate_isets(Graph.empty(3), 1, within=mask)
        with pytest.raises(ValueError):
            max_independent_set(Graph.empty(3), within=mask)


def test_averaging_bound_checked_under_optimize():
    # a family whose cap its coverage violates: the bound check must still
    # fire when python -O strips assert statements
    code = ("from chromres import EdgeSet, IsetFamily, sparse_iset\n"
            "sparse_iset(IsetFamily(2, ((0, 1),), {(0, 1): 1}, cap=0),"
            " EdgeSet.from_pairs([(0, 1)]))\n")
    proc = run_python(["-O", "-c", code], timeout=60)
    assert proc.returncode != 0
    assert "averaging bound" in proc.stderr
