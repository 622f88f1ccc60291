from __future__ import annotations

import random
from itertools import combinations

import pytest

from chromres import (
    EdgeSet,
    GnpParams,
    Graph,
    SearchBudgetError,
    SizeLimitError,
    bounded_degree_h,
    chromatic_exact,
    generate_gnp,
    global_resilience_witness,
    local_resilience_witness,
    plant_clique,
    random_budget,
    union,
)
from conftest import bounded_degree_h_reference, brute_chromatic, witness_value


def gnp(n, p, seed):
    return generate_gnp(GnpParams(n, p, seed))


class TestPlantClique:
    def test_already_complete(self):
        assert plant_clique(Graph.complete(5), range(4)).m == 0

    def test_empty_host(self):
        assert plant_clique(Graph.empty(5), range(5)).m == 10

    def test_recount_on_random(self):
        g = gnp(100, 0.5, 2)
        targets = list(range(18))
        e = plant_clique(g, targets)
        inside = sum(1 for u, v in combinations(targets, 2) if g.has_edge(u, v))
        assert e.m == 153 - inside
        full = union(g, e)
        assert all(full.has_edge(u, v) for u, v in combinations(targets, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            plant_clique(Graph.empty(3), [0, 5])


class TestRandomBudget:
    def test_complete_zero(self):
        assert random_budget(Graph.complete(4), 0, 1).m == 0

    def test_forced_all_pairs(self):
        e = random_budget(Graph.empty(4), 6, 9)
        assert e.m == 6

    def test_forced_chords(self):
        e = random_budget(Graph.cycle(5), 5, 3)
        assert e.sorted_pairs() == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    def test_budget_too_large(self):
        with pytest.raises(ValueError):
            random_budget(Graph.complete(4), 1, 0)

    def test_negative_budget(self):
        # rejected where it enters, not deep inside numpy's sampler
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            random_budget(Graph.empty(4), -1, 0)

    def test_deterministic_and_valid(self):
        g = gnp(30, 0.5, 8)
        a = random_budget(g, 12, 4)
        assert a == random_budget(g, 12, 4)
        for u, v in a.pairs:
            assert not g.has_edge(u, v)


class TestBoundedDegree:
    def test_zero_delta(self):
        e, max_deg = bounded_degree_h(10, 0, 3)
        assert e.m == 0 and max_deg == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_delta_on_one_or_two_vertices(self, n):
        for seed in range(3):
            assert bounded_degree_h(n, 0, seed) == (EdgeSet(frozenset()), 0)

    def test_full_cap_never_violated(self):
        e, max_deg = bounded_degree_h(8, 7, 1)
        assert max_deg <= 7

    def test_recount_degrees(self):
        e, max_deg = bounded_degree_h(10, 3, 5)
        deg = [0] * 10
        for u, v in e.pairs:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) == max_deg <= 3

    def test_deterministic(self):
        assert bounded_degree_h(12, 2, 7) == bounded_degree_h(12, 2, 7)

    def test_delta_cap_many_seeds(self):
        for seed in range(25):
            _, max_deg = bounded_degree_h(9, 2, seed)
            assert max_deg <= 2

    def test_delta_too_large(self):
        with pytest.raises(ValueError):
            bounded_degree_h(5, 5, 0)

    def test_matches_reference(self):
        cases = [(n, delta, seed) for n in range(2, 14) for delta in range(1, n)
                 for seed in range(10)]
        cases += [(200, 5, 0), (1000, 3, 1), (50, 40, 2)]
        erased = 0
        for n, delta, seed in cases:
            got = bounded_degree_h(n, delta, seed)
            assert got == bounded_degree_h_reference(n, delta, seed), (n, delta, seed)
            # an accepted matching keeps one pair per stub pair; fewer pairs
            # mean every attempt was rejected and the erased one was kept
            erased += got[0].m < n * delta // 2
        assert erased > 100


def exhaustive_global_minimum(g: Graph, chi_cap: int, m_max: int):
    """Test-local oracle: scan every non-edge subset with the brute colorer."""
    non_edges = g.non_edges()
    for size in range(0, m_max + 1):
        for subset in combinations(non_edges, size):
            h = union(g, EdgeSet.from_pairs(subset)) if subset else g
            if brute_chromatic(h) > chi_cap:
                return size
    return None


class TestGlobalOracle:
    def test_empty3_cap1(self):
        assert global_resilience_witness(Graph.empty(3), 1, 3)[0] == 1

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert chromatic_exact(g) == 3
        assert global_resilience_witness(g, 3, 3)[0] == 1  # restore (2,3)

    def test_c5_cap3_is_three(self):
        c5 = Graph.cycle(5)
        assert exhaustive_global_minimum(c5, 3, 3) == 3  # independent scan
        assert global_resilience_witness(c5, 3, 5)[0] == 3

    def test_witness_is_a_certificate(self):
        hit = global_resilience_witness(Graph.cycle(5), 3, 5)
        assert hit is not None
        m, witness = hit
        assert m == 3 and witness.m == 3
        assert brute_chromatic(union(Graph.cycle(5), witness)) == 4

    def test_already_broken_is_zero(self):
        assert global_resilience_witness(Graph.complete(4), 3, 2)[0] == 0

    def test_absent_when_budget_small(self):
        assert global_resilience_witness(Graph.cycle(5), 3, 2) is None

    def test_matches_exhaustive_on_randoms(self):
        for seed in range(8):
            g = gnp(6, 0.5, seed)
            cap = chromatic_exact(g)
            expected = exhaustive_global_minimum(g, cap, 3)
            assert witness_value(global_resilience_witness(g, cap, 3)) == expected

    def test_monotone_in_cap(self):
        for seed in range(6):
            g = gnp(6, 0.4, seed)
            cap = chromatic_exact(g)
            lo = witness_value(global_resilience_witness(g, cap, 6))
            hi = witness_value(global_resilience_witness(g, cap + 1, 6))
            if lo is not None and hi is not None:
                assert lo <= hi

    def test_oracles_run_without_chromatic_exact(self, monkeypatch):
        # the base case is the pool's first search, _search(g, chi_cap):
        # neither witness asks chromatic_exact the same question again
        def refuse(*args, **kwargs):
            raise RuntimeError("chromatic_exact called")

        monkeypatch.setattr("chromres.adversary.chromatic_exact", refuse, raising=False)
        assert global_resilience_witness(Graph.cycle(5), 3, 5)[0] == 3
        assert local_resilience_witness(Graph.cycle(5), 3, 4)[0] == 2
        assert global_resilience_witness(Graph.complete(4), 3, 2) == (0, EdgeSet(frozenset()))
        assert local_resilience_witness(Graph.complete(4), 3, 2) == (0, EdgeSet(frozenset()))

    @pytest.mark.parametrize("witness", [
        lambda g: global_resilience_witness(g, 3, 1),
        lambda g: local_resilience_witness(g, 3, 1, size_limit=50),
    ])
    def test_both_oracles_stop_above_40_vertices(self, witness):
        with pytest.raises(SizeLimitError, match=r"^n=41 exceeds exact-chromatic limit 40$"):
            witness(gnp(41, 0.5, 0))

    def test_dominance_against_strategies(self):
        for seed in range(10):
            g = gnp(8, 0.5, seed)
            cap = chromatic_exact(g)
            e = plant_clique(g, range(min(8, cap + 1)))
            if e.m and chromatic_exact(union(g, e)) > cap:
                got = witness_value(global_resilience_witness(g, cap, e.m))
                assert got is not None and got <= e.m


def exhaustive_local_minimum(g: Graph, chi_cap: int, delta_max: int):
    """Test-local oracle: all subsets of non-edges, filtered by max degree."""
    non_edges = g.non_edges()
    best = None
    for size in range(0, len(non_edges) + 1):
        for subset in combinations(non_edges, size):
            e = EdgeSet.from_pairs(subset)
            delta = e.max_degree()
            if delta > delta_max or (best is not None and delta >= best):
                continue
            if brute_chromatic(union(g, e)) > chi_cap:
                best = delta
    return best


class TestLocalOracle:
    def test_empty3_cap1(self):
        assert local_resilience_witness(Graph.empty(3), 1, 2)[0] == 1

    def test_k4_absent(self):
        assert local_resilience_witness(Graph.complete(4), 4, 3) is None

    def test_c5_cap3_pinned_by_exhaustive(self):
        c5 = Graph.cycle(5)
        expected = exhaustive_local_minimum(c5, 3, 4)
        assert expected == 2  # all five chords form a 2-regular addition
        assert local_resilience_witness(c5, 3, 4)[0] == 2

    def test_witness_degree_capped(self):
        hit = local_resilience_witness(Graph.cycle(5), 3, 4)
        assert hit is not None
        delta, witness = hit
        assert delta == 2 and witness.max_degree() <= 2
        assert brute_chromatic(union(Graph.cycle(5), witness)) > 3

    def test_matches_exhaustive_on_randoms(self):
        for seed in range(6):
            g = gnp(5, 0.5, seed)
            cap = chromatic_exact(g)
            assert witness_value(local_resilience_witness(g, cap, 4)) == \
                exhaustive_local_minimum(g, cap, 4)

    def test_matches_exhaustive_n6(self):
        for seed in range(4):
            g = gnp(6, 0.5, seed)
            cap = chromatic_exact(g)
            assert witness_value(local_resilience_witness(g, cap, 5)) == \
                exhaustive_local_minimum(g, cap, 5)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            local_resilience_witness(Graph.empty(12), 1, 1)

    def test_node_budget(self):
        # the DFS reaches its first leaf (a perfect matching of K8's 28
        # non-edges) at node 29
        with pytest.raises(SearchBudgetError):
            local_resilience_witness(Graph.empty(8), 1, 1, node_budget=28)
        delta, witness = local_resilience_witness(Graph.empty(8), 1, 1, node_budget=29)
        assert delta == 1
        assert witness.sorted_pairs() == [(0, 1), (2, 3), (4, 5), (6, 7)]
