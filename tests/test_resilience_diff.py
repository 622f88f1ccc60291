"""The resilience oracles return exactly what their references in conftest
return: the same (value, witness) as searching every candidate that one
fixed coloring of g leaves improper, the same maximal bounded subsets in the
same order as the recursive DFS, and a SearchBudgetError at the same node
budget. The pool of colorings skips every candidate it can, and only ever
admits proper colorings."""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import chromres.adversary as adversary
from chromres import (
    GnpParams,
    Graph,
    SearchBudgetError,
    chromatic_exact,
    generate_gnp,
    global_resilience_witness,
    local_resilience_witness,
)
from chromres.adversary import _colex_combinations, _maximal_bounded_subsets
from conftest import first_defeat_reference, maximal_bounded_subsets_reference

DIFF = settings(max_examples=40, derandomize=True, deadline=None)
M_MAX = 4
DELTA_MAX = 3
LEAVES = 300


def _gnp(n: int, p: float, seed: int) -> Graph:
    return generate_gnp(GnpParams(n, p, seed))


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    return _gnp(rng.randint(3, 9), rng.choice([0.3, 0.5, 0.7]), rng.randrange(10**6))


def _caps(g: Graph) -> list[int]:
    chi = chromatic_exact(g)
    return [cap for cap in (chi - 1, chi, chi + 1) if cap >= 1]


def _global_reference(g: Graph, cap: int):
    non_edges = g.non_edges()
    return first_defeat_reference(g, cap, (
        (size, _colex_combinations(non_edges, size))
        for size in range(1, min(M_MAX, len(non_edges)) + 1)))


def _local_reference(g: Graph, cap: int, visits: list):
    non_edges = g.non_edges()
    return first_defeat_reference(g, cap, (
        (delta, maximal_bounded_subsets_reference(non_edges, g.n, delta, 10**9, visits))
        for delta in range(1, DELTA_MAX + 1)))


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_oracles_match_reference(seed):
    g = _random_graph(seed)
    for cap in _caps(g):
        assert global_resilience_witness(g, cap, M_MAX) == _global_reference(g, cap)
        visits: list[int] = []
        expected = _local_reference(g, cap, visits)
        assert local_resilience_witness(g, cap, DELTA_MAX) == expected
        if visits:  # the least budget the reference needs is the new one's too
            assert local_resilience_witness(g, cap, DELTA_MAX, node_budget=max(visits)) == expected
            with pytest.raises(SearchBudgetError):
                local_resilience_witness(g, cap, DELTA_MAX, node_budget=max(visits) - 1)


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_bounded_subsets_match_reference(seed):
    """The first LEAVES subsets (all of them on small graphs; the full walk
    at Delta = 3 on 25 non-edges takes seconds in the reference), and the
    node count N at which the reference yields the last of them: a budget of
    N yields the same subsets, N - 1 raises."""
    g = _random_graph(seed)
    non_edges = g.non_edges()
    for delta in range(0, DELTA_MAX + 1):
        visits: list[int] = []
        expected = list(islice(maximal_bounded_subsets_reference(
            non_edges, g.n, delta, 10**9, visits), LEAVES))
        nodes = visits[0]
        assert list(islice(_maximal_bounded_subsets(non_edges, g.n, delta, nodes),
                           LEAVES)) == expected
        with pytest.raises(SearchBudgetError):
            list(islice(_maximal_bounded_subsets(non_edges, g.n, delta, nodes - 1), LEAVES))


def test_budget_error_names_delta():
    with pytest.raises(SearchBudgetError, match=r"exceeded 28 nodes at Delta=1$"):
        local_resilience_witness(Graph.empty(8), 1, 1, node_budget=28)


# G(10, 1/2) seed 0 has chi = 4; at cap 5 the global oracle defeats it with
# 4 edges and the local oracle at Delta = 3. Searching every candidate that
# the base coloring leaves improper takes 5806 and 14587 exact coloring searches.
POOL_G = _gnp(10, 0.5, 0)
POOL_CASES = [
    pytest.param(lambda: global_resilience_witness(POOL_G, 5, 6), 4, 35, id="global"),
    pytest.param(lambda: local_resilience_witness(POOL_G, 5, 3, size_limit=10), 3, 109,
                 id="local"),
]


@pytest.mark.parametrize("oracle,value,max_searches", POOL_CASES)
def test_pool_skips_every_candidate_it_can(monkeypatch, oracle, value, max_searches):
    searches: list = []  # (graph searched, coloring or None), in call order
    search = adversary._search

    def recorded(h, k):
        searches.append((h, search(h, k)))
        return searches[-1][1]

    monkeypatch.setattr(adversary, "_search", recorded)
    hit = oracle()
    assert hit is not None and hit[0] == value
    assert searches[0][0] == POOL_G and searches[-1][1] is None
    non_edges = POOL_G.non_edges()
    found = []
    for h, coloring in searches:
        added = [(u, v) for u, v in non_edges if h.has_edge(u, v)]
        for colors in found:  # a pooled coloring proper on h would have skipped it
            assert any(colors[u] == colors[v] for u, v in added)
        if coloring is not None:
            found.append(coloring.colors)
    assert len(searches) <= max_searches


def test_pool_admits_only_proper_colorings(monkeypatch):
    g = _gnp(10, 0.5, 0)
    base = adversary._search(g, 5)
    # every candidate searched is improper under the base coloring
    monkeypatch.setattr(adversary, "_search", lambda h, k: base)
    with pytest.raises(AssertionError, match="not a proper 5-coloring"):
        global_resilience_witness(g, 5, 6)
