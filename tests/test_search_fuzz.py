"""Derandomized fuzz of the exact searches against the brute-force oracles in
conftest (every subset for alpha, plain recursive assignment for coloring),
and against networkx's maximum clique of the complement where networkx is
installed. chromatic_exact is also fuzzed with its exact try starved, so
that every k it settles goes through TabuCol and the unbudgeted fallback."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from chromres import (
    GnpParams,
    Graph,
    chromatic_exact,
    dsatur,
    find_coloring,
    generate_gnp,
    is_independent,
    max_independent_set,
    verify_coloring,
)
from chromres import coloring
from chromres.coloring import greedy_clique
from conftest import brute_alpha, brute_chromatic, brute_colorable, find_coloring_reference

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def _graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(0, 11)
    if n == 0:
        return Graph.empty(0)
    return generate_gnp(GnpParams(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng.randrange(10**6)))


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_max_independent_set_is_maximum(seed):
    g = _graph(seed)
    mis = max_independent_set(g)
    assert is_independent(g, mis)
    assert len(mis) == brute_alpha(g)


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_colorings_match_brute_force(seed):
    g = _graph(seed)
    chi = brute_chromatic(g)
    ds = dsatur(g)
    assert verify_coloring(g, ds) and ds.num_colors >= chi
    assert chromatic_exact(g) == chi
    for k in range(max(0, chi - 1), chi + 2):
        c = find_coloring(g, k)
        assert (c is not None) == brute_colorable(g, k)
        if c is not None:
            assert verify_coloring(g, c) and c.num_colors <= k


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chromatic_exact_walks_k_where_the_bounds_differ(seed):
    """_graph's small graphs mostly have a clique bound equal to DSATUR's
    count, where chromatic_exact searches no k. On G(n, 1/2), n 15-30, with
    a gap between the two, it must stop at the first k, counting up from
    the clique bound, that the reference search colors."""
    rng = random.Random(seed)
    g = generate_gnp(GnpParams(rng.randint(15, 30), 0.5, rng.randrange(10**6)))
    k = greedy_clique(g)
    assume(k < dsatur(g).num_colors)
    while find_coloring_reference(g, k) is None:
        k += 1
    assert chromatic_exact(g) == k


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_alpha_matches_networkx_clique_of_complement(seed):
    nx = pytest.importorskip("networkx")
    g = _graph(seed)
    base = nx.Graph()
    base.add_nodes_from(range(g.n))
    base.add_edges_from(g.edges())
    _, size = nx.max_weight_clique(nx.complement(base), weight=None)
    assert len(max_independent_set(g)) == size


def _spied(tries: list) -> tuple:
    """Stand-ins for coloring._search and coloring._tabucol that log each
    call as (search, k, budget) or (tabucol, k, found?) in `tries`."""
    search, tabucol = coloring._search, coloring._tabucol

    def spy_search(g, k, budget=None):
        tries.append(("search", k, budget))
        return search(g, k, budget)

    def spy_tabucol(g, k, start):
        found = tabucol(g, k, start)
        tries.append(("tabucol", k, found is not None))
        return found

    return spy_search, spy_tabucol


@pytest.mark.parametrize("moves", [coloring._TABU_MOVES_PER_VERTEX, 0])
@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_chromatic_exact_without_exact_tries_matches_brute_force(moves, seed):
    """A node budget of 0 sends every k chromatic_exact tries to TabuCol; a
    move cap of 0 as well sends each k TabuCol cannot color to the
    unbudgeted search. The value is brute force's either way."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = generate_gnp(GnpParams(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(10**6)))
    tries: list = []
    spy_search, spy_tabucol = _spied(tries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_EXACT_TRY_NODES", 0)
        mp.setattr(coloring, "_TABU_MOVES_PER_VERTEX", moves)
        mp.setattr(coloring, "_search", spy_search)
        mp.setattr(coloring, "_tabucol", spy_tabucol)
        assert chromatic_exact(g) == brute_chromatic(g)
    for i, (kind, k, arg) in enumerate(tries):
        if kind == "search" and arg == 0:
            assert tries[i + 1][:2] == ("tabucol", k)
        elif kind == "tabucol" and not arg:
            assert tries[i + 1] == ("search", k, None)


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_tabucol_returns_proper_colorings_or_none(seed):
    """TabuCol from DSATUR's coloring finds nothing below chi (its conflict
    table must never reach zero falsely, which its verify would catch), and
    at chi returns a proper chi-coloring or None."""
    g = _graph(seed)
    chi = brute_chromatic(g)
    start = dsatur(g)
    for k in range(1, chi):
        assert coloring._tabucol(g, k, start) is None
    if g.n:
        found = coloring._tabucol(g, chi, start)
        assert found is None or (verify_coloring(g, found) and found.num_colors == chi)


@pytest.mark.parametrize("g", [Graph.cycle(5), Graph.cycle(7)])
def test_failed_tabucol_falls_back_to_the_exact_search(g, monkeypatch):
    """An odd cycle: clique bound 2, chi 3. With no exact budget the 2-coloring
    goes to TabuCol, which cannot find one, and the unbudgeted search refutes
    k = 2."""
    tries: list = []
    spy_search, spy_tabucol = _spied(tries)
    monkeypatch.setattr(coloring, "_EXACT_TRY_NODES", 0)
    monkeypatch.setattr(coloring, "_search", spy_search)
    monkeypatch.setattr(coloring, "_tabucol", spy_tabucol)
    assert chromatic_exact(g) == 3
    assert tries == [("search", 2, 0), ("tabucol", 2, False), ("search", 2, None)]
