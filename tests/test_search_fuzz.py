"""Derandomized fuzz of the exact searches against the brute-force oracles in
conftest (every subset for alpha, plain recursive assignment for coloring),
and against networkx's maximum clique of the complement where networkx is
installed."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

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
from conftest import brute_alpha, brute_chromatic, brute_colorable

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
