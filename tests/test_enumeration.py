"""The enumeration kernel against the recursive DFS whose tree it walks.

count_dfs_nodes_reference and enumerate_sets_reference in conftest visit the
same search tree one node at a time. enumerate_isets must return the same
sets in the same order, and trip its node budget and its set limit at
exactly the same totals: a node budget of N - 1 raises where N is the
reference's node total and N does not, and a limit of one set fewer than the
family raises where the family's own size does not. Every set is a leaf of
the tree below a root that holds none, so a family is always smaller than N:
a set limit at or above the node budget can never trip first.
"""

from __future__ import annotations

import functools
import random

import pytest

from chromres import EnumerationLimitError, GnpParams, enumerate_isets, generate_gnp, isets
from chromres.graph import mask_of
from conftest import count_dfs_nodes_reference, enumerate_sets_reference

N = 600


@functools.lru_cache(maxsize=None)
def _graph(p: float):
    return generate_gnp(GnpParams(N, p, 17))


def _mask(s: int, seed: int) -> int:
    return mask_of(random.Random(seed).sample(range(N), s))


def _raises(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except EnumerationLimitError:
        return True
    return False


def _check(g, within: int, k: int) -> None:
    sets, nodes = count_dfs_nodes_reference(g.rows, within, k)
    assert enumerate_isets(g, k, within=within).sets == tuple(sets)
    assert len(sets) < nodes or not nodes
    budgets = [nodes - 1, nodes] if nodes else [0]
    limits = [len(sets) - 1, len(sets)] if sets else [0]
    for budget in budgets:
        expected = _raises(enumerate_sets_reference, g.rows, within, k, 10**9, budget)
        assert expected == (budget < nodes)
        assert _raises(enumerate_isets, g, k, node_budget=budget, within=within) == expected
    for limit in limits:
        expected = _raises(enumerate_sets_reference, g.rows, within, k, limit)
        assert expected == (limit < len(sets))
        assert _raises(enumerate_isets, g, k, limit=limit, within=within) == expected


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("s", [0, 1, 63, 64, 65, 128, 129, 130])
def test_matches_reference_dfs(p, s):
    # masks of s vertices scattered over labels up to 600, so every row has
    # bits outside the mask; s around 64 and 128 cross the word boundaries
    g = _graph(p)
    within = _mask(s, s)
    for k in sorted({1, 2, s, s + 1} - {0}):
        _check(g, within, k)


def test_frames_wider_than_a_step():
    # k = 3 on 130 vertices at p = 1/2: the depth-2 frame holds thousands of
    # nodes, many more than one step expands
    g = _graph(0.5)
    within = _mask(130, 1)
    assert len(enumerate_isets(g, 2, within=within)) > 4 * (isets._STEP_BYTES // (64 * 3))
    _check(g, within, 3)


@pytest.mark.parametrize("k", [3, 5])
def test_one_parent_per_step(monkeypatch, k):
    # the smallest step: every step expands a single node
    monkeypatch.setattr(isets, "_STEP_BYTES", 1)
    g = _graph(0.5)
    _check(g, _mask(48, k), k)
