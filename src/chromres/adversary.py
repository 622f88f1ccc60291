"""Edge-addition strategies and exact resilience oracles.

The oracles are exhaustive ground truth at tiny n: both run one search over
candidate edge additions in a documented order of classes (global: edge
count ascending, colexicographic within a class; local: degree cap Delta
ascending, maximal bounded subsets in include-first DFS order), so the first
hit is minimal, and they never approximate. Every chi_cap-coloring the
search finds joins a pool, and a candidate that some pooled coloring leaves
proper is skipped without a search: adding its pairs keeps chi <= chi_cap,
so it cannot be the first hit, and the first hit and its witness are those
of searching every candidate.
Strategies (clique planting, random budgets, bounded-degree graphs) scale to
any n the graph module handles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np

from .coloring import Coloring, _search, chromatic_exact, verify_coloring
from .graph import EdgeSet, Graph, _count, union
from .isets import SizeLimitError


class SearchBudgetError(RuntimeError):
    """The oracle search outgrew its node budget."""


def plant_clique(g: Graph, target_vertices: Iterable[int]) -> EdgeSet:
    """Every pair inside target_vertices that g is missing."""
    targets = sorted(set(target_vertices))
    for v in targets:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    pairs = [(u, v) for u, v in combinations(targets, 2) if not g.has_edge(u, v)]
    return EdgeSet.from_pairs(pairs)


def random_budget(g: Graph, m: int, seed: int) -> EdgeSet:
    """m uniformly chosen distinct non-edges of g, deterministic in seed;
    ValueError unless m and seed are counts and m <= the number of
    non-edges."""
    _count("m", m)
    _count("seed", seed)
    non_edges = g.non_edges()
    if m > len(non_edges):
        raise ValueError(f"m={m} exceeds the {len(non_edges)} non-edges available")
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(non_edges), size=m, replace=False)
    return EdgeSet.from_pairs(non_edges[i] for i in idx)


# Stub matchings bounded_degree_h draws before it erases loops and repeats.
_MATCHING_ATTEMPTS = 100


def bounded_degree_h(n: int, delta: int, seed: int) -> tuple[EdgeSet, int]:
    """Random graph on n vertices with maximum degree <= delta.

    Stub-matching generation: delta stubs per vertex, random perfect
    matching, rejected and retried while it produces loops or repeated
    pairs. After _MATCHING_ATTEMPTS rejections one more matching is kept
    with loops and duplicates erased (degrees only shrink, so the cap still
    holds; exact uniformity is not the contract). Returns the edges and the
    realized maximum degree. ValueError unless n, delta and seed are counts
    and delta <= n - 1.
    """
    _count("n", n)
    _count("delta", delta)
    _count("seed", seed)
    if delta > n - 1:
        raise ValueError("delta must be <= n-1")
    if delta == 0 or n < 2:
        return EdgeSet(frozenset()), 0
    rng = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n), delta)
    if len(stubs) % 2 == 1:
        stubs = stubs[:-1]
    for _ in range(_MATCHING_ATTEMPTS + 1):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        simple = u != v
        pairs = set(zip(np.minimum(u, v)[simple].tolist(), np.maximum(u, v)[simple].tolist()))
        # accept a matching with no loop and no repeat; the last one is kept
        # erased, its simple part only
        if len(pairs) == len(u):
            break
    edges = EdgeSet(frozenset(pairs))
    max_deg = edges.max_degree()
    if max_deg > delta:
        raise AssertionError(f"bounded_degree_h produced degree {max_deg} > delta={delta}")
    return edges, max_deg


def _colex_combinations(items: list, r: int) -> Iterator[tuple]:
    """Size-r subsets in colexicographic order of item indices."""
    if r == 0:
        yield ()
        return
    for last in range(r - 1, len(items)):
        for rest in _colex_combinations(items[:last], r - 1):
            yield rest + (items[last],)


def _first_defeat(g: Graph, chi_cap: int, non_edges: list[tuple[int, int]],
                  classes: Iterable[tuple[int, Iterable[tuple]]],
                  ) -> Optional[tuple[int, EdgeSet]]:
    """First (value, candidate) of `classes`, in order, whose pairs added to
    g push chi above chi_cap; (0, empty) if chi(g) already exceeds chi_cap,
    None if no candidate does.

    Each class is a value with its candidate pair tuples, all in non_edges.
    Every chi_cap-coloring found on the way (first of g, then of g plus each
    candidate searched) joins a pool, and `split` maps each non-edge of g to
    the bitmask of pooled colorings that give its ends different colors. A
    candidate whose pairs' masks share a bit leaves that coloring proper, so
    chi stays <= chi_cap and it is skipped unsearched. Only candidates that
    cannot defeat the cap are skipped, so the first defeat, its value and its
    witness are those of searching every candidate in order. Each coloring
    is checked proper before it joins, since every later skip rests on it.
    """
    if chromatic_exact(g) > chi_cap:
        return 0, EdgeSet(frozenset())
    split = dict.fromkeys(non_edges, 0)
    bit = 1

    def admit(h: Graph, coloring: Coloring) -> None:
        nonlocal bit
        if coloring.num_colors > chi_cap or not verify_coloring(h, coloring):
            raise AssertionError(f"pooled coloring is not a proper {chi_cap}-coloring")
        colors = coloring.colors
        for u, v in non_edges:
            if colors[u] != colors[v]:
                split[u, v] |= bit
        bit <<= 1

    base_coloring = _search(g, chi_cap)
    if base_coloring is None:
        raise AssertionError(f"no {chi_cap}-coloring although chi <= {chi_cap}")
    admit(g, base_coloring)
    for value, candidates in classes:
        for pairs in candidates:
            common = -1
            for pair in pairs:
                common &= split[pair]
                if not common:
                    break
            if common:
                continue
            e = EdgeSet(frozenset(pairs))
            h = union(g, e)
            coloring = _search(h, chi_cap)
            if coloring is None:
                return value, e
            admit(h, coloring)
    return None


def global_resilience_witness(g: Graph, chi_cap: int,
                              m_max: int) -> Optional[tuple[int, EdgeSet]]:
    """Least m <= m_max with an m-edge addition pushing chi above chi_cap,
    plus one witness edge set; None if no m qualifies.

    Search: size classes ascending, colex order within a class. ValueError
    unless chi_cap and m_max are counts.
    """
    _count("chi_cap", chi_cap)
    _count("m_max", m_max)
    non_edges = g.non_edges()
    return _first_defeat(g, chi_cap, non_edges, (
        (size, _colex_combinations(non_edges, size))
        for size in range(1, min(m_max, len(non_edges)) + 1)))


def global_resilience_oracle(g: Graph, chi_cap: int, m_max: int) -> Optional[int]:
    """Minimum number of added edges defeating 'chi <= chi_cap'; see witness."""
    hit = global_resilience_witness(g, chi_cap, m_max)
    return None if hit is None else hit[0]


def _maximal_bounded_subsets(non_edges: list[tuple[int, int]], n: int, delta: int,
                             node_budget: int) -> Iterator[tuple]:
    """Maximal subsets of non_edges with every vertex in at most delta pairs.

    Include/exclude DFS in list order, include first; leaves whose excluded
    edges could still be added are dominated by another leaf and skipped.
    Chromatic number is monotone under edge addition, so testing maximal sets
    only is exhaustive. SearchBudgetError when the walk visits more than
    node_budget nodes (one per pair index reached on a path, plus the leaf).

    The walk runs on an explicit stack: `stack` holds the indices of the
    pairs included on the current path, and a leaf pops the deepest one and
    resumes at its exclude child, so the nodes, their count and their order
    are those of the recursive DFS. Chosen pairs are kept as per-vertex
    bitmask rows (`taken`) and the vertices still below delta as the mask
    `open_`; a leaf is maximal iff no open vertex has an open non-edge
    partner it has not taken.
    """
    ends = [(u, v, 1 << u, 1 << v) for u, v in non_edges]
    free = [0] * n  # free[u]: u's partners in non_edges
    for u, v, bu, bv in ends:
        free[u] |= bv
        free[v] |= bu
    taken = [0] * n
    deg = [0] * n
    open_ = (1 << n) - 1 if delta > 0 else 0
    stack: list[int] = []
    nodes = 0
    i = 0
    m = len(ends)
    while True:
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError(
                f"local oracle exceeded {node_budget} nodes at Delta={delta}")
        if i < m:
            u, v, bu, bv = ends[i]
            if open_ & bu and open_ & bv:
                taken[u] |= bv
                taken[v] |= bu
                deg[u] += 1
                deg[v] += 1
                if deg[u] == delta:
                    open_ ^= bu
                if deg[v] == delta:
                    open_ ^= bv
                stack.append(i)
            i += 1
            continue
        w = open_
        while w:  # walked by hand: the walk stops at the first dominated vertex
            lsb = w & -w
            u = lsb.bit_length() - 1
            if free[u] & ~taken[u] & open_:
                break  # dominated: some excluded edge still fits
            w ^= lsb
        else:
            yield tuple(non_edges[j] for j in stack)
        if not stack:
            return
        i = stack.pop()
        u, v, bu, bv = ends[i]
        taken[u] ^= bv
        taken[v] ^= bu
        deg[u] -= 1
        deg[v] -= 1
        open_ |= bu | bv
        i += 1


def local_resilience_witness(g: Graph, chi_cap: int, delta_max: int,
                             size_limit: int = 9,
                             node_budget: int = 5_000_000,
                             ) -> Optional[tuple[int, EdgeSet]]:
    """Least Delta <= delta_max such that some added graph H with max degree
    <= Delta pushes chi above chi_cap, plus a witness H; None otherwise.

    Exhaustive over maximal degree-bounded subsets of the non-edges, Delta
    ascending, so the first success is minimal. Restricted to n <= size_limit;
    SearchBudgetError when one Delta's subset search visits more than
    node_budget nodes. ValueError unless the four numbers are counts.
    """
    _count("chi_cap", chi_cap)
    _count("delta_max", delta_max)
    _count("size_limit", size_limit)
    _count("node_budget", node_budget)
    if g.n > size_limit:
        raise SizeLimitError(f"n={g.n} exceeds local-oracle limit {size_limit}")
    non_edges = g.non_edges()
    return _first_defeat(g, chi_cap, non_edges, (
        (delta, _maximal_bounded_subsets(non_edges, g.n, delta, node_budget))
        for delta in range(1, delta_max + 1)))


def local_resilience_oracle(g: Graph, chi_cap: int, delta_max: int,
                            size_limit: int = 9,
                            node_budget: int = 5_000_000) -> Optional[int]:
    """Minimum per-vertex budget defeating 'chi <= chi_cap'; see witness."""
    hit = local_resilience_witness(g, chi_cap, delta_max, size_limit, node_budget)
    return None if hit is None else hit[0]
