"""Edge-addition strategies and exact resilience oracles.

The oracles are exhaustive ground truth at tiny n: they search candidate
edge additions in a documented order (size classes ascending, colexicographic
within a class) so the first hit is minimal, and they never approximate.
Strategies (clique planting, random budgets, bounded-degree graphs) scale to
any n the graph module handles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np

from .coloring import chromatic_exact, find_coloring
from .graph import EdgeSet, Graph, union
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
    """m uniformly chosen distinct non-edges of g, deterministic in seed."""
    non_edges = g.non_edges()
    if m > len(non_edges):
        raise ValueError(f"m={m} exceeds the {len(non_edges)} non-edges available")
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(non_edges), size=m, replace=False)
    return EdgeSet.from_pairs(non_edges[i] for i in idx)


def bounded_degree_h(n: int, delta: int, seed: int,
                     attempts: int = 100) -> tuple[EdgeSet, int]:
    """Random graph on n vertices with maximum degree <= delta.

    Stub-matching generation: delta stubs per vertex, random perfect
    matching, rejected and retried while it produces loops or repeated
    pairs. After `attempts` tries the last matching is kept with loops and
    duplicates erased (degrees only shrink, so the cap still holds; exact
    uniformity is not the contract). Returns the edges and the realized
    maximum degree.
    """
    if delta > n - 1:
        raise ValueError("delta must be <= n-1")
    if delta <= 0 or n < 2:
        return EdgeSet(frozenset()), 0
    rng = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n), delta)
    if len(stubs) % 2 == 1:
        stubs = stubs[:-1]
    pairs: set[tuple[int, int]] = set()
    for _ in range(attempts):
        perm = rng.permutation(stubs)
        cand: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(perm) - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u == v or (min(u, v), max(u, v)) in cand:
                ok = False
                break
            cand.add((min(u, v), max(u, v)))
        if ok:
            pairs = cand
            break
    else:
        # erased configuration: keep the simple part of one more matching
        perm = rng.permutation(stubs)
        for i in range(0, len(perm) - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u != v:
                pairs.add((min(u, v), max(u, v)))
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


def _monochromatic_pairs(coloring, pairs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    return {(u, v) for u, v in pairs if coloring.colors[u] == coloring.colors[v]}


def global_resilience_witness(g: Graph, chi_cap: int, m_max: int,
                              chromatic_limit: int = 40,
                              ) -> Optional[tuple[int, EdgeSet]]:
    """Least m <= m_max with an m-edge addition pushing chi above chi_cap,
    plus one witness edge set; None if no m qualifies.

    Search: size classes ascending, colex order within a class. Candidate
    sets containing no pair that is monochromatic under one fixed
    chi_cap-coloring of g cannot raise chi above the cap and are skipped.
    """
    if chromatic_exact(g, chromatic_limit) > chi_cap:
        return 0, EdgeSet(frozenset())
    base_coloring = find_coloring(g, chi_cap)
    if base_coloring is None:
        raise AssertionError(f"no {chi_cap}-coloring although chi <= {chi_cap}")
    non_edges = g.non_edges()
    mono = _monochromatic_pairs(base_coloring, non_edges)
    for size in range(1, min(m_max, len(non_edges)) + 1):
        for subset in _colex_combinations(non_edges, size):
            if not any(pr in mono for pr in subset):
                continue
            e = EdgeSet(frozenset(subset))
            if find_coloring(union(g, e), chi_cap) is None:
                return size, e
    return None


def global_resilience_oracle(g: Graph, chi_cap: int, m_max: int,
                             chromatic_limit: int = 40) -> Optional[int]:
    """Minimum number of added edges defeating 'chi <= chi_cap'; see witness."""
    hit = global_resilience_witness(g, chi_cap, m_max, chromatic_limit)
    return None if hit is None else hit[0]


def _maximal_bounded_subsets(non_edges: list[tuple[int, int]], n: int, delta: int,
                             node_budget: int) -> Iterator[EdgeSet]:
    """Maximal subsets of non_edges with every vertex in at most delta pairs.

    Include/exclude DFS in list order; leaves whose excluded edges could still
    be added are dominated by another leaf and skipped. Chromatic number is
    monotone under edge addition, so testing maximal sets only is exhaustive.
    """
    deg = [0] * n
    chosen: list[tuple[int, int]] = []
    chosen_set: set[tuple[int, int]] = set()
    nodes = 0

    def dfs(i: int) -> Iterator[EdgeSet]:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError(f"local oracle exceeded {node_budget} nodes")
        if i == len(non_edges):
            for u, v in non_edges:
                if (u, v) not in chosen_set and deg[u] < delta and deg[v] < delta:
                    return  # dominated: some excluded edge still fits
            yield EdgeSet(frozenset(chosen))
            return
        u, v = non_edges[i]
        if deg[u] < delta and deg[v] < delta:
            chosen.append((u, v))
            chosen_set.add((u, v))
            deg[u] += 1
            deg[v] += 1
            yield from dfs(i + 1)
            chosen.pop()
            chosen_set.discard((u, v))
            deg[u] -= 1
            deg[v] -= 1
        yield from dfs(i + 1)

    yield from dfs(0)


def local_resilience_witness(g: Graph, chi_cap: int, delta_max: int,
                             size_limit: int = 9,
                             node_budget: int = 5_000_000,
                             chromatic_limit: int = 40,
                             ) -> Optional[tuple[int, EdgeSet]]:
    """Least Delta <= delta_max such that some added graph H with max degree
    <= Delta pushes chi above chi_cap, plus a witness H; None otherwise.

    Exhaustive over maximal degree-bounded subsets of the non-edges, Delta
    ascending, so the first success is minimal. Restricted to tiny n.
    """
    if g.n > size_limit:
        raise SizeLimitError(f"n={g.n} exceeds local-oracle limit {size_limit}")
    if chromatic_exact(g, chromatic_limit) > chi_cap:
        return 0, EdgeSet(frozenset())
    non_edges = g.non_edges()
    base_coloring = find_coloring(g, chi_cap)
    if base_coloring is None:
        raise AssertionError(f"no {chi_cap}-coloring although chi <= {chi_cap}")
    mono = _monochromatic_pairs(base_coloring, non_edges)
    for delta in range(1, delta_max + 1):
        for h in _maximal_bounded_subsets(non_edges, g.n, delta, node_budget):
            if not any(pr in mono for pr in h.pairs):
                continue
            if find_coloring(union(g, h), chi_cap) is None:
                return delta, h
    return None


def local_resilience_oracle(g: Graph, chi_cap: int, delta_max: int,
                            size_limit: int = 9,
                            node_budget: int = 5_000_000) -> Optional[int]:
    """Minimum per-vertex budget defeating 'chi <= chi_cap'; see witness."""
    hit = local_resilience_witness(g, chi_cap, delta_max, size_limit, node_budget)
    return None if hit is None else hit[0]
