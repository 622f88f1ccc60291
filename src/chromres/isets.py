"""Exact independent-set machinery: maximum independent set, exhaustive
fixed-size enumeration with pair-coverage accounting, the capped-family
deletion construction, and the sparse-member selector.

All searches run on the bit-packed adjacency rows, restricted to a vertex
bitmask `within` where given, and use documented, deterministic orderings
so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graph import EdgeSet, Graph


class SizeLimitError(RuntimeError):
    """Instance exceeds the configured exact-search size limit."""


class EnumerationLimitError(RuntimeError):
    """Enumeration would produce more sets than the anti-explosion guard allows."""


def _vertex_mask(g: Graph, within: Optional[int]) -> int:
    if within is None:
        return (1 << g.n) - 1
    if within >> g.n:  # also true for a negative mask
        raise ValueError(f"vertex mask {within:#x} has bits outside 0..{g.n - 1}")
    return within


def is_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.has_edge(u, v):
                return False
    return True


def max_independent_set(g: Graph, limit: int = 120,
                        within: Optional[int] = None) -> tuple[int, ...]:
    """Exact maximum independent set of the vertex mask `within` (default:
    all of g) via branch-and-bound.

    Pruning bound: greedy clique cover of the candidate set (any clique
    contributes at most one vertex to an independent set). Branching order
    is vertices by descending degree inside `within`, ties by index, so the
    result is deterministic. Raises SizeLimitError when `within` holds more
    than `limit` vertices.
    """
    top = _vertex_mask(g, within)
    size = top.bit_count()
    if size > limit:
        raise SizeLimitError(f"n={size} exceeds exact-search limit {limit}")
    if size == 0:
        return ()
    rows = g.rows
    order = sorted((v for v in range(g.n) if (top >> v) & 1),
                   key=lambda v: (-(rows[v] & top).bit_count(), v))

    best = list(turan_extract(g, top))  # greedy start, never empty for size >= 1
    best_size = len(best)
    cur: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best, best_size
        # Greedy clique cover of cand. Sorted by cover-class index, each
        # candidate's bound (index+1) covers every candidate still
        # unprocessed when the reversed loop reaches it.
        cliques: list[int] = []
        labeled: list[tuple[int, int]] = []
        for v in order:
            if not (cand >> v) & 1:
                continue
            for ci in range(len(cliques)):
                if (cliques[ci] >> v) & 1:
                    cliques[ci] &= rows[v]
                    labeled.append((ci + 1, v))
                    break
            else:
                cliques.append(rows[v])
                labeled.append((len(cliques), v))
        labeled.sort()
        for bound, v in reversed(labeled):
            if len(cur) + bound <= best_size:
                return
            cur.append(v)
            ncand = cand & ~(rows[v] | (1 << v))
            if ncand:
                expand(ncand)
            elif len(cur) > best_size:
                best = cur.copy()
                best_size = len(cur)
            cur.pop()
            cand &= ~(1 << v)

    expand(top)
    result = tuple(sorted(best))
    if not is_independent(g, result):
        raise AssertionError(f"max_independent_set returned a dependent set {result}")
    return result


def min_degree_vertex(rows: tuple[int, ...], alive: int) -> tuple[int, int]:
    """Lowest-index vertex of minimum degree inside the non-empty mask
    `alive`, with that degree (neighbours outside `alive` do not count)."""
    best_v, best_d = -1, alive.bit_count()
    m = alive
    while m:
        lsb = m & -m
        v = lsb.bit_length() - 1
        m ^= lsb
        d = (rows[v] & alive).bit_count()
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d


def turan_extract(g: Graph, within: Optional[int] = None) -> tuple[int, ...]:
    """Greedy independent set of the vertex mask `within` (default: all of
    g): repeatedly take a minimum-degree vertex and delete its closed
    neighborhood. Guarantees size >= s^2/(2e+s) for the s vertices and e
    edges inside `within`."""
    rows = g.rows
    alive = _vertex_mask(g, within)
    out = []
    while alive:
        v, _ = min_degree_vertex(rows, alive)
        out.append(v)
        alive &= ~(rows[v] | (1 << v))
    result = tuple(sorted(out))
    if not is_independent(g, result):
        raise AssertionError(f"turan_extract returned a dependent set {result}")
    return result


@dataclass(frozen=True)
class IsetFamily:
    """A collection of independent sets of one size with coverage statistics.

    coverage maps each unordered vertex pair to the number of member sets
    containing both endpoints (pairs covered zero times are omitted). When a
    cap was applied, excess_mass is the total pre-deletion coverage over the
    pairs whose coverage exceeded the cap, and deleted counts the removed
    sets, so len(sets) + deleted recovers the unconstrained total.
    """

    k: int
    sets: tuple[tuple[int, ...], ...]
    coverage: dict[tuple[int, int], int]
    cap: Optional[float] = None
    excess_mass: int = 0
    deleted: int = 0

    def __len__(self) -> int:
        return len(self.sets)

    def coverage_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for c in self.coverage.values():
            hist[c] = hist.get(c, 0) + 1
        return hist

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "sets": [list(s) for s in self.sets],
            "coverage_histogram": self.coverage_histogram(),
            "cap": self.cap,
            "excess_mass": self.excess_mass,
            "deleted": self.deleted,
        }


def _coverage_of(sets: list[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    cov: dict[tuple[int, int], int] = {}
    for s in sets:
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                pr = (s[i], s[j])
                cov[pr] = cov.get(pr, 0) + 1
    return cov


def _enumerate_sets(rows: tuple[int, ...], within: int, k: int, limit: int,
                    node_budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """DFS over increasing vertex labels; sets come out lexicographically sorted."""
    out: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(cand: int, chosen: list[int], need: int) -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise EnumerationLimitError(f"enumeration exceeded node budget {node_budget}")
        if need == 0:
            out.append(tuple(chosen))
            if len(out) > limit:
                raise EnumerationLimitError(f"more than {limit} independent sets")
            return
        c = cand
        while c:
            if c.bit_count() < need:
                return
            lsb = c & -c
            v = lsb.bit_length() - 1
            c ^= lsb
            chosen.append(v)
            dfs(c & ~rows[v], chosen, need - 1)
            chosen.pop()

    if k <= within.bit_count():
        dfs(within, [], k)
    return out


def enumerate_isets(g: Graph, k: int, limit: int = 5_000_000,
                    node_budget: Optional[int] = None,
                    within: Optional[int] = None) -> IsetFamily:
    """All independent sets of size exactly k inside the vertex mask `within`
    (default: all of g), with pair coverage filled.

    Raises EnumerationLimitError if their number would exceed `limit` or,
    when node_budget is set, if the search tree outgrows it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sets = _enumerate_sets(g.rows, _vertex_mask(g, within), k, limit, node_budget)
    if __debug__:
        for s in sets:
            assert is_independent(g, s)
    return IsetFamily(k=k, sets=tuple(sets), coverage=_coverage_of(sets))


def uniform_family(family: IsetFamily, cap: float) -> IsetFamily:
    """Cap the pair coverage of an enumerated family by snapshot deletion.

    `family` is every independent k-set, as enumerate_isets returns it. For
    each pair whose coverage in `family` exceeds `cap`, every set containing
    that pair is deleted; pairs are judged against that initial snapshot, so
    the outcome does not depend on the order of deletion. The surviving
    family covers every pair at most `cap` times; excess_mass records the
    pre-deletion coverage mass sitting above the cap.
    """
    snapshot = family.coverage
    bad = {pr for pr, c in snapshot.items() if c > cap}
    kept = [s for s in family.sets if bad.isdisjoint(combinations(s, 2))]
    fam = IsetFamily(
        k=family.k,
        sets=tuple(kept),
        coverage=_coverage_of(kept),
        cap=cap,
        excess_mass=sum(snapshot[pr] for pr in bad),
        deleted=len(family.sets) - len(kept),
    )
    if any(c > cap for c in fam.coverage.values()):
        raise AssertionError(f"capped family still covers a pair more than {cap} times")
    return fam


def sparse_iset(family: IsetFamily, e: EdgeSet) -> tuple[tuple[int, ...], int]:
    """Member set containing the fewest pairs of e, with that count.

    Linear scan over the family, first minimizer wins (sets are stored in
    lexicographic order, so this is deterministic). When the family carries a
    cap, the averaging bound count <= ceil(cap * |e| / |family|) is checked,
    so e must hold only pairs among the family's vertex set.
    """
    if not family.sets:
        raise ValueError("family is empty")
    pair_list = e.sorted_pairs()
    best_set = None
    best_count = None
    for s in family.sets:
        members = set(s)
        count = sum(1 for u, v in pair_list if u in members and v in members)
        if best_count is None or count < best_count:
            best_set, best_count = s, count
    if family.cap is not None:
        bound = math.ceil(family.cap * e.m / len(family.sets))
        if best_count > bound:
            raise AssertionError(f"sparsest member has {best_count} pairs, "
                                 f"above the averaging bound {bound}")
    return best_set, best_count
