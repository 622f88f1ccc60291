"""Exact independent-set machinery: maximum independent set, exhaustive
fixed-size enumeration with pair-coverage accounting, the capped-family
deletion construction, and the sparse-member selector.

All searches run on the bit-packed adjacency rows, restricted to a vertex
bitmask `within` where given, and use documented, deterministic orderings
so results are reproducible. Fixed-size enumeration walks the tree of the
plain DFS over increasing labels, a block of nodes at a time on packed
numpy bitsets: the same tree, the same node count and the same
lexicographic order of sets as the one-node-at-a-time recursion. The
maximum independent set search runs on bitsets over the mask's vertices
relabelled in its cover order and builds its clique-cover bound one class
at a time, the classes of first-fit in that order. Both read the relabelled
adjacency from graph._projected, in its blocks; graph's _bits and _ints are
the only conversions between adjacency rows and bit arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .graph import EdgeSet, Graph, _bits, _ints, _projected, mask_of


# Bytes one enumeration step unpacks its parents' candidate bitsets into (one
# byte per bit, at least one parent); a step makes at most this many children.
# The forward sets are built in the blocks of graph._projected.
_STEP_BYTES = 1 << 16


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
    """True iff no edge of g joins two of the vertices (repeats allowed);
    ValueError for a label outside 0..n-1."""
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    mask = mask_of(vs)
    rows = g.rows
    return not any(rows[v] & mask for v in vs)


def max_independent_set(g: Graph, limit: int = 120,
                        within: Optional[int] = None) -> tuple[int, ...]:
    """Exact maximum independent set of the vertex mask `within` (default:
    all of g) via branch-and-bound, started from the turan_extract set.

    Pruning bound: a greedy clique cover of the candidate set (a clique
    holds at most one vertex of an independent set). The cover takes the
    candidates in the cover order, descending degree inside `within` with
    ties by label, and builds one class at a time: a class starts at the
    first candidate left and takes, in order, every candidate adjacent to
    all its members so far (the classes of first-fit in that order). The
    search branches on the candidates from the highest class to the lowest,
    by descending label inside a class, and stops at the first class whose
    index cannot beat the incumbent. Bitsets run over the mask's vertices
    relabelled in cover order, so a class is built by lowest-bit steps.
    Raises SizeLimitError when `within` holds more than `limit` vertices.
    """
    top = _vertex_mask(g, within)
    size = top.bit_count()
    if size > limit:
        raise SizeLimitError(f"n={size} exceeds exact-search limit {limit}")
    if size == 0:
        return ()
    rows, n = g.rows, g.n
    order = sorted((v for v in range(n) if (top >> v) & 1),
                   key=lambda v: (-(rows[v] & top).bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    # adj[i]: the neighbours of order[i] inside `within`, as positions
    adj = [row for block in _projected(rows, order) for row in _ints(block)]

    best = list(turan_extract(g, top))  # greedy start, never empty for size >= 1
    best_size = len(best)
    cur: list[int] = []  # positions

    def expand(cand: int) -> None:
        nonlocal best, best_size
        # Clique cover of cand, one class at a time: a class starts at the
        # lowest position left and repeatedly takes the lowest position
        # adjacent to all its members so far. A class's index bounds what its
        # members can add. Classes up to `floor` are built but not listed:
        # best_size only grows below, so they are never branched on.
        depth = len(cur)
        floor = best_size - depth
        bound = 0
        rest = cand
        listed: list[int] = []  # class * n + label
        while rest:
            bound += 1
            q = rest
            while q:
                lsb = q & -q
                i = lsb.bit_length() - 1
                rest ^= lsb
                q &= adj[i]
                if bound > floor:
                    listed.append(bound * n + order[i])
        listed.sort()
        for key in reversed(listed):
            bound, v = divmod(key, n)
            if depth + bound <= best_size:
                return
            i = pos[v]
            cur.append(i)
            ncand = cand & ~(adj[i] | (1 << i))
            if ncand:
                expand(ncand)
            elif depth + 1 > best_size:
                best = [order[j] for j in cur]
                best_size = depth + 1
            cur.pop()
            cand &= ~(1 << i)

    expand((1 << size) - 1)
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


def _forward_sets(rows: tuple[int, ...], verts: np.ndarray, words: int) -> np.ndarray:
    """fwd[i] is the set of positions j > i whose vertex verts[j] is not
    adjacent to verts[i], over the ascending labels verts, packed
    little-endian into `words` uint64 words per row."""
    s = len(verts)
    fwd = np.zeros((s, 8 * words), dtype=np.uint8)
    cols = np.arange(s)
    r0 = 0
    for adj in _projected(rows, verts):
        r1 = r0 + len(adj)
        above = cols[None, :] > np.arange(r0, r1)[:, None]
        packed = np.packbits(above & ~adj, axis=1, bitorder="little")
        fwd[r0:r1, :packed.shape[1]] = packed
        r0 = r1
    return fwd.view("<u8")


def _enumerate_sets(rows: tuple[int, ...], within: int, k: int, limit: int,
                    node_budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """Every independent k-set of the mask `within`, lexicographically sorted.

    The search tree is the plain DFS over increasing labels. A node is a
    chosen prefix and its candidates (the vertices above its last choice
    adjacent to none of it); a node that still needs `need` vertices has one
    child for each of its first popcount - need + 1 candidates, and a child
    is expanded only when it still has at least need - 1 candidates. Every
    node, the root included, counts toward node_budget.

    The tree is walked depth first a block of same-depth nodes at a time,
    with candidates as packed uint64 bitsets over the mask's vertices
    relabelled in ascending order, so a child's candidates are its parent's
    ANDed with the forward set of its vertex. A step expands the next pending
    nodes of the top frame, as many as unpack into _STEP_BYTES (at least
    one), and pushes their children, in (parent, vertex) order, above what
    is left of that frame: sets come out in the DFS's order, and the stack
    holds at most one frame per depth. The node and set counts are totals
    over the same tree, so both limits trip exactly when the DFS's do.
    """
    s = within.bit_count()
    if k > s:
        return []
    nodes = 1
    if node_budget is not None and nodes > node_budget:
        raise EnumerationLimitError(f"enumeration exceeded node budget {node_budget}")
    verts = np.flatnonzero(_bits([within], (within.bit_length() + 7) >> 3)[0])
    words = (s + 63) >> 6
    fwd = _forward_sets(rows, verts, words)
    per_step = max(1, _STEP_BYTES // (64 * words))  # parents expanded per step
    root = np.zeros((1, 8 * words), dtype=np.uint8)
    root[0, :(s + 7) >> 3] = np.packbits(np.ones(s, dtype=np.uint8), bitorder="little")
    index_type = np.int16 if s <= np.iinfo(np.int16).max else np.int32
    out: list[tuple[int, ...]] = []
    # frame: [candidate bitsets, chosen prefixes, candidate counts, next pending node]
    stack = [[root.view("<u8"), np.zeros((1, 0), dtype=index_type), np.array([s]), 0]]
    while stack:
        frame = stack[-1]
        cands, prefix, pcs, start = frame
        stop = start + per_step
        if stop >= len(pcs):
            stop = len(pcs)
            stack.pop()
        else:
            frame[3] = stop
        need = k - prefix.shape[1]
        pc = pcs[start:stop]
        counts = pc - (need - 1)  # children of each parent
        born = int(counts.sum())
        nodes += born
        if node_budget is not None and nodes > node_budget:
            raise EnumerationLimitError(f"enumeration exceeded node budget {node_budget}")
        if need == 1 and len(out) + born > limit:
            raise EnumerationLimitError(f"more than {limit} independent sets")
        parents = cands[start:stop]
        bits = np.unpackbits(parents.view(np.uint8), bitorder="little").view(bool)
        pidx, v = np.divmod(np.flatnonzero(bits), 64 * words)
        if need > 1:  # keep each parent's first `counts` candidates
            keep = np.arange(len(v)) - (np.cumsum(pc) - pc)[pidx] < counts[pidx]
            pidx, v = pidx[keep], v[keep]
        chosen = np.empty((born, prefix.shape[1] + 1), dtype=index_type)
        chosen[:, :-1] = prefix[start:stop][pidx]
        chosen[:, -1] = v
        if need == 1:
            out.extend(map(tuple, verts[chosen].tolist()))
            continue
        child = parents[pidx]
        child &= fwd[v]
        cpc = np.bitwise_count(child).sum(axis=1, dtype=np.int64)
        live = cpc >= need - 1
        if live.any():
            stack.append([child[live], chosen[live], cpc[live], 0])
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
