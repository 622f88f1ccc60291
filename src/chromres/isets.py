"""Exact independent-set machinery: maximum independent set, exhaustive
fixed-size enumeration with pair-coverage accounting, the capped-family
deletion construction, and the sparse-member selector.

All searches run on the bit-packed adjacency rows, restricted to a vertex
bitmask `within` where given, and use documented, deterministic orderings
so results are reproducible. Fixed-size enumeration walks the tree of the
plain DFS over increasing labels, a block of nodes at a time on packed
numpy bitsets: the same tree, the same node count and the same
lexicographic order of sets as the one-node-at-a-time recursion. A node
keeps only its last vertex and a pointer to its parent, so a set is built
only at a leaf, and the nodes a block makes are counted from its
candidates' popcounts. A step pays a fixed cost, about two dozen numpy
calls that each hand the GIL to any other thread and wait for it back, and
a cost per child it makes, in numpy work and in up to 16w + 16 bytes held
at once for w words of bitset; _STEP_BYTES sets the trade between the two.
The candidates are found by unpacking only the nonzero bytes of the
bitsets. The maximum independent set search runs on bitsets over the
mask's vertices relabelled in its cover order and builds its clique-cover
bound one class at a time, the classes of first-fit in that order. It
proves alpha in one walk on the ascending-degree order, then, unless the
greedy Turan set is maximum, takes the first maximum set of the documented
descending-degree order in a second walk that stops at it. Both searches
read the relabelled adjacency from graph._projected; the enumeration stacks
it into one s x s matrix, from which it builds its forward sets and checks
every set it returns. graph's _bits and _ints are the only conversions
between adjacency rows and bit arrays.

The greedy Turan extract repeatedly takes the lowest-label vertex of minimum
degree inside the mask. min_degree_vertex has two strategies for that pick:
it scans the members one at a time, or, given the rows as a uint64 word
matrix (graph._words) and a mask of more than _WIDE_PICK members, it counts
every degree with one popcount over the matrix and takes the first minimum
among the members. Both give the same vertex. Only _StripSearch's sizing
extracts pick on the matrix; every other pick scans.

A family is one (m, k) array of labels, a set per row, from enumeration
through stripping. The cap and the sparse pick run on a pair index, each
row's pairs as integers >= 0 that no other pair shares: the cap counts them
with one bincount, the pick looks them up in a bool table of marked pairs,
and neither sorts. A strip_color call keeps its search state in one
_StripSearch, which builds a family's index or filters it to a later
remainder, caps it and picks from it. uniform_family and sparse_iset number
their distinct pairs with one np.unique. The public functions wrap these
helpers and alone build tuples and the coverage dict, whose pairs _coverage
reads from int64 label keys u * n + v.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (EdgeSet, Graph, _bits, _count, _ints, _labels, _members, _projected, _real,
                    _words, mask_of)


# Bits of candidate bitset that one enumeration step expands, the bytes that
# unpacking all of them would take (at least one parent); a step makes at most
# this many children, and unpacks only the nonzero bytes among them. The fixed
# cost of a step is about two dozen numpy calls, each of which hands the GIL
# over: about 45 us alone and 160 us of wall with two sweep threads, so fewer,
# larger steps pay off there. What caps the size is memory. A step holds up to
# 16w + 16 bytes per child it makes (the children's w-word bitsets, the forward
# sets ANDed into them, their int32 parent and position and numpy's int64 copy
# of one), 8 bytes per candidate while it finds them and 16 per nonzero byte
# it unpacks, all freed before the next step. From the table of 2^18 to 2^21 in
# BENCH_pr20.json: 2^19 ran sweep-family 15% faster than 2^18 for 1.2% more
# peak RSS; 2^20 gained 7% more but its peak RSS was 4.3% above 2^18's. The
# forward sets are built in the blocks of graph._projected.
_STEP_BYTES = 1 << 19

# Members above which min_degree_vertex, when given the word matrix, counts
# every degree at once instead of scanning the members (measured, see
# BENCH_pr19.json: the matrix pick costs about as much as a scan of this many).
_WIDE_PICK = 160

# Bytes of int64 pair keys the final independence check of an enumeration
# builds at once (at least one set's): it checks the sets in row blocks of
# this size, and a block's temporaries peak at about 1.5 times as many bytes.
_CHECK_BYTES = 1 << 20

# Most vertices max_independent_set takes by default, and so the largest
# remainder whose blown enumeration strip_color answers with one maximum set
_ALPHA_LIMIT = 120

# Sets an enumeration may return before it raises EnumerationLimitError,
# unless the caller passes another limit.
_SET_LIMIT = 5_000_000


class SizeLimitError(RuntimeError):
    """Instance exceeds the configured exact-search size limit."""


def _within(n: int, limit: int, search: str) -> None:
    """SizeLimitError when n vertices are more than `limit`, the one size
    guard of every exact search (`search` names it in the message). Each
    search calls it before any other work, so a caller that would rather
    fall back than fail catches the error instead of checking n itself."""
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds {search} limit {limit}")


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
    _labels(vs, g.n)
    mask = mask_of(vs)
    rows = g.rows
    return not any(rows[v] & mask for v in vs)


def max_independent_set(g: Graph, limit: int = _ALPHA_LIMIT,
                        within: Optional[int] = None) -> tuple[int, ...]:
    """Exact maximum independent set of the vertex mask `within` (default:
    all of g) via branch-and-bound: the turan_extract set when that set is
    maximum, and otherwise the first maximum set in the documented
    branching order below.

    Pruning bound: a greedy clique cover of the candidate set (a clique
    holds at most one vertex of an independent set). The cover takes the
    candidates in the cover order and builds one class at a time: a class
    starts at the first candidate left and takes, in order, every candidate
    adjacent to all its members so far (the classes of first-fit in that
    order). The search branches on the candidates from the highest class to
    the lowest, by descending label inside a class, and stops at the first
    class whose index cannot beat the incumbent. Bitsets run over the mask's
    vertices relabelled in cover order, so a class is built by lowest-bit
    steps.

    The search runs twice. The first walk proves alpha: its cover order is
    ascending degree inside `within`, ties by label (the order MCQ colours
    the complement in, which gives a smaller tree), and its incumbent starts
    as the turan_extract set. If nothing beats that set, it is the result.
    Otherwise the second walk takes the documented order, descending degree
    inside `within` with ties by label, starts from no set with bound
    alpha - 1 and stops at its first set of size alpha. A subtree is cut
    only when its bound cannot beat the incumbent, so from any starting
    bound below alpha that walk records the same first set of size alpha.
    Raises SizeLimitError when `within` holds more than `limit` vertices,
    and ValueError unless limit is a count.
    """
    _count("limit", limit)
    top = _vertex_mask(g, within)
    size = top.bit_count()
    _within(size, limit, "exact-search")
    rows, n = g.rows, g.n
    degree = {v: (rows[v] & top).bit_count() for v in _members(top)}

    def walk(order: list[int], best: list[int], best_size: int,
             stop: Optional[int] = None) -> list[int]:
        """The incumbent once the search over cover order `order` ends or
        first records a set of size stop: best when nothing beats
        best_size."""
        pos = {v: i for i, v in enumerate(order)}
        # adj[i]: the neighbours of order[i] inside `within`, as positions
        adj = [row for block in _projected(rows, order) for row in _ints(block)]
        cur: list[int] = []  # positions

        def expand(cand: int) -> bool:
            """Branch below the chosen positions cur; True once a set of
            size stop is recorded."""
            nonlocal best, best_size
            # Clique cover of cand, one class at a time: a class starts at
            # the lowest position left and repeatedly takes the lowest
            # position adjacent to all its members so far. A class's index
            # bounds what its members can add. Classes up to `floor` are
            # built but not listed: best_size only grows below, so they are
            # never branched on.
            depth = len(cur)
            floor = best_size - depth
            bound = 0
            rest = cand
            listed: list[int] = []  # class * n + label
            while rest:
                bound += 1
                q = rest
                while q:  # walked by hand: q shrinks to adj[i] at each step
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
                    return False
                i = pos[v]
                cur.append(i)
                ncand = cand & ~(adj[i] | (1 << i))
                if ncand:
                    if expand(ncand):
                        return True
                elif depth + 1 > best_size:
                    best = [order[j] for j in cur]
                    best_size = depth + 1
                    if best_size == stop:
                        return True
                cur.pop()
                cand &= ~(1 << i)
            return False

        expand((1 << size) - 1)
        return best

    greedy = list(turan_extract(g, top))
    alpha = len(walk(sorted(degree, key=lambda v: (degree[v], v)), greedy, len(greedy)))
    best = greedy
    if alpha > len(greedy):
        best = walk(sorted(degree, key=lambda v: (-degree[v], v)), [], alpha - 1, alpha)
    result = tuple(sorted(best))
    if len(result) != alpha:
        raise AssertionError(f"max_independent_set found {len(result)} of alpha = {alpha} members")
    if not is_independent(g, result):
        raise AssertionError(f"max_independent_set returned a dependent set {result}")
    return result


def min_degree_vertex(rows: tuple[int, ...], alive: int,
                      words: Optional[np.ndarray] = None) -> tuple[int, int]:
    """Lowest-index vertex of minimum degree inside the mask `alive`, with
    that degree (neighbours outside `alive` do not count); (-1, 0) for the
    empty mask.

    Two strategies give the same pick. The scan takes the members one at a
    time and keeps the first strictly smaller degree. Given `words`, the rows
    as the (words, n) uint64 matrix of graph._words, a mask of more than
    _WIDE_PICK members instead counts every degree inside it with one
    popcount over the matrix and takes the first minimum among its members,
    which is again the lowest label of that degree.
    """
    if words is None or alive.bit_count() <= _WIDE_PICK:
        best_v, best_d = -1, alive.bit_count()
        for v in _members(alive):
            d = (rows[v] & alive).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        return best_v, best_d
    count, n = words.shape
    bits = _bits([alive], 8 * count)
    degree = np.bitwise_count(words & _words(bits)).sum(axis=0, dtype=np.int32)
    degree[~bits[0, :n]] = n  # above every member's degree
    v = int(degree.argmin())
    return v, int(degree[v])


def _turan(g: Graph, alive: int, words: Optional[np.ndarray] = None) -> tuple[int, ...]:
    """turan_extract's set of the vertex mask alive, its picks made by
    min_degree_vertex with `words`."""
    rows = g.rows
    out = []
    while alive:
        v, _ = min_degree_vertex(rows, alive, words)
        out.append(v)
        alive &= ~(rows[v] | (1 << v))
    result = tuple(sorted(out))
    if not is_independent(g, result):
        raise AssertionError(f"turan_extract returned a dependent set {result}")
    return result


def turan_extract(g: Graph, within: Optional[int] = None) -> tuple[int, ...]:
    """Greedy independent set of the vertex mask `within` (default: all of
    g): repeatedly take a minimum-degree vertex (the lowest label among
    ties) and delete its closed neighborhood. Guarantees size >= s^2/(2e+s)
    for the s vertices and e edges inside `within`. The picks scan the
    members."""
    return _turan(g, _vertex_mask(g, within))


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
        return dict(Counter(self.coverage.values()))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "sets": [list(s) for s in self.sets],
            "coverage_histogram": self.coverage_histogram(),
            "cap": self.cap,
            "excess_mass": self.excess_mass,
            "deleted": self.deleted,
        }


def _pair_keys(sets: np.ndarray, n: int) -> np.ndarray:
    """Key row[i] * n + row[j] of each pair i < j of each row of `sets`, a
    row's pairs in the order (0, 1), (0, 2), ..., (k - 2, k - 1), as an
    (m, k(k-1)/2) int64 array; every label must lie below n."""
    cols = np.arange(sets.shape[1])
    i, j = np.nonzero(cols[:, None] < cols)  # as np.triu_indices(k, 1), at less cost
    keys = sets[:, i].astype(np.int64, copy=False)
    keys *= n
    keys += sets[:, j]
    return keys


def _coverage(keys: np.ndarray, n: int) -> dict[tuple[int, int], int]:
    """Pair -> rows of `keys` holding it, in the order a walk of the rows
    first meets each pair."""
    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    u, v = np.divmod(uniq[order], n)
    return dict(zip(zip(u.tolist(), v.tolist()), counts[order].tolist()))


def _capped(keys: np.ndarray, cap: float) -> tuple[np.ndarray, int]:
    """(kept, excess): which rows of `keys`, an array of pair indices (each
    pair a distinct integer >= 0), hold no pair covered more than cap times,
    and the coverage mass of the pairs that are; the kept rows' coverage is
    checked against the cap."""
    counts = np.bincount(keys.ravel())
    over = counts > cap
    kept = ~over[keys].any(axis=1)
    if (np.bincount(keys[kept].ravel()) > cap).any():
        raise AssertionError(f"capped family still covers a pair more than {cap} times")
    return kept, int(counts[over].sum())


def _sparsest(keys: np.ndarray, marked: np.ndarray, pairs: int,
              cap: Optional[float]) -> tuple[int, int]:
    """(row, count): the first row of `keys`, an array of pair indices,
    holding the fewest pairs that the bool table `marked` sets, and that
    number. When cap is set, the averaging bound
    count <= ceil(cap * pairs / rows) is checked."""
    counts = marked[keys].sum(axis=1)
    row = int(np.argmin(counts))
    count = int(counts[row])
    if cap is not None and count > (bound := math.ceil(cap * pairs / len(keys))):
        raise AssertionError(f"sparsest member has {count} pairs, "
                             f"above the averaging bound {bound}")
    return row, count


def _kept(parents: np.ndarray, pc: Optional[np.ndarray],
          need: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent index, candidate position) of every child of the candidate
    bitsets `parents` with popcounts pc, in that order: each parent's
    candidates but its last need - 1, as int32 arrays. Only the nonzero bytes
    of the bitsets are unpacked."""
    packed = parents.view(np.uint8).ravel()
    nz = np.flatnonzero(packed != 0)
    found = np.flatnonzero(np.unpackbits(packed[nz], bitorder="little").view(bool))
    if need > 1:
        keep = np.ones(len(found), dtype=bool)
        ends = np.cumsum(pc)
        for _ in range(need - 1):
            ends -= 1
            keep[ends] = False
        found = found[keep]
        del keep
    pos = nz[found >> 3]  # unpacked bit i is bit i & 7 of byte nz[i >> 3]
    pos <<= 3
    found &= 7
    pos |= found
    return np.divmod(pos.astype(np.int32), 64 * parents.shape[1])


def _enumerate_sets(rows: tuple[int, ...], within: int, k: int, limit: int = _SET_LIMIT,
                    node_budget: Optional[int] = None) -> np.ndarray:
    """Every independent k-set of the mask `within`, lexicographically sorted,
    one per row of an (m, k) int32 array; each is checked independent.

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
    nodes of the top frame, as many as hold _STEP_BYTES bits of bitset (at
    least one), and pushes their live children, in (parent, vertex) order,
    above what is left of that frame: sets come out in the DFS's order, and the
    stack holds at most one frame per depth. A step's children number its
    parents' popcounts less need - 1 each, counted before any is built. A
    frame keeps its nodes' candidates and, as parent pointers, the position
    each chose last and the index of its parent in the frame below; a leaf
    step rebuilds its sets with one gather per level. Sets stay positions
    until the end, where they are checked on the adjacency among the mask's
    vertices, in blocks of at most _CHECK_BYTES of pair keys (one block for
    any family that fits, none for an empty one), and turned into labels.
    The node and set counts are totals over the same tree, so both limits
    trip exactly when the DFS's do.
    """
    s = within.bit_count()
    if k > s:
        return np.empty((0, k), dtype=np.int32)
    nodes = 1  # the root; the first step's s - k + 1 >= 1 children trip any budget below 1
    verts = np.array(_members(within), dtype=np.int32)
    adj = np.concatenate(list(_projected(rows, verts)))  # among verts, s x s
    words = (s + 63) >> 6
    width = 64 * words  # bits in one candidate bitset
    # fwd[i]: the positions j > i whose vertex is not adjacent to verts[i]
    fwd = np.zeros((s, 8 * words), dtype=np.uint8)
    fwd[:, :(s + 7) >> 3] = np.packbits(np.triu(~adj, 1), axis=1, bitorder="little")
    fwd = fwd.view("<u8")
    per_step = max(1, _STEP_BYTES // width)  # parents expanded per step
    root = np.zeros((1, 8 * words), dtype=np.uint8)
    root[0, :(s + 7) >> 3] = np.packbits(np.ones(s, dtype=np.uint8), bitorder="little")
    out: list[np.ndarray] = []
    found = 0
    # frame: [candidate bitsets, candidate counts, next pending node, need, link];
    # a node's link is (position it chose last, index of its parent in the frame
    # below, that frame's link) as arrays over the frame, None at the root
    stack = [[root.view("<u8"), np.array([s], dtype=np.int32), 0, k, None]]
    while stack:
        frame = stack[-1]
        cands, pcs, start, need, link = frame
        stop = start + per_step
        if stop >= len(pcs):
            stop = len(pcs)
            stack.pop()
        else:
            frame[2] = stop
        pc = pcs[start:stop]
        born = int(pc.sum(dtype=np.int64)) - (need - 1) * len(pc)
        nodes += born
        if node_budget is not None and nodes > node_budget:
            raise EnumerationLimitError(f"enumeration exceeded node budget {node_budget}")
        # a step's temporaries live inside _leaves and _children, so they are
        # freed before the next step allocates its own
        if need == 1:
            found += born
            if found > limit:
                raise EnumerationLimitError(f"more than {limit} independent sets")
            out.append(_leaves(cands[start:stop], start, link, k))
        elif (children := _children(cands[start:stop], pc, start, need, link, fwd)):
            stack.append(children)
    pos = np.concatenate(out) if out else np.empty((0, k), dtype=np.int32)
    del out  # the pieces go before the check allocates its pair keys
    span = max(1, _CHECK_BYTES // max(8, 4 * k * (k - 1)))  # sets per block of the check
    for r0 in range(0, len(pos), span):
        dependent = adj.ravel()[_pair_keys(pos[r0:r0 + span], s)].any(axis=1)
        if dependent.any():
            bad = tuple(verts[pos[r0 + np.argmax(dependent)]].tolist())
            raise AssertionError(f"enumerate_isets returned a dependent set {bad}")
    return verts[pos]


def _leaves(parents: np.ndarray, start: int, link, k: int) -> np.ndarray:
    """The k-sets, as positions, below the nodes start, start + 1, ... of a
    frame that needs one more vertex, whose candidate bitsets are `parents`:
    one gather per level rebuilds each set from the links."""
    pidx, v = _kept(parents, None, 1)
    sets = np.empty((len(v), k), dtype=np.int32)
    sets[:, -1] = v
    idx = pidx + start
    for col in range(k - 2, -1, -1):
        chosen, up, link = link
        sets[:, col] = chosen[idx]
        idx = up[idx]
    return sets


def _children(parents: np.ndarray, pc: np.ndarray, start: int, need: int, link,
              fwd: np.ndarray) -> Optional[list]:
    """The frame of the live children of the nodes start, start + 1, ... of
    a frame that needs `need` > 1 more vertices, whose candidate bitsets are
    `parents` with popcounts pc; None when every child dies."""
    words = parents.shape[1]
    pidx, v = _kept(parents, pc, need)
    child = np.take(parents, pidx, axis=0)
    child &= np.take(fwd, v, axis=0)
    counts = np.bitwise_count(child)
    cpc = counts[:, 0].astype(np.int32)
    for w in range(1, words):
        cpc += counts[:, w]
    del counts
    live = np.flatnonzero(cpc >= need - 1)
    if not len(live):
        return None
    child = np.take(child, live, axis=0)  # frees the born children first
    return [child, cpc[live], 0, need - 1, (v[live], pidx[live] + start, link)]


def enumerate_isets(g: Graph, k: int, limit: int = _SET_LIMIT,
                    node_budget: Optional[int] = None,
                    within: Optional[int] = None) -> IsetFamily:
    """All independent sets of size exactly k inside the vertex mask `within`
    (default: all of g), with pair coverage filled.

    Raises EnumerationLimitError if their number would exceed `limit` or,
    when node_budget is set, if the search tree outgrows it; ValueError
    unless k is a count >= 1, limit a count and node_budget None or a count.
    """
    _count("k", k, 1)
    _count("limit", limit)
    if node_budget is not None:
        _count("node_budget", node_budget)
    sets = _enumerate_sets(g.rows, _vertex_mask(g, within), k, limit, node_budget)
    return IsetFamily(k=k, sets=tuple(map(tuple, sets.tolist())),
                      coverage=_coverage(_pair_keys(sets, g.n), g.n))


class _StripSearch:
    """One strip_color call's search state, shared by its rounds: the base's
    rows as a word matrix (graph._words) for the sizing extracts, built only
    when n > _WIDE_PICK as no narrower mask picks on it (min_degree_vertex
    makes its picks the scan's), the added pairs as an (m, 2) array, a bound
    on the remainder's independence number and the last family a step found.
    Every argument below rests on the remainder S only shrinking.

    An empty ladder step at k proves alpha <= k - 1 for S and every later
    remainder, so it lowers alpha_bound, which also bounds the size of a
    sizing extract. The steps later ladders skip hold no set, and each
    visits no more nodes than the empty step that proved the bound within
    node_budget, so none could have tripped a limit.

    last, what the last step that ran without error found, is (sets, keys,
    marked): the (m, k) label array, each row's pairs as i * s0 + j for
    positions in the remainder S0 it was enumerated on, and a table over the
    s0 * s0 keys that sets the added pairs inside S0. A step at last's size
    keeps its rows inside S instead of enumerating: S's k-sets in the same
    order, and since the DFS tree on S is a subtree of S0's, no limit trips
    that did not on S0. pick caps the family and takes a member.
    """

    def __init__(self, base: Graph, added: EdgeSet, node_budget: Optional[int]) -> None:
        n = base.n
        self.base, self.node_budget = base, node_budget
        self.added_uv = np.array(sorted(added.pairs), dtype=np.int64).reshape(added.m, 2)
        self.words = _words(_bits(base.rows, ((n + 63) >> 6) << 3)) if n > _WIDE_PICK else None
        self.alpha_bound = n
        self.last = None
        self.alive = None  # S as a bool label array

    def turan(self, within: int) -> tuple[int, ...]:
        """turan_extract's set of the mask `within`, picked on the word matrix."""
        return _turan(self.base, within, self.words)

    def ladder(self, within: int, k: int) -> Optional[int]:
        """The first size from min(k, alpha_bound) down to 2 with independent
        sets in the mask `within`, whose family it leaves in last, or None;
        EnumerationLimitError past node_budget."""
        self.alive = _bits([within], (self.base.n + 7) >> 3)[0]
        for size in range(min(k, self.alpha_bound), 1, -1):
            if self._step(within, size):
                return size
            self.alpha_bound = size - 1
        return None

    def _step(self, within: int, k: int) -> int:
        """The number of independent k-sets of S, which it leaves in last."""
        if self.last is not None and self.last[0].shape[1] == k:
            sets, keys, marked = self.last
            inside = self.alive[sets].all(axis=1)
            self.last = sets[inside], keys[inside], marked
        else:
            sets = _enumerate_sets(self.base.rows, within, k, node_budget=self.node_budget)
            rank = np.cumsum(self.alive) - 1  # a member label's position in S0
            s0 = int(rank[-1]) + 1
            uv = rank[self.added_uv[self.alive[self.added_uv].all(axis=1)]]
            marked = np.zeros(s0 * s0, dtype=bool)
            marked[uv[:, 0] * s0 + uv[:, 1]] = True
            self.last = sets, _pair_keys(rank[sets], s0), marked
        return len(self.last[0])

    def pick(self, cap: float) -> tuple[str, tuple[int, ...]]:
        """(route, set): the ladder's family's first member with the fewest
        added pairs, on route "family" from the family capped at `cap` (the
        averaging bound checked), or "enum" from all of it if that is empty."""
        sets, keys, marked = self.last
        kept, _ = _capped(keys, cap)
        route = "family" if kept.any() else "enum"
        if route == "family":
            sets, keys = sets[kept], keys[kept]
        inside = int(self.alive[self.added_uv].all(axis=1).sum())
        row, _ = _sparsest(keys, marked, inside, cap if route == "family" else None)
        return route, tuple(sets[row].tolist())


def uniform_family(family: IsetFamily, cap: float) -> IsetFamily:
    """Cap the pair coverage of an enumerated family by snapshot deletion.

    `family` is every independent k-set, as enumerate_isets returns it. For
    each pair whose coverage in `family` exceeds `cap`, every set containing
    that pair is deleted; pairs are judged against that initial snapshot, so
    the outcome does not depend on the order of deletion. The surviving
    family covers every pair at most `cap` times; excess_mass records the
    pre-deletion coverage mass sitting above the cap. ValueError unless
    0 <= cap < inf (a NaN cap would delete nothing and label the family NaN,
    and an infinite one would label it with a number JSON cannot hold).
    """
    _real("cap", cap, zero=True)
    sets = np.array(family.sets, dtype=np.int64).reshape(len(family), family.k)
    n = int(sets.max(initial=0)) + 1
    keys = _pair_keys(sets, n)
    # each pair as its index among the distinct pairs, so no count grows with the labels
    kept, excess = _capped(np.unique(keys, return_inverse=True)[1].reshape(keys.shape), cap)
    return IsetFamily(
        k=family.k,
        sets=tuple(s for s, keep in zip(family.sets, kept.tolist()) if keep),
        coverage=_coverage(keys[kept], n),
        cap=cap,
        excess_mass=excess,
        deleted=len(kept) - int(kept.sum()),
    )


def sparse_iset(family: IsetFamily, e: EdgeSet) -> tuple[tuple[int, ...], int]:
    """Member set containing the fewest pairs of e, with that count.

    First minimizer wins (sets are stored in lexicographic order, so this is
    deterministic). When the family carries a cap, the averaging bound
    count <= ceil(cap * |e| / |family|) is checked, so e must hold only
    pairs among the family's vertex set.
    """
    if not family.sets:
        raise ValueError("family is empty")
    sets = np.sort(np.array(family.sets, dtype=np.int64), axis=1)
    pairs = np.array(sorted(e.pairs), dtype=np.int64).reshape(e.m, 2)
    n = int(max(sets.max(), pairs.max(initial=0))) + 1
    keys = _pair_keys(sets, n)
    # the family's pairs and e's, each as its index among their distinct pairs
    distinct, index = np.unique(np.concatenate([keys.ravel(), pairs[:, 0] * n + pairs[:, 1]]),
                                return_inverse=True)
    marked = np.zeros(len(distinct), dtype=bool)
    marked[index[keys.size:]] = True
    row, count = _sparsest(index[:keys.size].reshape(keys.shape), marked, e.m, family.cap)
    return family.sets[row], count
