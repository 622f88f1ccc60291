"""Chromatic-number computation and the stripping coloring procedure.

chromatic_exact is the oracle. It walks k up from a greedy clique bound to
DSATUR's count and splits the work the usual way: the exact search (DSATUR
backtracking, find_coloring's) proves that no k-coloring exists, and a
seeded TabuCol local search finds the k-coloring when the exact search
does not settle k within a small node budget. A coloring TabuCol finds is
verified, and an unbudgeted exact search settles any k it fails on, so the
value is exact; the budget, move cap and seed only move time. dsatur and
degeneracy_color are the deterministic heuristics. dsatur and the exact
search hold their vertex-choice key (saturation, then degree, then lowest
label) as bit-sliced counters: slice j of a count is a mask of the vertices
whose count has bit j set. A pick descends the slices within the uncolored
mask, and coloring a vertex (or, in the search, uncoloring it) updates its
neighbours' counts with a ripple carry over the slices, a few bigint
operations per slice instead of a loop over the neighbours. strip_color
builds a proper coloring of base+added by repeatedly pulling a
nearly-maximal independent set of the base graph that contains few added
pairs, refining it to an independent set of the union, and spending one
color on it; the small residue is finished with the degeneracy coloring.
A call's search state, arrays included, belongs to one isets._StripSearch.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, asdict
from typing import Optional

from .analytics import (CAP_MULTIPLIER, AnalyticProfile, _residual_threshold, compute_k0,
                        expected_counts)
# induced_subgraph is no longer called here; the name stays bound because
# perfbench's tracer selftest checks that it patches this binding too
from .graph import (EdgeSet, Graph, _count, _edges_inside, _members, _real, induced_subgraph,
                    mask_of, union)  # noqa: F401
from .isets import (
    EnumerationLimitError,
    SizeLimitError,
    _StripSearch,
    _within,
    max_independent_set,
    min_degree_vertex,
    turan_extract,
)


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: colors[v] in 0..num_colors-1, every index used."""

    colors: tuple[int, ...]
    num_colors: int


def verify_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c is proper on g and its color indices are contiguous from 0.

    Raises ValueError when c labels a different number of vertices, and
    names the first vertex left uncolored unless an edge whose lower end is
    below that vertex joins two equal colors (then the answer is False).
    """
    colors = c.colors
    if len(colors) != g.n:
        raise ValueError(f"coloring labels {len(colors)} vertices, graph has {g.n}")
    classes: dict = {}  # color -> mask of the vertices holding it
    uncolored = g.n
    for v, col in enumerate(colors):
        if col is None:
            uncolored = min(uncolored, v)
        else:
            classes[col] = classes.get(col, 0) | (1 << v)
    rows = g.rows
    if any(rows[v] & classes[colors[v]] for v in range(uncolored)):
        return False
    if uncolored < g.n:
        raise ValueError(f"vertex {uncolored} has no color")
    return classes.keys() == set(range(c.num_colors))


def dsatur(g: Graph) -> Coloring:
    """Saturation-degree greedy coloring.

    Vertex choice: highest saturation (distinct neighbour colors), then
    highest degree among uncolored vertices, then lowest index; the vertex
    takes the lowest color no neighbour holds. Fully deterministic.

    Both counts are bit-sliced. A pick keeps the uncolored vertices, then,
    from the top saturation slice down and on through the degree slices,
    narrows them to those with the slice's bit wherever one has it, and
    takes the lowest label left. seen[c] masks the vertices with a neighbour
    colored c, so coloring v with c adds 1 to the saturation of
    rows[v] & uncolored & ~seen[c] and takes 1 from the degree of
    rows[v] & uncolored: about 3 log2(n) bigint operations per vertex.
    """
    rows = g.rows
    colors = [-1] * g.n
    uncolored = (1 << g.n) - 1
    sat: list[int] = []
    deg = _degree_slices(rows)
    seen: list[int] = []
    for _ in range(g.n):
        cand = uncolored
        for bits in reversed(sat):
            if cand & bits:
                cand &= bits
        for bits in reversed(deg):
            if cand & bits:
                cand &= bits
        v = _members(cand)[0]
        bit = 1 << v
        c = 0
        while c < len(seen) and seen[c] & bit:
            c += 1
        if c == len(seen):
            seen.append(0)
        colors[v] = c
        uncolored ^= bit
        nbrs = rows[v] & uncolored
        _add_one(sat, nbrs & ~seen[c])
        _take_one(deg, nbrs)
        seen[c] |= rows[v]
    return Coloring(tuple(colors), len(seen))


def _degree_slices(rows: tuple[int, ...]) -> list[int]:
    """The degrees bit-sliced: bit u of slice j is bit j of rows[u]'s
    popcount. The vertices are grouped by degree first, so each slice takes
    one OR per distinct degree that has its bit."""
    by_degree: dict[int, int] = {}
    for u, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << u
    slices = [0] * max(by_degree, default=0).bit_length()
    for d, mask in by_degree.items():
        for j in range(d.bit_length()):
            if d >> j & 1:
                slices[j] |= mask
    return slices


def _add_one(slices: list[int], mask: int) -> None:
    """Add 1 to the bit-sliced count of each vertex in mask (a ripple carry)."""
    for j, bits in enumerate(slices):
        if not mask:
            return
        slices[j] = bits ^ mask
        mask &= bits
    if mask:
        slices.append(mask)


def _take_one(slices: list[int], mask: int) -> None:
    """Take 1 from the bit-sliced count of each vertex in mask (a ripple
    borrow); each of those counts must be positive."""
    for j, bits in enumerate(slices):
        if not mask:
            return
        slices[j] = bits ^ mask
        mask &= ~bits


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Smallest-last ordering and the degeneracy (max degree at removal)."""
    _, _, degeneracy, removal = _degeneracy_colors(g.rows, (1 << g.n) - 1)
    return removal, degeneracy


def degeneracy_color(g: Graph) -> tuple[Coloring, int]:
    """Greedy coloring along the reversed smallest-last order.

    Uses at most degeneracy+1 colors; returns the coloring and the degeneracy.
    """
    colors, num, degeneracy, _ = _degeneracy_colors(g.rows, (1 << g.n) - 1)
    return Coloring(tuple(colors), num), degeneracy


def _degeneracy_colors(rows: tuple[int, ...],
                       mask: int) -> tuple[list[int], int, int, list[int]]:
    """(colors, num, degeneracy, removal): degeneracy_color of the vertex
    mask, as a color per label (-1 outside the mask) with the number of
    colors used, and the smallest-last removal order; neighbours outside the
    mask neither count toward a degree nor block a color. The picks and
    colors are those of degeneracy_color on the induced subgraph, whose
    relabelling keeps the label order."""
    removal: list[int] = []
    degeneracy = 0
    alive = mask
    while alive:
        v, d = min_degree_vertex(rows, alive)
        degeneracy = max(degeneracy, d)
        removal.append(v)
        alive &= ~(1 << v)
    colors = [-1] * len(rows)
    for v in reversed(removal):
        used = {colors[w] for w in _members(rows[v] & mask)}  # -1, uncolored, blocks nothing
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    num = 1 + max((colors[v] for v in removal), default=-1)
    if num > degeneracy + 1:
        raise AssertionError(f"{num} colors exceed degeneracy + 1 = {degeneracy + 1}")
    return colors, num, degeneracy, removal


def greedy_clique(g: Graph) -> int:
    """Greedy clique size, a quick chromatic lower bound."""
    n, rows = g.n, g.rows
    best = 0
    for start in sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))[:8]:
        clique = 1
        cand = rows[start]
        while cand:
            # most neighbours in cand, ties to the lowest label
            pick = max(_members(cand), key=lambda u: (rows[u] & cand).bit_count() * n - u)
            clique += 1
            cand &= rows[pick] & ~(1 << pick)
        best = max(best, clique)
    return best


def find_coloring(g: Graph, k: int) -> Optional[Coloring]:
    """A proper k-coloring of g, or None if none exists.

    Backtracking with DSATUR-style dynamic vertex choice (most distinct
    neighbour colors, then highest degree, then lowest index) and the
    standard symmetry break (a vertex may open at most one fresh color
    index); see _search. ValueError unless k is a count.
    """
    _count("k", k)
    return _search(g, k)


class _BudgetSpent(Exception):
    """A budgeted _search visited its node budget without an answer."""


def _search(g: Graph, k: int, budget: Optional[int] = None) -> Optional[Coloring]:
    """find_coloring's search; with a budget, _BudgetSpent once the search
    enters more than `budget` nodes (calls of its recursion). A call counts
    its first node even on an empty graph, so a budget below 1 always trips.

    Each node picks as dsatur does, on bit-sliced saturations and static
    (whole-graph) degree slices, and reads the picked vertex's saturation
    off the saturation slices that narrowed the pick: at k or more the node
    fails. Otherwise the vertex tries each color it may take in ascending
    order, up to max_used + 1 and below k. seen[c] masks the vertices with a
    neighbour colored c; coloring v with c adds 1 to the saturation of
    rows[v] & uncolored & ~seen[c], and backtracking takes it off again and
    restores seen[c]. seen holds a mask for each color in use and for the
    fresh one being tried, so nothing is sized by k.
    """
    rows = g.rows
    deg = _degree_slices(rows)
    sat: list[int] = []
    seen: list[int] = []
    colors = [-1] * g.n
    uncolored = (1 << g.n) - 1
    nodes = 0
    cap = math.inf if budget is None else budget

    def solve(remaining: int, max_used: int) -> bool:
        nonlocal nodes, uncolored
        nodes += 1
        if nodes > cap:
            raise _BudgetSpent
        if remaining == 0:
            return True
        cand, saturation = uncolored, 0
        for j in range(len(sat) - 1, -1, -1):
            if cand & sat[j]:
                cand &= sat[j]
                saturation |= 1 << j
        if saturation >= k:
            return False
        for bits in reversed(deg):
            if cand & bits:
                cand &= bits
        v = _members(cand)[0]
        bit = 1 << v
        uncolored ^= bit
        nbrs = rows[v] & uncolored
        for c in range(min(k - 1, max_used + 1) + 1):
            if c == len(seen):
                seen.append(0)  # the fresh color, max_used + 1
            taken = seen[c]
            if taken & bit:
                continue
            colors[v] = c
            fresh = nbrs & ~taken
            _add_one(sat, fresh)
            seen[c] = taken | rows[v]
            if solve(remaining - 1, max(max_used, c)):
                return True
            _take_one(sat, fresh)
            seen[c] = taken
        del seen[max_used + 1:]
        uncolored |= bit
        return False

    if not solve(g.n, -1):
        return None
    # a vertex opens only color max_used + 1, so the colors used are 0..max
    return Coloring(tuple(colors), max(colors, default=-1) + 1)


# Most vertices chromatic_exact takes by default (the default of `chromres color
# --exact-limit` and of a config's exact_limit too), and either resilience oracle
_EXACT_LIMIT = 40
# Search nodes chromatic_exact's exact try at one k may enter before the
# local search takes over, and TabuCol moves per vertex before the exact
# search runs again without a budget. Both set only how the time splits;
# neither can change a chromatic number.
_EXACT_TRY_NODES = 2_000
_TABU_MOVES_PER_VERTEX = 60
# seed of TabuCol's tie-breaking stream
_TABU_SEED = 1987


def _tabucol(g: Graph, k: int, start: Coloring) -> Optional[Coloring]:
    """A proper k-coloring of g found by TabuCol from `start`, or None after
    _TABU_MOVES_PER_VERTEX * n moves.

    Every vertex of `start` colored k or more is first moved, in label
    order, to its least-conflicting color below k (ties to the lowest).
    Each move then recolors one vertex that shares its color with a
    neighbour: the move that lowers the count of monochromatic edges most,
    skipping tabu moves unless they reach fewer conflicts than ever before
    (Hertz and de Werra), ties broken by a random.Random(_TABU_SEED) stream.
    The vertex may not take back its old color for rand(10) + 0.6 *
    |conflicting vertices| moves (Galinier and Hao's tenure). gamma[v][c]
    counts v's neighbours colored c and is updated with each move.
    """
    n = g.n
    nbrs = [_members(g.rows[v]) for v in range(n)]
    col = list(start.colors)
    for v in range(n):
        if col[v] >= k:
            counts = [0] * k
            for w in nbrs[v]:
                if col[w] < k:
                    counts[col[w]] += 1
            col[v] = counts.index(min(counts))
    gamma = [[0] * k for _ in range(n)]
    for v in range(n):
        gv = gamma[v]
        for w in nbrs[v]:
            gv[col[w]] += 1
    conflicts = sum(gamma[v][col[v]] for v in range(n)) // 2
    best = conflicts
    tabu = [[0] * k for _ in range(n)]  # tabu[v][c]: v may take c again from this move
    rng = random.Random(_TABU_SEED)
    colors = range(k)
    for move in range(_TABU_MOVES_PER_VERTEX * n):
        if not conflicts:
            break
        conflicting = [v for v in range(n) if gamma[v][col[v]]]
        best_delta = n
        picks: list[tuple[int, int]] = []
        for v in conflicting:
            gv = gamma[v]
            own = gv[col[v]]
            if min(gv) - own > best_delta:
                continue  # no move of v reaches the best so far
            cv, tv = col[v], tabu[v]
            for c in colors:
                delta = gv[c] - own
                if delta > best_delta or c == cv:
                    continue
                if tv[c] > move and conflicts + delta >= best:
                    continue  # tabu, and no aspiration
                if delta < best_delta:
                    best_delta = delta
                    picks = [(v, c)]
                else:
                    picks.append((v, c))
        if not picks:
            continue  # every move is tabu: wait for a tenure to run out
        v, c = picks[rng.randrange(len(picks))]
        old = col[v]
        col[v] = c
        for w in nbrs[v]:
            gw = gamma[w]
            gw[old] -= 1
            gw[c] += 1
        conflicts += best_delta
        best = min(best, conflicts)
        tabu[v][old] = move + 1 + rng.randrange(10) + int(0.6 * len(conflicting))
    if conflicts:
        return None
    found = Coloring(tuple(col), k)
    if not verify_coloring(g, found):
        raise AssertionError("TabuCol returned an improper coloring")
    return found


def chromatic_exact(g: Graph, limit: int = _EXACT_LIMIT) -> int:
    """Exact chromatic number; SizeLimitError beyond `limit` vertices.

    Walks k up from the greedy clique bound to DSATUR's count. At each k the
    exact search runs first within _EXACT_TRY_NODES nodes, and its answer,
    either way, settles k. If it runs out, TabuCol looks for a k-coloring
    from DSATUR's; one found (and verified) ends the walk at k, since every
    smaller k is already refuted. If TabuCol fails too, the exact search
    settles k without a budget. So the value is exact; the budget, move cap
    and seed only move time between the two searches. ValueError unless
    limit is a count.
    """
    _count("limit", limit)
    _within(g.n, limit, "exact-chromatic")
    start = dsatur(g)
    for k in range(greedy_clique(g), start.num_colors):
        try:
            found = _search(g, k, _EXACT_TRY_NODES)
        except _BudgetSpent:
            found = _tabucol(g, k, start) or _search(g, k)
        if found is not None:
            return k
    return start.num_colors


@dataclass(frozen=True)
class StripKnobs:
    """The settings of strip_color.

    variant selects the residual threshold: "global" stops stripping at
    eps*n/(16 log(np)), "local" at n/(log n)^2; any other value raises
    ValueError here. family_size_limit gates the enumeration route (rounds
    on larger remainders go straight to the greedy route). node_budget caps
    the enumeration search tree per round. Both must be integers >= 0, or
    ValueError is raised here; a family_size_limit of 0 sends every round
    to the greedy route, and a node_budget of 0 blows every enumeration.
    """

    variant: str = "global"
    family_size_limit: int = 130
    node_budget: int = 2_000_000

    def __post_init__(self) -> None:
        if self.variant not in ("global", "local"):
            raise ValueError(f"unknown variant {self.variant!r}")
        _count("family_size_limit", self.family_size_limit)
        _count("node_budget", self.node_budget)


@dataclass(frozen=True)
class ColoringTrace:
    """Per-phase accounting of the stripping procedure.

    rounds, the one per-round record, holds (size, k_target, route,
    set_size, planted) per strip; routes are "family" (capped family),
    "enum" (cap emptied the family), "exact-alpha" (one maximum independent
    set) and "greedy" (the minimum-degree strip). bucket_counts[i-1] counts
    the rounds whose size lay in (2^-i n, 2^-i+1 n]; residual_colors, the
    final residue's colors, makes their sum the number of colors.
    fidelity_flags holds "enumeration-budget@s=<size>" for each round whose
    enumeration blew node_budget: that round is exact-alpha, or greedy when
    max_independent_set refused s, while a greedy round with no flag found
    no set or had s above family_size_limit.
    """

    bucket_counts: tuple[int, ...]
    residual_colors: int
    residual_threshold: float
    fidelity_flags: tuple[str, ...] = ()
    rounds: tuple[tuple[int, int, str, int, int], ...] = ()

    def to_json(self) -> dict:
        return asdict(self)


def strip_color(base: Graph, added: EdgeSet, epsilon: float,
                profile: AnalyticProfile,
                knobs: StripKnobs = StripKnobs()) -> tuple[Coloring, ColoringTrace]:
    """Color union(base, added) by stripping independent sets of the base.

    Each round, on the remaining vertex set S (|S| = s > residual threshold):
    enumerate the independent sets of base[S] of the working size (laddered
    down until non-empty), cap their pair coverage at CAP_MULTIPLIER * mu0
    of S, pick the member with the fewest added pairs inside, keep its
    largest union-independent subset via the greedy bound, and spend a fresh
    color on it. Rounds whose remainder exceeds family_size_limit fall back
    to the greedy route. A round whose enumeration blows node_budget takes
    one exact maximum independent set when max_independent_set accepts s
    vertices at its default limit, and the greedy route when it raises
    SizeLimitError; the trace flags the blown enumeration. The residue is
    colored by degeneracy_color on its mask of the union. ValueError unless
    epsilon is positive and finite.

    S is held as a bitmask over the original vertex labels and every search,
    the residue's coloring included, runs on that mask of base or of the
    union, never on a relabelled copy. The sizing extract, the ladder and
    the pick run on the call's isets._StripSearch; a family round skips the
    extract while its alpha bound is at most max(profile.k, k0(s)), and
    runs it only if it ends greedy.
    """
    _real("epsilon", epsilon)
    if profile.k0 is None or profile.k is None:
        raise ValueError("profile lacks k0/k; compute it for np > 1 and a reachable theta")
    if profile.n != base.n:
        raise ValueError("profile was computed for a different n")
    n, p, theta = base.n, profile.p, profile.theta
    full = union(base, added)
    threshold = (n / (math.log(n) ** 2) if knobs.variant == "local"
                 else _residual_threshold(n, p, epsilon))
    flags: list[str] = []
    rounds: list[tuple[int, int, str, int, int]] = []
    search = _StripSearch(base, added, knobs.node_budget)

    colors: list[int] = [-1] * n
    next_color = 0
    remaining = (1 << n) - 1

    while remaining and (s := remaining.bit_count()) > threshold:
        family_round = s <= knobs.family_size_limit
        k_target = max(profile.k, compute_k0(s, p, theta) or 1)
        chosen: Optional[tuple[int, ...]] = None
        # skipped, the greedy set would have at most alpha(S) <= alpha_bound <= k_target members
        if not family_round or search.alpha_bound > k_target:
            chosen = search.turan(remaining)
            k_target = max(k_target, len(chosen))
        k_target = min(k_target, s)

        route = "greedy"
        if family_round:
            try:
                k = search.ladder(remaining, k_target)
            except EnumerationLimitError:
                k = None
                flags.append(f"enumeration-budget@s={s}")
                # the family is out of reach but one maximum set may not be
                with contextlib.suppress(SizeLimitError):
                    chosen = max_independent_set(base, within=remaining)
                    route = "exact-alpha"
            if k is not None:
                _, log_mu0 = expected_counts(s, p, k)
                route, chosen = search.pick(CAP_MULTIPLIER * math.exp(log_mu0))
        if chosen is None:  # a greedy round that skipped its sizing extract
            chosen = search.turan(remaining)
        chosen_mask = mask_of(chosen)
        # chosen is independent in base: its edges in full are added pairs
        planted = _edges_inside(full, chosen_mask)

        # refine to an independent set of the union graph; a chosen set with
        # no added pair inside is one already, sorted, and turan_extract
        # would return it unchanged
        final = turan_extract(full, chosen_mask) if planted else chosen
        for v in final:
            colors[v] = next_color
        next_color += 1
        rounds.append((s, k_target, route, len(final), planted))
        remaining &= ~mask_of(final)

    residual, residual_colors, _, _ = _degeneracy_colors(full.rows, remaining)
    for v in _members(remaining):
        colors[v] = next_color + residual[v]
    next_color += residual_colors

    coloring = Coloring(tuple(colors), next_color)
    if not verify_coloring(full, coloring):
        raise AssertionError("stripping produced an improper coloring")
    # threshold < s <= n puts each round in a bucket (see ColoringTrace)
    buckets = [0] * math.ceil(math.log2(max(1.0, n / threshold)))
    for s, *_ in rounds:
        buckets[min(math.floor(math.log2(n / s)), len(buckets) - 1)] += 1
    trace = ColoringTrace(
        bucket_counts=tuple(buckets),
        residual_colors=residual_colors,
        residual_threshold=threshold,
        fidelity_flags=tuple(flags),
        rounds=tuple(rounds),
    )
    if sum(trace.bucket_counts) + trace.residual_colors != coloring.num_colors:
        raise AssertionError("bucket counts do not sum to the number of colors")
    return coloring, trace
