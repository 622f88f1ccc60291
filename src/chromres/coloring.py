"""Chromatic-number computation and the stripping coloring procedure.

chromatic_exact is the oracle. It walks k up from a greedy clique bound to
DSATUR's count and splits the work the usual way: the exact search (DSATUR
backtracking, find_coloring's) proves that no k-coloring exists, and a
seeded TabuCol local search finds the k-coloring when the exact search
does not settle k within a small node budget. A coloring TabuCol finds is
verified, and an unbudgeted exact search settles any k it fails on, so the
value is exact; the budget, move cap and seed only move time. dsatur and
degeneracy_color are the deterministic heuristics. dsatur and the exact
search keep their vertex-choice key packed into one integer per vertex and
update it as vertices are colored (and, in the search, uncolored), so each
pick is one C-level scan of a list for its maximum. strip_color builds a
proper coloring of base+added by repeatedly pulling a nearly-maximal
independent set of the base graph that contains few added pairs, refining
it to an independent set of the union, and spending one color on it; the
small residue is finished with the degeneracy coloring.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import isets
from .analytics import CAP_MULTIPLIER, AnalyticProfile, compute_k0, expected_counts
# induced_subgraph is no longer called here; the name stays bound because
# perfbench's tracer selftest checks that it patches this binding too
from .graph import (EdgeSet, Graph, _bits, _count, _edges_inside, _members, _real, _words,
                    induced_subgraph, mask_of, union)  # noqa: F401
from .isets import (
    EnumerationLimitError,
    SizeLimitError,
    _capped,
    _enumerate_sets,
    _pair_keys,
    _restricted,
    _sparsest,
    _turan,
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

    Vertex choice: highest saturation, then highest degree among uncolored
    vertices, then lowest index. Fully deterministic. That key is kept
    packed as one integer per vertex, sat*n^2 + udeg*n + (n-1-u) (-1 once
    colored), updated as each vertex is colored, so a pick is one scan of a
    list for its maximum.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    rows = g.rows
    colors: list[int] = [-1] * n
    neigh_colors: list[set[int]] = [set() for _ in range(n)]
    score = [rows[u].bit_count() * n + (n - 1 - u) for u in range(n)]
    sat_step = n * n
    for _ in range(n):
        v = score.index(max(score))
        c = 0
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        score[v] = -1
        for w in _members(rows[v]):
            if colors[w] < 0:
                score[w] -= n  # one uncolored neighbour fewer
                if c not in neigh_colors[w]:
                    neigh_colors[w].add(c)
                    score[w] += sat_step
    return Coloring(tuple(colors), max(colors) + 1)


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Smallest-last ordering and the degeneracy (max degree at removal)."""
    return _smallest_last(g.rows, (1 << g.n) - 1)


def _smallest_last(rows: tuple[int, ...], alive: int) -> tuple[list[int], int]:
    """degeneracy_order of the vertex mask alive: neighbours outside it do
    not count."""
    removal: list[int] = []
    degeneracy = 0
    while alive:
        v, d = min_degree_vertex(rows, alive)
        degeneracy = max(degeneracy, d)
        removal.append(v)
        alive &= ~(1 << v)
    return removal, degeneracy


def degeneracy_color(g: Graph) -> tuple[Coloring, int]:
    """Greedy coloring along the reversed smallest-last order.

    Uses at most degeneracy+1 colors; returns the coloring and the degeneracy.
    """
    colors, num, degeneracy = _degeneracy_colors(g.rows, (1 << g.n) - 1)
    return Coloring(tuple(colors), num), degeneracy


def _degeneracy_colors(rows: tuple[int, ...], mask: int) -> tuple[list[int], int, int]:
    """(colors, num, degeneracy): degeneracy_color of the vertex mask, as a
    color per label (-1 outside the mask) with the number of colors used;
    neighbours outside the mask block no color. The picks and colors are
    those of degeneracy_color on the induced subgraph, whose relabelling
    keeps the label order."""
    removal, degeneracy = _smallest_last(rows, mask)
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
    return colors, num, degeneracy


def greedy_clique(g: Graph) -> int:
    """Greedy clique size, a quick chromatic lower bound."""
    rows = g.rows
    best = 0
    for start in sorted(range(g.n), key=lambda v: (-rows[v].bit_count(), v))[:8]:
        clique = 1
        cand = rows[start]
        while cand:
            pick = max(_members(cand), key=lambda u: ((rows[u] & cand).bit_count(), -u))
            clique += 1
            cand &= rows[pick] & ~(1 << pick)
        best = max(best, clique)
    return best


def find_coloring(g: Graph, k: int) -> Optional[Coloring]:
    """A proper k-coloring of g, or None if none exists.

    Backtracking with DSATUR-style dynamic vertex choice (most distinct
    neighbour colors, then highest degree, then lowest index) and the
    standard symmetry break (a vertex may open at most one fresh color
    index). The choice key is kept packed as one integer per vertex,
    sat*n^2 + degree*n + (n-1-u) with sat the number of distinct neighbour
    colors (-1 once colored), updated and undone with each vertex's bitmask
    of neighbour colors, so a pick is one scan of a list for its maximum. A
    vertex's neighbour list is built the first time it is colored.
    ValueError unless k is a count.
    """
    _count("k", k)
    return _search(g, k)


class _BudgetSpent(Exception):
    """A budgeted _search visited its node budget without an answer."""


def _search(g: Graph, k: int, budget: Optional[int] = None) -> Optional[Coloring]:
    """find_coloring's search; with a budget, _BudgetSpent once the search
    enters more than `budget` nodes (calls of its recursion)."""
    n = g.n
    if n == 0:
        return Coloring((), 0)
    if k <= 0:
        return None
    rows = g.rows
    nbrs: list = [None] * n  # neighbour lists, each built when first needed
    score = [rows[u].bit_count() * n + (n - 1 - u) for u in range(n)]
    sat_step = n * n
    colors = [-1] * n
    seen = [0] * n  # bit c set: a colored neighbour holds color c
    nodes = 0
    cap = math.inf if budget is None else budget

    def solve(remaining: int, max_used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise _BudgetSpent
        if remaining == 0:
            return True
        v = score.index(max(score))
        taken = seen[v]
        if taken.bit_count() >= k:
            return False
        saved, score[v] = score[v], -1
        nb = nbrs[v]
        if nb is None:
            nb = nbrs[v] = _members(rows[v])
        top = min(k - 1, max_used + 1)
        for c in range(top + 1):
            bit = 1 << c
            if taken & bit:
                continue
            colors[v] = c
            undo: list[int] = []
            for w in nb:
                if not seen[w] & bit and colors[w] < 0:
                    seen[w] |= bit
                    score[w] += sat_step
                    undo.append(w)
            if solve(remaining - 1, max(max_used, c)):
                return True
            for w in undo:
                seen[w] ^= bit
                score[w] -= sat_step
        colors[v] = -1
        score[v] = saved
        return False

    if not solve(n, -1):
        return None
    # a vertex opens only color max_used + 1, so the colors used are 0..max
    return Coloring(tuple(colors), max(colors) + 1)


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


def chromatic_exact(g: Graph, limit: int = 40) -> int:
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
    if g.n > limit:
        raise SizeLimitError(f"n={g.n} exceeds exact-chromatic limit {limit}")
    if g.n == 0:
        return 0
    start = dsatur(g)
    for k in range(max(1, greedy_clique(g)), start.num_colors):
        try:
            found = _search(g, k, _EXACT_TRY_NODES)
        except _BudgetSpent:
            found = _tabucol(g, k, start) or _search(g, k)
        if found is not None:
            return k
    return start.num_colors


# largest remainder whose blown enumeration falls back to one exact maximum set
_EXACT_ALPHA_LIMIT = 120


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

    bucket_counts[i-1] counts colors spent while the remainder size lay in
    (2^-i n, 2^-i+1 n]; residual_colors counts the final small-residue phase.
    Their sum is always the total number of colors. rounds holds one
    (size, k_target, route, set_size, planted) record per strip; routes are
    "family" (capped family), "enum" (cap emptied the family, plain
    enumeration used), "exact-alpha" (enumeration blew its budget, one
    maximum independent set taken instead) and "greedy" (remainder too large
    for anything but the minimum-degree strip).
    """

    bucket_counts: tuple[int, ...]
    i0: int
    residual_colors: int
    k_used: int
    residual_threshold: float
    fidelity_flags: tuple[str, ...] = ()
    rounds: tuple[tuple[int, int, str, int, int], ...] = ()

    def to_json(self) -> dict:
        return asdict(self)


def _bucket_index(n: int, s: int, i0: int) -> int:
    # bucket i covers remainder sizes in (2^-i n, 2^-i+1 n]
    i = math.floor(math.log2(n / s)) + 1
    return min(max(i, 1), i0)


def strip_color(base: Graph, added: EdgeSet, epsilon: float,
                profile: AnalyticProfile,
                knobs: StripKnobs = StripKnobs()) -> tuple[Coloring, ColoringTrace]:
    """Color union(base, added) by stripping independent sets of the base.

    Each round, on the remaining vertex set S (|S| = s > residual threshold):
    enumerate the independent sets of base[S] of the working size (laddered
    down until non-empty, and started below any size an earlier ladder of
    the call found empty), cap their pair coverage at CAP_MULTIPLIER * mu0
    of S, pick the member with the fewest added pairs inside, keep its
    largest union-independent subset via the greedy bound, and spend a fresh
    color on it. Rounds whose remainder exceeds family_size_limit fall back
    to the greedy route. A round whose enumeration blows node_budget takes
    one exact maximum independent set when s <= _EXACT_ALPHA_LIMIT and the
    greedy route otherwise; both are flagged in the trace. The residue is
    colored by degeneracy_color on its mask of the union. ValueError unless
    epsilon is positive and finite.

    S is held as a bitmask over the original vertex labels and every search,
    the residue's coloring included, runs on that mask of base or of the
    union, never on a relabelled copy. Families are arrays of sets, and the
    added pairs become keys once per call. A later
    step at the size of the last enumerated family filters it to S
    (isets._restricted), which gives the fresh enumeration's sets, order and
    limit trips; a step at another size, or after a blown budget, enumerates.

    A round's sizing extract, the greedy set of base[S] whose size can raise
    k_target, picks on a word matrix of base's rows built once per call when
    n > isets._WIDE_PICK, as no narrower mask picks on it (see
    isets.min_degree_vertex), which gives the scan's picks. A round that
    may enumerate skips it while alpha_bound <= max(profile.k, k0(s)): the
    set is independent, so its size is at most alpha(S) <= alpha_bound and
    it cannot raise k_target; the round runs it only if it ends greedy.
    """
    _real("epsilon", epsilon)
    if profile.k0 is None or profile.k is None:
        raise ValueError("profile lacks k0/k; compute it for np > 1 and a reachable theta")
    if profile.n != base.n:
        raise ValueError("profile was computed for a different n")
    added.check_range(base.n)
    n, p, theta = base.n, profile.p, profile.theta
    full = union(base, added)
    threshold = (n / (math.log(n) ** 2) if knobs.variant == "local"
                 else epsilon * n / (16.0 * math.log(n * p)))
    i0 = max(0, math.ceil(math.log2(n / threshold))) if threshold < n else 0
    buckets = [0] * i0
    flags: list[str] = []
    rounds: list[tuple[int, int, str, int, int]] = []
    added_uv = np.array(sorted(added.pairs), dtype=np.int64).reshape(added.m, 2)
    added_keys = added_uv[:, 0] * n + added_uv[:, 1]  # ascending
    # the sizing extract's picks; no mask of at most _WIDE_PICK members uses it
    words = _words(_bits(base.rows, ((n + 63) >> 6) << 3)) if n > isets._WIDE_PICK else None

    colors: list[int] = [-1] * n
    next_color = 0
    remaining = (1 << n) - 1
    # An empty enumeration at k proves alpha <= k - 1 for this and every
    # later remainder (S only shrinks), so each ladder starts at this bound.
    # The steps it skips hold no set, and each visits no more nodes than the
    # empty step that proved the bound, which stayed within node_budget: no
    # skipped step could have tripped a limit either.
    alpha_bound = n
    # The family of the last step that enumerated or filtered without error,
    # an (m, k) array of labels. A later step at its k filters it to the
    # remainder (isets._restricted) instead of enumerating: S only shrinks,
    # so that equals a fresh enumeration and trips no limit one would.
    cached: Optional[np.ndarray] = None

    while remaining and (s := remaining.bit_count()) > threshold:
        family_round = s <= knobs.family_size_limit
        k_target = max(profile.k, compute_k0(s, p, theta) or 1)
        # The greedy set is independent, so its size is at most alpha(S) <=
        # alpha_bound: once that bound is down to k_target, the set cannot
        # raise it, and a family round takes it only if it ends greedy.
        chosen: Optional[tuple[int, ...]] = None
        if not family_round or alpha_bound > k_target:
            chosen = _turan(base, remaining, words)
            k_target = max(k_target, len(chosen))
        k_target = min(k_target, s)

        route = "greedy"
        if family_round:
            fam = None
            alive = _bits([remaining], (n + 7) >> 3)[0]
            k_try = min(k_target, alpha_bound)
            while k_try >= 2:
                if cached is not None and cached.shape[1] == k_try:
                    cached = _restricted(cached, alive)
                else:
                    try:
                        cached = _enumerate_sets(base.rows, remaining, k_try,
                                                 node_budget=knobs.node_budget)
                    except EnumerationLimitError:
                        flags.append(f"enumeration-budget@s={s}")
                        if s <= _EXACT_ALPHA_LIMIT:
                            # the family is out of reach but one maximum set is not
                            chosen = max_independent_set(base, _EXACT_ALPHA_LIMIT,
                                                         within=remaining)
                            route = "exact-alpha"
                            flags.append(f"exact-alpha-fallback@s={s}")
                        break
                if len(cached):
                    fam = cached
                    break
                k_try -= 1
                alpha_bound = k_try
            if fam is not None:
                _, log_mu0 = expected_counts(s, p, k_try)
                cap = CAP_MULTIPLIER * math.exp(log_mu0)
                keys = _pair_keys(fam, n)
                kept, _ = _capped(keys, cap)
                route = "family" if kept.any() else "enum"
                if route == "family":
                    fam, keys = fam[kept], keys[kept]
                # the averaging bound counts only the added pairs inside S
                inside = added_keys[alive[added_uv[:, 0]] & alive[added_uv[:, 1]]]
                row, _ = _sparsest(keys, inside, cap if route == "family" else None)
                chosen = tuple(fam[row].tolist())
        if route == "greedy":
            flags.append(f"greedy-fallback@s={s}")
            if chosen is None:
                chosen = _turan(base, remaining, words)
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
        if i0 > 0:
            buckets[_bucket_index(n, s, i0) - 1] += 1
        rounds.append((s, k_target, route, len(final), planted))
        remaining &= ~mask_of(final)

    residual, residual_colors, _ = _degeneracy_colors(full.rows, remaining)
    for v in _members(remaining):
        colors[v] = next_color + residual[v]
    next_color += residual_colors

    coloring = Coloring(tuple(colors), next_color)
    if not verify_coloring(full, coloring):
        raise AssertionError("stripping produced an improper coloring")
    trace = ColoringTrace(
        bucket_counts=tuple(buckets),
        i0=i0,
        residual_colors=residual_colors,
        k_used=rounds[0][1] if rounds else 0,
        residual_threshold=threshold,
        fidelity_flags=tuple(flags),
        rounds=tuple(rounds),
    )
    if sum(trace.bucket_counts) + trace.residual_colors != coloring.num_colors:
        raise AssertionError("bucket counts do not sum to the number of colors")
    return coloring, trace
