"""Chromatic-number computation and the stripping coloring procedure.

chromatic_exact is the oracle (branch-and-bound over k-colorability with a
clique lower bound and DSATUR upper bound). dsatur and degeneracy_color are
the deterministic heuristics. strip_color builds a proper coloring of
base+added by repeatedly pulling a nearly-maximal independent set of the
base graph that contains few added pairs, refining it to an independent set
of the union, and spending one color on it; the small residue is finished
with the degeneracy coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

from .analytics import AnalyticProfile, compute_k0, expected_counts
from .graph import EdgeSet, Graph, induced_subgraph, mask_of, union
from .isets import (
    EnumerationLimitError,
    SizeLimitError,
    enumerate_isets,
    max_independent_set,
    min_degree_vertex,
    sparse_iset,
    turan_extract,
    uniform_family,
)


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: colors[v] in 0..num_colors-1, every index used."""

    colors: tuple[int, ...]
    num_colors: int

    def to_json(self) -> dict:
        return {"colors": list(self.colors), "num_colors": self.num_colors}


def verify_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c is proper on g and its color indices are contiguous from 0."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring labels {len(c.colors)} vertices, graph has {g.n}")
    used = set()
    for v in range(g.n):
        col = c.colors[v]
        if col is None:
            raise ValueError(f"vertex {v} has no color")
        used.add(col)
        m = g.rows[v] >> (v + 1)
        while m:
            lsb = m & -m
            w = v + lsb.bit_length()
            m ^= lsb
            if c.colors[w] == col:
                return False
    return used == set(range(c.num_colors))


def dsatur(g: Graph) -> Coloring:
    """Saturation-degree greedy coloring.

    Vertex choice: highest saturation, then highest degree among uncolored
    vertices, then lowest index. Fully deterministic.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    rows = g.rows
    colors: list[int] = [-1] * n
    neigh_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = (1 << n) - 1
    for _ in range(n):
        best_v = -1
        best_key = (-1, -1, 0)
        for u in range(n):
            if colors[u] >= 0:
                continue
            key = (len(neigh_colors[u]), (rows[u] & uncolored).bit_count(), -u)
            if key > best_key:
                best_key, best_v = key, u
        c = 0
        while c in neigh_colors[best_v]:
            c += 1
        colors[best_v] = c
        uncolored &= ~(1 << best_v)
        m = rows[best_v]
        while m:
            lsb = m & -m
            w = lsb.bit_length() - 1
            m ^= lsb
            if colors[w] < 0:
                neigh_colors[w].add(c)
    return Coloring(tuple(colors), max(colors) + 1)


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Smallest-last ordering and the degeneracy (max degree at removal)."""
    alive = (1 << g.n) - 1
    removal: list[int] = []
    degeneracy = 0
    while alive:
        v, d = min_degree_vertex(g.rows, alive)
        degeneracy = max(degeneracy, d)
        removal.append(v)
        alive &= ~(1 << v)
    return removal, degeneracy


def degeneracy_color(g: Graph) -> tuple[Coloring, int]:
    """Greedy coloring along the reversed smallest-last order.

    Uses at most degeneracy+1 colors; returns the coloring and the degeneracy.
    """
    removal, degeneracy = degeneracy_order(g)
    colors = [-1] * g.n
    for v in reversed(removal):
        used = set()
        m = g.rows[v]
        while m:
            lsb = m & -m
            w = lsb.bit_length() - 1
            m ^= lsb
            if colors[w] >= 0:
                used.add(colors[w])
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    num = max(colors) + 1 if colors else 0
    coloring = Coloring(tuple(colors), num)
    if num > degeneracy + 1:
        raise AssertionError(f"{num} colors exceed degeneracy + 1 = {degeneracy + 1}")
    return coloring, degeneracy


def greedy_clique(g: Graph) -> int:
    """Greedy clique size, a quick chromatic lower bound."""
    rows = g.rows
    best = 0
    for start in sorted(range(g.n), key=lambda v: (-rows[v].bit_count(), v))[:8]:
        clique = 1
        cand = rows[start]
        while cand:
            pick, pick_key = -1, (-1, 0)
            m = cand
            while m:
                lsb = m & -m
                u = lsb.bit_length() - 1
                m ^= lsb
                key = ((rows[u] & cand).bit_count(), -u)
                if key > pick_key:
                    pick_key, pick = key, u
            clique += 1
            cand &= rows[pick] & ~(1 << pick)
        best = max(best, clique)
    return best


def find_coloring(g: Graph, k: int) -> Optional[Coloring]:
    """A proper k-coloring of g, or None if none exists.

    Backtracking with DSATUR-style dynamic vertex choice and the standard
    symmetry break (a vertex may open at most one fresh color index).
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    if k <= 0:
        return None
    rows = g.rows
    colors = [-1] * n
    neigh_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int:
        best_v, best_key = -1, (-1, -1, 0)
        for u in range(n):
            if colors[u] >= 0:
                continue
            key = (len(neigh_colors[u]), rows[u].bit_count(), -u)
            if key > best_key:
                best_key, best_v = key, u
        return best_v

    def assign(v: int, c: int, undo: list[int]) -> None:
        colors[v] = c
        m = rows[v]
        while m:
            lsb = m & -m
            w = lsb.bit_length() - 1
            m ^= lsb
            if colors[w] < 0 and c not in neigh_colors[w]:
                neigh_colors[w].add(c)
                undo.append(w)

    def solve(remaining: int, max_used: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        if len(neigh_colors[v]) >= k:
            return False
        top = min(k - 1, max_used + 1)
        for c in range(top + 1):
            if c in neigh_colors[v]:
                continue
            undo: list[int] = []
            assign(v, c, undo)
            if solve(remaining - 1, max(max_used, c)):
                return True
            colors[v] = -1
            for w in undo:
                neigh_colors[w].discard(c)
        return False

    if not solve(n, -1):
        return None
    used = sorted(set(colors))
    remap = {c: i for i, c in enumerate(used)}
    tidy = tuple(remap[c] for c in colors)
    return Coloring(tidy, len(used))


def chromatic_exact(g: Graph, limit: int = 40) -> int:
    """Exact chromatic number; SizeLimitError beyond `limit` vertices."""
    if g.n > limit:
        raise SizeLimitError(f"n={g.n} exceeds exact-chromatic limit {limit}")
    if g.n == 0:
        return 0
    ub_coloring = dsatur(g)
    ub = ub_coloring.num_colors
    lb = max(1, greedy_clique(g))
    for k in range(lb, ub):
        if find_coloring(g, k) is not None:
            return k
    return ub


@dataclass(frozen=True)
class StripKnobs:
    """Centralized configuration for strip_color.

    variant selects the residual threshold: "global" stops stripping at
    eps*n/(16 log(np)), "local" at n/(log n)^2. family_size_limit gates the
    enumeration route (rounds on larger remainders go straight to the greedy
    route). enumeration_limit caps family sizes; node_budget caps the
    enumeration search tree per round; exact_alpha_limit bounds the exact
    search used when the working size is unreachable. cap_multiplier scales
    the pair-coverage cap (cap = multiplier * mu0 of the remainder).
    """

    variant: str = "global"
    family_size_limit: int = 130
    enumeration_limit: int = 5_000_000
    node_budget: int = 2_000_000
    exact_alpha_limit: int = 120
    cap_multiplier: float = 4.0


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


def _residual_threshold(n: int, p: float, epsilon: float, variant: str) -> float:
    if variant == "global":
        return epsilon * n / (16.0 * math.log(n * p))
    if variant == "local":
        return n / (math.log(n) ** 2)
    raise ValueError(f"unknown variant {variant!r}")


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
    down until non-empty), cap their pair coverage, pick the member with the
    fewest added pairs inside, keep its largest union-independent subset via
    the greedy bound, and spend a fresh color on it. Rounds whose remainder
    exceeds family_size_limit, or whose enumeration blows the node budget,
    fall back to the greedy route and are flagged in the trace. The residue
    is colored by degeneracy_color.

    S is held as a bitmask over the original vertex labels and every search
    runs on that mask of base or of the union, never on a relabelled copy;
    the residue is the one induced subgraph built per call.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if profile.k0 is None or profile.k is None:
        raise ValueError("profile lacks k0/k; compute it for np > 1 and a reachable theta")
    if profile.n != base.n:
        raise ValueError("profile was computed for a different n")
    added.check_range(base.n)
    n, p, theta = base.n, profile.p, profile.theta
    full = union(base, added)
    threshold = _residual_threshold(n, p, epsilon, knobs.variant)
    i0 = max(0, math.ceil(math.log2(n / threshold))) if threshold < n else 0
    buckets = [0] * i0
    flags: list[str] = []
    rounds: list[tuple[int, int, str, int, int]] = []

    colors: list[int] = [-1] * n
    next_color = 0
    remaining = (1 << n) - 1
    k_used = 0

    while remaining and (s := remaining.bit_count()) > threshold:
        greedy_set = turan_extract(base, remaining)
        k_target = max(profile.k, compute_k0(s, p, theta) or 1, len(greedy_set))
        k_target = min(k_target, s)
        if k_used == 0:
            k_used = k_target

        route = "greedy"
        chosen: tuple[int, ...] = greedy_set
        planted = 0
        if s <= knobs.family_size_limit:
            fam = None
            k_try = k_target
            while k_try >= 2:
                try:
                    cand = enumerate_isets(base, k_try, knobs.enumeration_limit,
                                           node_budget=knobs.node_budget, within=remaining)
                except EnumerationLimitError:
                    flags.append(f"enumeration-budget@s={s}")
                    if s <= knobs.exact_alpha_limit:
                        # the family is out of reach but one maximum set is not
                        chosen = max_independent_set(base, knobs.exact_alpha_limit,
                                                     within=remaining)
                        route = "exact-alpha"
                        flags.append(f"exact-alpha-fallback@s={s}")
                    break
                if cand.sets:
                    fam = cand
                    break
                k_try -= 1
            if fam is not None:
                route = "enum"
                _, log_mu0 = expected_counts(s, p, fam.k)
                capped = uniform_family(fam, knobs.cap_multiplier * math.exp(log_mu0))
                if capped.sets:
                    fam = capped
                    route = "family"
                # the averaging bound counts only the added pairs inside S
                inside = EdgeSet(frozenset(
                    (u, v) for u, v in added.pairs if (remaining >> u) & 1 and (remaining >> v) & 1))
                chosen, planted = sparse_iset(fam, inside)
        chosen_mask = mask_of(chosen)
        if route == "greedy":
            flags.append(f"greedy-fallback@s={s}")
        if route in ("greedy", "exact-alpha"):
            planted = sum(1 for u, v in added.pairs
                          if (chosen_mask >> u) & 1 and (chosen_mask >> v) & 1)

        # refine to an independent set of the union graph
        final = turan_extract(full, chosen_mask)
        for v in final:
            colors[v] = next_color
        next_color += 1
        if i0 > 0:
            buckets[_bucket_index(n, s, i0) - 1] += 1
        rounds.append((s, k_target, route, len(final), planted))
        remaining &= ~mask_of(final)

    residual_colors = 0
    if remaining:
        sub_union, sub_map = induced_subgraph(full, (v for v in range(n) if colors[v] < 0))
        res_coloring, _ = degeneracy_color(sub_union)
        for i, v in enumerate(sub_map):
            colors[v] = next_color + res_coloring.colors[i]
        residual_colors = res_coloring.num_colors
        next_color += residual_colors

    coloring = Coloring(tuple(colors), next_color)
    if not verify_coloring(full, coloring):
        raise AssertionError("stripping produced an improper coloring")
    trace = ColoringTrace(
        bucket_counts=tuple(buckets),
        i0=i0,
        residual_colors=residual_colors,
        k_used=k_used,
        residual_threshold=threshold,
        fidelity_flags=tuple(flags),
        rounds=tuple(rounds),
    )
    if sum(trace.bucket_counts) + trace.residual_colors != coloring.num_colors:
        raise AssertionError("bucket counts do not sum to the number of colors")
    return coloring, trace
