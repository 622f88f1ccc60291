"""Shared graph builders and independent brute-force oracles.

The oracles here deliberately avoid the package's search machinery: subsets
are enumerated by bitmask, colorings by plain recursive assignment in vertex
order, so they stay valid yardsticks for the clever implementations. The
`*_reference` functions generate, write and parse graphs one pair at a time
with Python ints, take induced subgraphs bit by bit, match bounded-degree
stubs pair by pair, enumerate independent sets by a recursive DFS, check
colorings edge by edge, and run the exact searches with a first-fit clique
cover and vertex choices that scan every vertex at every node; the
differential tests hold the package's bitset and incremental versions to
them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np

from chromres import (
    Coloring,
    EdgeSet,
    EnumerationLimitError,
    GnpParams,
    Graph,
    GraphFormatError,
    SearchBudgetError,
    SizeLimitError,
    chromatic_exact,
    find_coloring,
    union,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(args: list[str], timeout: float, cwd=None) -> subprocess.CompletedProcess:
    """Run this interpreter on args in a fresh process that imports chromres
    from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph.from_edges(10, outer + spokes + inner)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def brute_alpha(g: Graph) -> int:
    """Independence number by scanning all 2^n subsets."""
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            m ^= lsb
            if g.rows[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def brute_colorable(g: Graph, k: int) -> bool:
    """k-colorability by recursive assignment (plain vertex order 0..n-1)."""
    colors = [-1] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        seen = {colors[w] for w in range(v) if g.has_edge(v, w)}
        top = min(k, max(colors[:v], default=-1) + 2)
        for c in range(top):
            if c not in seen:
                colors[v] = c
                if rec(v + 1):
                    return True
        colors[v] = -1
        return False

    return rec(0)


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if brute_colorable(g, k):
            return k
    raise AssertionError("unreachable")


def density_audit_reference(g: Graph, p: float, epsilon: float) -> tuple:
    """Every (subset, size, edges) with 2 <= size <= s_max whose edge count
    exceeds bound * size, by scanning all subsets and all pairs inside them;
    sizes ascending, subsets in lexicographic order."""
    log_np = math.log(g.n * p)
    s_max = min(g.n, math.floor(epsilon * g.n / (16.0 * log_np)))
    bound = epsilon * g.n * p / (8.0 * log_np)
    out = []
    for s in range(2, s_max + 1):
        for subset in combinations(range(g.n), s):
            edges = sum(g.has_edge(u, v) for u, v in combinations(subset, 2))
            if edges > bound * s:
                out.append((subset, s, edges))
    return tuple(out)


# --- search and coloring reference oracles -----------------------------


def enumerate_sets_reference(rows, within: int, k: int, limit: int,
                             node_budget=None) -> list[tuple[int, ...]]:
    """Recursive DFS over increasing vertex labels; sets come out
    lexicographically sorted. Every visited node counts toward node_budget."""
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


def count_dfs_nodes_reference(rows, within: int, k: int) -> tuple[list[tuple[int, ...]], int]:
    """The same DFS without limits: its sets and its node total N (so a node
    budget of N - 1 must raise and N must not)."""
    out: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(cand: int, chosen: list[int], need: int) -> None:
        nonlocal nodes
        nodes += 1
        if need == 0:
            out.append(tuple(chosen))
            return
        c = cand
        while c and c.bit_count() >= need:
            lsb = c & -c
            v = lsb.bit_length() - 1
            c ^= lsb
            chosen.append(v)
            dfs(c & ~rows[v], chosen, need - 1)
            chosen.pop()

    if k <= within.bit_count():
        dfs(within, [], k)
    return out, nodes


def is_independent_reference(g: Graph, vertices) -> bool:
    """Pairwise has_edge over every pair of the given vertices."""
    vs = list(vertices)
    return not any(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


def verify_coloring_reference(g: Graph, colors, num_colors: int) -> bool:
    """Edge by edge: True iff no edge joins two equal colors and the colors
    used are exactly 0..num_colors-1; ValueError on a length mismatch or an
    uncolored vertex."""
    if len(colors) != g.n:
        raise ValueError(f"coloring labels {len(colors)} vertices, graph has {g.n}")
    used = set()
    for v in range(g.n):
        col = colors[v]
        if col is None:
            raise ValueError(f"vertex {v} has no color")
        used.add(col)
        m = g.rows[v] >> (v + 1)
        while m:
            lsb = m & -m
            w = v + lsb.bit_length()
            m ^= lsb
            if colors[w] == col:
                return False
    return used == set(range(num_colors))


def max_independent_set_reference(g: Graph, limit: int = 120, within=None) -> tuple[int, ...]:
    """Branch and bound with a first-fit greedy clique cover over the
    vertices in descending degree inside `within` (ties by label), branching
    on candidates sorted by (cover class, label) from the last, started from
    the greedy minimum-degree strip (lowest label among ties)."""
    n = g.n
    top = (1 << n) - 1 if within is None else within
    if top >> n:
        raise ValueError(f"vertex mask {top:#x} has bits outside 0..{n - 1}")
    size = top.bit_count()
    if size > limit:
        raise SizeLimitError(f"n={size} exceeds exact-search limit {limit}")
    if size == 0:
        return ()
    rows = g.rows
    order = sorted((v for v in range(n) if (top >> v) & 1),
                   key=lambda v: (-(rows[v] & top).bit_count(), v))
    best: list[int] = []
    alive = top
    while alive:
        v = min((u for u in range(n) if (alive >> u) & 1),
                key=lambda u: ((rows[u] & alive).bit_count(), u))
        best.append(v)
        alive &= ~(rows[v] | (1 << v))
    best_size = len(best)
    cur: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best, best_size
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
    return tuple(sorted(best))


def find_coloring_reference(g: Graph, k: int):
    """Backtracking k-coloring: the next vertex maximizes (distinct neighbour
    colors, degree, -label) over a scan of every vertex; a vertex may open
    at most one fresh color. Colors tidied to first-use rank."""
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

    def solve(remaining: int, max_used: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        if len(neigh_colors[v]) >= k:
            return False
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in neigh_colors[v]:
                continue
            colors[v] = c
            undo = [w for w in g.neighbors(v) if colors[w] < 0 and c not in neigh_colors[w]]
            for w in undo:
                neigh_colors[w].add(c)
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
    return Coloring(tuple(remap[c] for c in colors), len(used))


def dsatur_reference(g: Graph) -> Coloring:
    """DSATUR with a full scan per step for the maximum of (saturation,
    uncolored degree, -label)."""
    n = g.n
    if n == 0:
        return Coloring((), 0)
    rows = g.rows
    colors = [-1] * n
    neigh_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = (1 << n) - 1
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] < 0),
                key=lambda u: (len(neigh_colors[u]), (rows[u] & uncolored).bit_count(), -u))
        c = 0
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        uncolored &= ~(1 << v)
        for w in g.neighbors(v):
            if colors[w] < 0:
                neigh_colors[w].add(c)
    return Coloring(tuple(colors), max(colors) + 1)


# --- resilience oracle references --------------------------------------


def bounded_degree_h_reference(n: int, delta: int, seed: int) -> tuple[EdgeSet, int]:
    """Stub matching checked pair by pair: up to 100 rejected matchings, then
    one more kept with loops and repeats erased."""
    if delta > n - 1:
        raise ValueError("delta must be <= n-1")
    if delta <= 0 or n < 2:
        return EdgeSet(frozenset()), 0
    rng = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n), delta)
    if len(stubs) % 2 == 1:
        stubs = stubs[:-1]
    pairs: set[tuple[int, int]] = set()
    for _ in range(100):
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
        perm = rng.permutation(stubs)
        for i in range(0, len(perm) - 1, 2):
            u, v = int(perm[i]), int(perm[i + 1])
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    edges = EdgeSet(frozenset(pairs))
    return edges, edges.max_degree()


def first_defeat_reference(g: Graph, chi_cap: int, classes):
    """First (value, EdgeSet) of `classes` whose pairs added to g push chi
    above chi_cap, (0, empty) if chi(g) already does, None if none does.
    Skips a candidate only when one fixed chi_cap-coloring of g leaves all
    its pairs bichromatic; every other candidate gets a fresh union and
    find_coloring."""
    if chromatic_exact(g) > chi_cap:
        return 0, EdgeSet(frozenset())
    base_coloring = find_coloring(g, chi_cap)
    colors = base_coloring.colors
    for value, candidates in classes:
        for pairs in candidates:
            if not any(colors[u] == colors[v] for u, v in pairs):
                continue
            e = EdgeSet(frozenset(pairs))
            if find_coloring(union(g, e), chi_cap) is None:
                return value, e
    return None


def maximal_bounded_subsets_reference(non_edges, n: int, delta: int, node_budget: int,
                                      visits=None):
    """Recursive include-first DFS over non_edges in list order, yielding the
    subsets with every vertex in at most delta pairs that no excluded pair
    could extend. Every call is one node; SearchBudgetError past node_budget.
    When `visits` is a list, the running node count of this walk is kept in
    a new last entry."""
    deg = [0] * n
    chosen: list[tuple[int, int]] = []
    counts = [] if visits is None else visits
    counts.append(0)

    def dfs(i: int):
        counts[-1] += 1
        if counts[-1] > node_budget:
            raise SearchBudgetError(f"local oracle exceeded {node_budget} nodes")
        if i == len(non_edges):
            for u, v in non_edges:
                if (u, v) not in chosen and deg[u] < delta and deg[v] < delta:
                    return  # dominated: some excluded edge still fits
            yield tuple(chosen)
            return
        u, v = non_edges[i]
        if deg[u] < delta and deg[v] < delta:
            chosen.append((u, v))
            deg[u] += 1
            deg[v] += 1
            yield from dfs(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        yield from dfs(i + 1)

    yield from dfs(0)


# --- graph I/O reference oracles ---------------------------------------
#
# One pair at a time, Python ints only. from_edges_reference stands in for
# Graph.from_edges so that no oracle goes through the package's array builder.


def induced_subgraph_reference(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Walks each chosen row bit by bit and relabels through a dict."""
    verts = sorted(set(s))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    count = 0
    for i, v in enumerate(verts):
        m = g.rows[v]
        while m:
            lsb = m & -m
            w = lsb.bit_length() - 1
            m ^= lsb
            j = index.get(w)
            if j is not None:
                rows[i] |= 1 << j
                if j > i:
                    count += 1
    return Graph(len(verts), tuple(rows), count), tuple(verts)


def from_edges_reference(n: int, pairs) -> Graph:
    rows = [0] * n
    count = 0
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not allowed")
        u, v = (u, v) if u < v else (v, u)
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not (rows[u] >> v) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            count += 1
    return Graph(n, tuple(rows), count)


def generate_gnp_reference(params: GnpParams) -> Graph:
    n, p = params.n, params.p
    rng = np.random.Generator(np.random.PCG64(params.seed))
    rows = [0] * n
    count = 0
    for i in range(n - 1):
        draws = rng.random(n - 1 - i)
        row = rows[i]
        for off in np.flatnonzero(draws < p):
            j = i + 1 + int(off)
            row |= 1 << j
            rows[j] |= 1 << i
            count += 1
        rows[i] = row
    return Graph(n, tuple(rows), count)


def to_edge_list_reference(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _simple_graph_reference(n: int, pairs: list[tuple[int, int]]) -> Graph:
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}")
    g = from_edges_reference(n, pairs)
    if g.edge_count != len(pairs):
        raise GraphFormatError("duplicate edges in input")
    return g


def parse_edge_list_reference(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header claims {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n={n}")
        pairs.append((u, v))
    return _simple_graph_reference(n, pairs)


def to_dimacs_reference(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_dimacs_reference(text: str) -> Graph:
    n = None
    m = None
    pairs = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("c"):
            continue
        parts = ln.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"bad problem line {ln!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"bad problem line {ln!r}") from exc
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphFormatError(f"bad edge line {ln!r}")
            try:
                pairs.append((int(parts[1]) - 1, int(parts[2]) - 1))
            except ValueError as exc:
                raise GraphFormatError(f"bad edge line {ln!r}") from exc
        else:
            raise GraphFormatError(f"unrecognized line {ln!r}")
    if n is None:
        raise GraphFormatError("missing 'p edge n m' line")
    if len(pairs) != m:
        raise GraphFormatError(f"header claims {m} edges, found {len(pairs)}")
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u + 1},{v + 1}) out of range")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u + 1}")
    return _simple_graph_reference(n, pairs)
