"""Dense undirected simple graphs with bit-packed adjacency rows.

Vertices are always the dense integers 0..n-1. Adjacency is stored as one
Python int per vertex (bit j of rows[i] set iff {i, j} is an edge), which
gives O(1) adjacency tests and fast row intersection for the independent-set
searches downstream. Graphs are immutable; every mutating-style operation
returns a new value, so instances are safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list or DIMACS text."""


class RegimeWarning(UserWarning):
    """Parameters outside the edge-probability regime the analytics assume."""


def _normalize_pair(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class EdgeSet:
    """An adversarial collection of unordered vertex pairs to add to a graph."""

    pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        """Build from any iterable of (u, v); pairs are normalized to u < v."""
        return cls(frozenset(_normalize_pair(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def check_range(self, n: int) -> None:
        for u, v in self.pairs:
            if not (0 <= u < v < n):
                raise ValueError(f"pair ({u},{v}) out of range for n={n}")

    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for u, v in self.pairs:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return max(deg.values(), default=0)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1.

    rows[i] is the neighbor bitmask of vertex i; edge_count is the number of
    true unordered pairs. Symmetry and loop-freeness are construction
    invariants (see validate()).
    """

    n: int
    rows: tuple[int, ...]
    edge_count: int

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n, 0)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full & ~(1 << v) for v in range(n)), n * (n - 1) // 2)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        count = 0
        for u, v in pairs:
            u, v = _normalize_pair(u, v)
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if not (rows[u] >> v) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                count += 1
        return cls(n, tuple(rows), count)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.rows[v]
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            while m:
                lsb = m & -m
                yield (u, u + lsb.bit_length())
                m ^= lsb

    def non_edges(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent pairs, ascending row-major order."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not (self.rows[u] >> v) & 1:
                    out.append((u, v))
        return out

    def validate(self) -> None:
        count = 0
        for u in range(self.n):
            if (self.rows[u] >> u) & 1:
                raise ValueError(f"self-loop at {u}")
            if self.rows[u] >> self.n:
                raise ValueError(f"row {u} has bits beyond n={self.n}")
            for v in self.neighbors(u):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric pair ({u},{v})")
                if v > u:
                    count += 1
        if count != self.edge_count:
            raise ValueError(f"edge_count {self.edge_count} != recount {count}")


@dataclass(frozen=True)
class GnpParams:
    """Parameters of a seeded binomial random graph draw."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        # Regime check is advisory only: the analytics are derived for
        # n^(-1/3) <= p <= 1/2 and degrade gracefully outside it.
        if self.p > 0.5 or self.p < self.n ** (-1 / 3):
            warnings.warn(
                f"p={self.p} outside the regime [n^(-1/3), 1/2] for n={self.n}",
                RegimeWarning,
                stacklevel=2,
            )


def generate_gnp(params: GnpParams) -> Graph:
    """Draw a random graph where each pair is an edge independently with prob p.

    Deterministic stream convention (stable across runs, platforms and thread
    counts): a numpy PCG64 generator seeded with params.seed emits one float64
    per unordered pair, consumed in row-major order over pairs (i, j) with
    i < j; the pair is an edge iff its draw is < p.
    """
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


def union(g: Graph, e: EdgeSet) -> Graph:
    """New graph whose edge set is g's plus e; g is unchanged."""
    e.check_range(g.n)
    rows = list(g.rows)
    added = 0
    for u, v in e.pairs:
        if not (rows[u] >> v) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            added += 1
    return Graph(g.n, tuple(rows), g.edge_count + added)


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every v in vertices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Relabeled subgraph on the vertex set s plus the map back to g's labels.

    Returns (h, mapping) where mapping[i] is the original label of h's
    vertex i; mapping is sorted ascending.
    """
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


# --- serialization ------------------------------------------------------
#
# Edge-list text: first line "n m", then m lines "u v" with 0 <= u < v < n,
# ASCII, newline-terminated, edges in ascending row-major order (canonical,
# so identical graphs serialize to identical bytes).
#
# DIMACS coloring instances: "p edge n m" header, "e u v" lines, 1-based.
# The conversion is the bit-exact shift u+1, v+1.


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _simple_graph(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """Graph on range-checked, loop-free pairs; rejects what from_edges would
    accept or merge silently."""
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}")
    g = Graph.from_edges(n, pairs)
    if g.edge_count != len(pairs):
        raise GraphFormatError("duplicate edges in input")
    return g


def parse_edge_list(text: str) -> Graph:
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
    return _simple_graph(n, pairs)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
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
    return _simple_graph(n, pairs)


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing DIMACS ('c'/'p' prefix) vs edge-list."""
    with open(path, "r", encoding="ascii") as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith(("c", "p")):
        return parse_dimacs(text)
    return parse_edge_list(text)


def save_graph(g: Graph, path: str, fmt: str = "edgelist") -> None:
    if fmt == "edgelist":
        text = to_edge_list(g)
    elif fmt == "dimacs":
        text = to_dimacs(g)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as f:
        f.write(text)
