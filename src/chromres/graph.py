"""Dense undirected simple graphs with bit-packed adjacency rows.

Vertices are always the dense integers 0..n-1. Adjacency is stored as one
Python int per vertex (bit j of rows[i] set iff {i, j} is an edge), which
gives O(1) adjacency tests and fast row intersection for the independent-set
searches downstream. Graphs are immutable; every mutating-style operation
returns a new value, so instances are safe to share across threads.

Bulk graph I/O runs on numpy arrays rather than per pair: the generator draws
its random stream in fixed-size blocks, the writers unpack each row's upper
neighbours at once, and the parsers tokenize blocks of text and check all
their edges as arrays. Every path that turns a list of pairs into rows
(generator, parsers, Graph.from_edges) goes through _rows_from_pairs, which
packs the bits into bounded blocks of rows and counts distinct edges by
popcount.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Largest vertex count either parser accepts; a header above it is rejected
# before anything of size n is allocated.
_MAX_VERTICES = 1 << 20
# Draws per rng.random call in generate_gnp: bounds the float64 buffer the
# generator holds at once (128 KiB).
_DRAW_BLOCK = 1 << 14
# Bytes of packed bit matrix _rows_from_pairs holds at once unless the pairs
# themselves take more.
_MATRIX_BLOCK_BYTES = 1 << 20
# Characters of text a parser tokenizes at once (cut at the next newline).
_TEXT_BLOCK_CHARS = 1 << 16


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
        """Graph on n vertices with the given pairs as edges, in either order;
        repeated pairs count once. Raises ValueError on a self-loop or an
        endpoint outside 0..n-1."""
        pairs = [(operator.index(u), operator.index(v)) for u, v in pairs]
        try:
            uv = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        except OverflowError:  # an endpoint beyond int64 is out of range
            uv = None
        if uv is None or not ((uv[:, 0] != uv[:, 1]) & (uv.min(axis=1) >= 0)
                              & (uv.max(axis=1) < n)).all():
            for u, v in pairs:  # name the first offending pair
                u, v = _normalize_pair(u, v)
                if not 0 <= u < v < n:
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows, count = _rows_from_pairs(n, [(uv[:, 0], uv[:, 1])])
        return cls(n, rows, count)

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


def _rows_from_pairs(n: int, chunks: Iterable[tuple[np.ndarray, np.ndarray]],
                     ) -> tuple[tuple[int, ...], int]:
    """Adjacency rows and number of distinct edges of the pairs (u[k], v[k])
    of every endpoint-array chunk (u, v). Pairs must be loop-free with
    endpoints in 0..n-1; a pair given twice, in either order, sets the same
    bits.

    Bits are set in a packed little-endian uint8 matrix. The whole matrix
    (n * ceil(n/8) bytes) is held at once only when it is no larger than
    _MATRIX_BLOCK_BYTES or than the pair arrays themselves; each chunk is then
    set as it arrives. Otherwise the input is sparse for its n: the pairs are
    grouped by blocks of rows of at most _MATRIX_BLOCK_BYTES, only blocks that
    some pair touches are filled, one at a time, and every other row is 0.
    """
    width = (n + 7) // 8
    rows = [0] * n

    def fill(r0: int, r1: int, entries: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        # set bit dst of row src for every (src, dst) entry, rows r0..r1-1
        packed = np.zeros((r1 - r0) * width, dtype=np.uint8)
        for src, dst in entries:
            at = src - r0
            at *= width
            at += dst >> 3
            bit = (dst & 7).astype(np.uint8)
            np.left_shift(1, bit, out=bit)
            np.bitwise_or.at(packed, at, bit)
        blob = packed.tobytes()
        rows[r0:r1] = [int.from_bytes(blob[k * width:(k + 1) * width], "little")
                       for k in range(r1 - r0)]

    chunks = iter(chunks)
    held, held_bytes = [], 0
    whole = n * width <= _MATRIX_BLOCK_BYTES
    while not whole and (chunk := next(chunks, None)) is not None:
        held.append(chunk)
        held_bytes += chunk[0].nbytes + chunk[1].nbytes
        whole = n * width <= held_bytes
    if whole:
        fill(0, n, (entry for u, v in itertools.chain(held, chunks) for entry in ((u, v), (v, u))))
    else:
        span = max(1, _MATRIX_BLOCK_BYTES // width)  # rows per block
        src = np.concatenate([u for u, _ in held] + [v for _, v in held])
        dst = np.concatenate([v for _, v in held] + [u for u, _ in held])
        order = np.argsort(src // span, kind="stable")
        src, dst = src[order], dst[order]
        lo = 0
        while lo < len(src):
            r0 = int(src[lo]) // span * span
            r1 = min(n, r0 + span)
            # entries are grouped by block, so "src >= r1" is monotone in the index
            hi = int(np.searchsorted(src, r1))
            fill(r0, r1, [(src[lo:hi], dst[lo:hi])])
            lo = hi
    return tuple(rows), sum(map(int.bit_count, rows)) // 2


def generate_gnp(params: GnpParams) -> Graph:
    """Draw a random graph where each pair is an edge independently with prob p.

    Deterministic stream convention (stable across runs, platforms and thread
    counts): a numpy PCG64 generator seeded with params.seed emits one float64
    per unordered pair, consumed in row-major order over pairs (i, j) with
    i < j; the pair is an edge iff its draw is < p. The stream is drawn in
    blocks of _DRAW_BLOCK floats; PCG64's random(a) then random(b) yields
    the same numbers as random(a + b), so the block size cannot change a graph.
    """
    n, p = params.n, params.p
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # pair (i, j) is draw number first[i] + (j - i - 1), row i starting at
    # first[i] = i*(2n-i-1)/2
    i = np.arange(n, dtype=np.int64)
    first = i * (2 * n - i - 1) // 2
    total = n * (n - 1) // 2

    def edges() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for k in range(0, total, _DRAW_BLOCK):
            hits = np.flatnonzero(rng.random(min(_DRAW_BLOCK, total - k)) < p) + k
            u = np.searchsorted(first, hits, side="right") - 1
            yield u, hits - first[u] + u + 1

    rows, count = _rows_from_pairs(n, edges())
    return Graph(n, rows, count)


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
#
# Both parsers read integers with int() semantics, reject a vertex count
# above _MAX_VERTICES, and reject a repeated edge (in either order for
# DIMACS): the number of distinct pairs must equal the number of edge lines.


def _edge_text(g: Graph, header: str, prefix: str, base: int) -> str:
    """header line, then "<prefix>u v" for every edge u < v in row-major
    order, with labels shifted by base."""
    labels = np.array([f"{w + base}\n" for w in range(g.n)], dtype=object)
    width = (g.n + 7) // 8
    parts = [header + "\n"]
    for u, row in enumerate(g.rows):
        upper = row >> (u + 1)
        if upper:
            bits = np.unpackbits(np.frombuffer(upper.to_bytes(width, "little"), dtype=np.uint8),
                                 bitorder="little")
            lead = f"{prefix}{u + base} "
            parts.append(lead + lead.join(labels[np.flatnonzero(bits) + (u + 1)].tolist()))
    return "".join(parts)


def to_edge_list(g: Graph) -> str:
    return _edge_text(g, f"{g.n} {g.edge_count}", "", 0)


def to_dimacs(g: Graph) -> str:
    return _edge_text(g, f"p edge {g.n} {g.edge_count}", "e ", 1)


def _text_blocks(text: str) -> Iterator[tuple[list[str], np.ndarray, list[str]]]:
    """Split text into pieces of about _TEXT_BLOCK_CHARS characters, each cut
    just after a newline, and yield for each piece its lines (as
    str.splitlines gives them), every line's token count and all its tokens.

    Every line boundary is whitespace, so the tokens are the lines' tokens
    in order, and cutting after a newline splits no line.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _TEXT_BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        block = text[start:end]
        lines = block.splitlines()
        counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
        yield lines, counts, block.split()
        start = end


def _int64s(tokens: Iterable[str], lines: Iterable[str]) -> np.ndarray:
    """tokens as int64; when one is not an integer or does not fit, raise
    GraphFormatError naming the first of lines whose last two tokens (the
    edge endpoints) fail the same way."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        for ln in lines:
            try:
                np.array(ln.split()[-2:], dtype=np.int64)
            except (ValueError, OverflowError):
                raise GraphFormatError(f"bad edge line {ln.strip()!r}") from exc
        raise GraphFormatError(f"bad edge endpoint: {exc}") from exc


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}")
    if n > _MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit {_MAX_VERTICES}")


def _parsed_graph(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Graph of range-checked, loop-free pairs; rejects repeated edges."""
    rows, count = _rows_from_pairs(n, [(u, v)])
    if count != len(u):
        raise GraphFormatError("duplicate edges in input")
    return Graph(n, rows, count)


def parse_edge_list(text: str) -> Graph:
    head = None
    ends = []
    for lines, counts, tokens in _text_blocks(text):
        if head is None:
            filled = np.flatnonzero(counts)
            if not filled.size:
                continue
            first = int(filled[0])
            head = lines[first].strip()
            parts = head.split()
            if len(parts) != 2:
                raise GraphFormatError(f"bad header {head!r}, expected 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"bad header {head!r}") from exc
            _check_vertex_count(n)
            lines, counts, tokens = lines[first + 1:], counts[first + 1:], tokens[2:]
        bad = np.flatnonzero((counts != 0) & (counts != 2))
        if bad.size:
            raise GraphFormatError(f"bad edge line {lines[bad[0]].strip()!r}")
        ends.append(_int64s(tokens, lines))
    if head is None:
        raise GraphFormatError("empty input")
    uv = np.concatenate(ends).reshape(-1, 2)
    del ends
    if len(uv) != m:
        raise GraphFormatError(f"header claims {m} edges, found {len(uv)}")
    u, v = uv[:, 0], uv[:, 1]
    bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
    if bad.size:
        i = bad[0]
        raise GraphFormatError(f"edge ({u[i]},{v[i]}) violates 0 <= u < v < n={n}")
    return _parsed_graph(n, u, v)


def parse_dimacs(text: str) -> Graph:
    problem = None
    ends = []
    for lines, counts, tokens in _text_blocks(text):
        filled = np.flatnonzero(counts)
        at = (np.cumsum(counts) - counts)[filled]  # first token of each non-blank line
        tok = np.array(tokens, dtype=object)
        heads = tok[at]
        is_e = heads == "e"
        is_p = heads == "p"
        for i in np.flatnonzero(~(is_e | is_p)):
            if not heads[i].startswith("c"):
                raise GraphFormatError(f"unrecognized line {lines[filled[i]].strip()!r}")
        for i in np.flatnonzero(is_p):
            ln = lines[filled[i]].strip()
            parts = ln.split()
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"bad problem line {ln!r}")
            try:
                problem = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"bad problem line {ln!r}") from exc
        bad = np.flatnonzero(is_e & (counts[filled] != 3))
        if bad.size:
            raise GraphFormatError(f"bad edge line {lines[filled[bad[0]]].strip()!r}")
        at = at[is_e]
        ends.append(_int64s(tok[np.stack((at + 1, at + 2), axis=1).ravel()],
                            (lines[i] for i in filled[is_e])))
    if problem is None:
        raise GraphFormatError("missing 'p edge n m' line")
    n, m = problem
    _check_vertex_count(n)
    uv = np.concatenate(ends).reshape(-1, 2)
    del ends
    if len(uv) != m:
        raise GraphFormatError(f"header claims {m} edges, found {len(uv)}")
    u, v = uv[:, 0], uv[:, 1]
    out = (u < 1) | (u > n) | (v < 1) | (v > n)
    bad = np.flatnonzero(out | (u == v))
    if bad.size:
        i = bad[0]
        if out[i]:
            raise GraphFormatError(f"edge ({u[i]},{v[i]}) out of range")
        raise GraphFormatError(f"self-loop at vertex {u[i]}")
    uv -= 1
    return _parsed_graph(n, u, v)


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
