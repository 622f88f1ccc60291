"""Dense undirected simple graphs with bit-packed adjacency rows.

Vertices are always the dense integers 0..n-1. Adjacency is stored as one
Python int per vertex (bit j of rows[i] set iff {i, j} is an edge), which
gives O(1) adjacency tests and fast row intersection for the independent-set
searches downstream. Graphs are immutable; every mutating-style operation
returns a new value, so instances are safe to share across threads.

Bulk work runs on numpy bool matrices, and three private helpers are the only
code that knows how a row is laid out in bytes (little-endian, bit j of a row
is bit j % 8 of its byte j // 8): _bits turns rows into a bool matrix, _ints
turns one back into rows, and _projected yields bounded blocks of the
adjacency among a list of vertices, relabelled onto their positions. _words
packs a bool matrix from _bits into uint64 words, one column per row, which
AND like the rows under them. Two more
are the only code that lists a mask's members (the writers aside, which unpack
each row's upper neighbours as one index array) or counts the edges inside a
mask: _members gives a mask's vertices in ascending order, and _edges_inside
the number of edges of a graph with both ends in a mask.

The generator draws its random stream in fixed-size blocks, the writers
unpack each row's upper neighbours at once, and the parsers read blocks of
text as arrays of code points (one tokenizer for both formats, no Python
string per token) and check all their edges as arrays. Every path that turns
a list of pairs into rows (generator, parsers, Graph.from_edges) goes through
_rows_from_pairs, which sets the bits of bounded blocks of rows and counts
distinct edges by popcount. induced_subgraph, and in isets the maximum
independent set search and the enumeration's forward sets, read their
relabelled adjacency from _projected.

_count and _real are the package's one check of a scalar parameter: a count
is an int (a bool is none) of at least some least value, a real an int or a
float (not a bool) strictly between 0 and an upper bound, optionally 0
included, never NaN. Each raises a ValueError whose message begins with the
argument's name. _vertex_count checks every n a Graph is built with: a count
of at most _MAX_VERTICES.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest vertex count of a Graph; a builder or parser rejects an n above it
# before anything of size n is allocated.
_MAX_VERTICES = 1 << 20
# Draws per rng.random call in generate_gnp: bounds the float64 buffer the
# generator holds at once (128 KiB).
_DRAW_BLOCK = 1 << 14
# Bytes of packed bit matrix _rows_from_pairs fills at once unless the pairs
# themselves take more; the bool block it sets holds 8x as many bytes.
_MATRIX_BLOCK_BYTES = 1 << 20
# Bytes of bool matrix _projected unpacks at once (at least one row).
_PROJECT_BLOCK_BYTES = 1 << 16
# Characters of text a parser tokenizes at once (cut at the next newline).
_TEXT_BLOCK_CHARS = 1 << 16
# Members above which _members unpacks a mask through _bits instead of walking
# its lowest bits one at a time (the faster way on each side, measured).
_WIDE_MEMBERS = 48


class GraphFormatError(ValueError):
    """Malformed edge-list or DIMACS text."""


class RegimeWarning(UserWarning):
    """Parameters outside the edge-probability regime the analytics assume."""


def _count(name: str, value, least: int = 0) -> None:
    """ValueError naming `name` unless value is an int, not a bool, >= least."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(name: str, value, high: float = math.inf, zero: bool = False) -> None:
    """ValueError naming `name` unless value is an int or a float, not a
    bool, with 0 < value < high, or 0 <= value < high when zero is set; NaN
    and infinities never pass."""
    if not ((type(value) is float or type(value) is int)
            and (0 < value or zero and value == 0) and value < high):
        bounds = (f"lie strictly between 0 and {high:g}" if high < math.inf
                  else "be >= 0 and finite" if zero else "be positive and finite")
        raise ValueError(f"{name} must {bounds}, got {value!r}")


def _vertex_count(n) -> None:
    """ValueError unless n is a count (see _count) of at most _MAX_VERTICES;
    a negative int is named as a negative vertex count."""
    if isinstance(n, int) and n < 0:
        raise ValueError(f"negative vertex count {n}")
    _count("n", n)
    if n > _MAX_VERTICES:
        raise ValueError(f"n must be <= {_MAX_VERTICES}, got {n}")


def _labels(vertices, n: int) -> None:
    """ValueError naming the first of vertices outside 0..n-1."""
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")


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
    true unordered pairs. Construction, and each builder before it builds
    anything of size n, raises ValueError for an n that is not an int (a bool
    is none) in 0.._MAX_VERTICES; construction also for a rows tuple whose
    length is not n. Symmetry and loop-freeness are invariants the builders
    keep; validate() checks them.
    """

    n: int
    rows: tuple[int, ...]
    edge_count: int

    def __post_init__(self) -> None:
        _vertex_count(self.n)
        if len(self.rows) != self.n:
            raise ValueError(f"{len(self.rows)} rows for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _vertex_count(n)
        return cls(n, (0,) * n, 0)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _vertex_count(n)
        full = (1 << n) - 1
        return cls(n, tuple(full & ~(1 << v) for v in range(n)), n * (n - 1) // 2)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        _vertex_count(n)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on n vertices with the given pairs as edges, in either order;
        repeated pairs count once. Raises ValueError on a self-loop or an
        endpoint outside 0..n-1."""
        _vertex_count(n)
        pairs = [(operator.index(u), operator.index(v)) for u, v in pairs]
        for u, v in pairs:
            u, v = _normalize_pair(u, v)
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        uv = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        rows, count = _rows_from_pairs(n, [(uv[:, 0], uv[:, 1])])
        return cls(n, rows, count)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff {u, v} is an edge; ValueError for a label outside 0..n-1."""
        _labels((u, v), self.n)
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        """v's neighbours in ascending order; ValueError for a label outside
        0..n-1, raised at the call."""
        _labels((v,), self.n)
        return iter(_members(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            for v in _members(row & -(2 << u)):  # the bits above u
                yield u, v

    def non_edges(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent pairs, ascending row-major order."""
        full = (1 << self.n) - 1
        return [(u, v) for u, row in enumerate(self.rows)
                for v in _members(full & -(2 << u) & ~row)]  # above u, not adjacent

    def validate(self) -> None:
        for u in range(self.n):
            if (self.rows[u] >> u) & 1:
                raise ValueError(f"self-loop at {u}")
            if self.rows[u] >> self.n:
                raise ValueError(f"row {u} has bits beyond n={self.n}")
            for v in self.neighbors(u):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric pair ({u},{v})")
        count = _edges_inside(self, (1 << self.n) - 1)
        if count != self.edge_count:
            raise ValueError(f"edge_count {self.edge_count} != recount {count}")


@dataclass(frozen=True)
class GnpParams:
    """Parameters of a seeded binomial random graph draw: ValueError unless n
    is a count in 1.._MAX_VERTICES, 0 < p < 1 and seed is a count."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        _count("n", self.n, 1)
        if self.n > _MAX_VERTICES:
            raise ValueError(f"n must be <= {_MAX_VERTICES}, got {self.n}")
        _real("p", self.p, 1.0)
        _count("seed", self.seed)
        # Regime check is advisory only: the analytics are derived for
        # n^(-1/3) <= p <= 1/2 and degrade gracefully outside it.
        if self.p > 0.5 or self.p < self.n ** (-1 / 3):
            warnings.warn(
                f"p={self.p} outside the regime [n^(-1/3), 1/2] for n={self.n}",
                RegimeWarning,
                stacklevel=2,
            )


def _bits(rows: Sequence[int], width: int) -> np.ndarray:
    """Bool matrix of shape (len(rows), 8 * width) whose entry [i, j] is bit j
    of rows[i]; every row must fit in width bytes."""
    blob = b"".join([row.to_bytes(width, "little") for row in rows])
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, bitorder="little").view(bool)


def _words(bits: np.ndarray) -> np.ndarray:
    """A 2-d bool matrix whose width is a multiple of 64 as uint64 words:
    column i of the result holds row i of bits, lowest word first."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _ints(bits: np.ndarray) -> list[int]:
    """The rows of a 2-d bool matrix: bit j of row i is set iff bits[i, j]."""
    return [int.from_bytes(row, "little") for row in np.packbits(bits, axis=1, bitorder="little")]


def _members(mask: int) -> list[int]:
    """The set bits of a non-negative mask, in ascending order."""
    if mask.bit_count() > _WIDE_MEMBERS:
        return np.flatnonzero(_bits([mask], (mask.bit_length() + 7) >> 3)[0]).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _edges_inside(g: Graph, mask: int) -> int:
    """The number of edges of g with both ends in the vertex mask."""
    rows = g.rows
    return sum([(rows[v] & mask).bit_count() for v in _members(mask)]) // 2


def _projected(rows: Sequence[int], verts: Sequence[int]) -> Iterator[np.ndarray]:
    """The adjacency among verts relabelled onto their positions, as bool
    blocks of consecutive rows: entry [i, j] of the blocks stacked is whether
    verts[j] is a neighbour of verts[i] in rows. verts may come in any order;
    a block unpacks at most _PROJECT_BLOCK_BYTES (at least one row)."""
    verts = np.asarray(verts, dtype=np.intp)
    if not len(verts):
        return
    width = (int(verts.max()) >> 3) + 1  # bytes holding every label of verts
    low = (1 << (8 * width)) - 1
    span = max(1, _PROJECT_BLOCK_BYTES // (8 * width))
    for r0 in range(0, len(verts), span):
        block = [rows[v] & low for v in verts[r0:r0 + span].tolist()]
        yield _bits(block, width)[:, verts]


def _rows_from_pairs(n: int, chunks: Iterable[tuple[np.ndarray, np.ndarray]],
                     ) -> tuple[tuple[int, ...], int]:
    """Adjacency rows and number of distinct edges of the pairs (u[k], v[k])
    of every endpoint-array chunk (u, v). Pairs must be loop-free with
    endpoints in 0..n-1; a pair given twice, in either order, sets the same
    bits.

    Blocks of rows are sized by their packed bytes, n * ceil(n/8) for the
    whole matrix, and set as bool matrices of 8x that size. A block of rows
    r0..r1-1 is set as one flat bool array, bit dst of row src at index
    (src - r0) * 8 * ceil(n/8) + dst, so each chunk is one scatter by flat
    index; the array is reshaped into the matrix. The whole matrix is held
    at once only when its packed bytes are no more than _MATRIX_BLOCK_BYTES
    or than the pair arrays themselves; each chunk is then set as it arrives.
    Otherwise the input is sparse for its n: the pairs are grouped by blocks
    of rows of at most _MATRIX_BLOCK_BYTES packed, only blocks that some pair
    touches are filled, one at a time, and every other row is 0. Requires
    n >= 0.
    """
    width = (n + 7) // 8
    rows = [0] * n

    def fill(r0: int, r1: int, entries: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        # set bit dst of row src for every (src, dst) entry, rows r0..r1-1
        block = np.zeros((r1 - r0) * 8 * width, dtype=bool)
        for src, dst in entries:
            block[(src - r0) * (8 * width) + dst] = True
        rows[r0:r1] = _ints(block.reshape(r1 - r0, 8 * width))

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
    _labels(verts, g.n)
    rows = tuple(row for block in _projected(g.rows, verts) for row in _ints(block))
    return Graph(len(verts), rows, sum(map(int.bit_count, rows)) // 2), tuple(verts)


# --- serialization ------------------------------------------------------
#
# Edge-list text: first line "n m", then m lines "u v" with 0 <= u < v < n,
# ASCII, newline-terminated, edges in ascending row-major order (canonical,
# so identical graphs serialize to identical bytes).
#
# DIMACS coloring instances: "p edge n m" header, "e u v" lines, 1-based.
# The conversion is the bit-exact shift u+1, v+1.
#
# Both parsers read integers with int() semantics. Tokens and lines are those
# of str.split() and str.splitlines(). The parsers share one tokenizer
# (_Block): each block of text becomes an array of its code points, one byte
# each when str.isascii() holds for the block (always, for text load_graph
# reads) and UTF-32 otherwise, so one non-ASCII character widens only its own
# block. Whitespace and line breaks become masks, tokens are the mask's runs,
# and each token's line is a count of the breaks before it. They share one
# line-shape pass (_line_heads: each line's first token and token count), on
# which each checks its own header and line classes; only endpoint tokens are
# read as values, short ASCII digit runs as arrays and every other token by
# int().
# One validator (_edge_graph) then decides, for both formats, on the 0-based
# pairs: the header's vertex count (0.._MAX_VERTICES), the edge count, the
# range, loops and duplicates (the number of distinct pairs must equal the
# number of edge lines, so a pair repeated in either order is a duplicate).
# The edge list checks u < v itself.


def _edge_text(g: Graph, header: str, prefix: str, base: int) -> str:
    """header line, then "<prefix>u v" for every edge u < v in row-major
    order, with labels shifted by base."""
    labels = np.array([f"{w + base}\n" for w in range(g.n)], dtype=object)
    width = (g.n + 7) // 8
    parts = [header + "\n"]
    for u, row in enumerate(g.rows):
        upper = row >> (u + 1)
        if upper:
            lead = f"{prefix}{u + base} "
            above = np.flatnonzero(_bits([upper], width)[0]) + (u + 1)
            parts.append(lead + lead.join(labels[above].tolist()))
    return "".join(parts)


def to_edge_list(g: Graph) -> str:
    return _edge_text(g, f"{g.n} {g.edge_count}", "", 0)


def to_dimacs(g: Graph) -> str:
    return _edge_text(g, f"p edge {g.n} {g.edge_count}", "e ", 1)


# Code points above 127 at which str.split() cuts, and those of them at which
# str.splitlines() also ends a line; below 128 both sets are a few ranges
# (see _classify). Pinned against str.isspace and str.splitlines for every
# code point by tests/test_graph_io.py.
_WIDE_SPACES = np.array([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
                         0x205F, 0x3000], dtype=np.uint32)
_WIDE_BREAKS = np.array([0x85, 0x2028, 0x2029], dtype=np.uint32)
# Longest token of ASCII digits whose value the column pass computes; every
# value below 10^9 fits int32.
_FAST_DIGITS = 9


def _classify(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(space, brk) for uint8 or uint32 code points: whether str.split treats
    each as whitespace, and whether str.splitlines ends a line at it. The
    range tests wrap the same way at either width, and no uint8 code is wide."""
    space = (codes - 9 < 5) | (codes - 28 < 5)  # \t\n\v\f\r, \x1c-\x1f and " "
    brk = (codes - 10 < 4) | (codes - 28 < 3)  # \n\v\f\r and \x1c-\x1e
    wide = np.flatnonzero(codes > 127)
    if wide.size:
        space[wide] = np.isin(codes[wide], _WIDE_SPACES)
        brk[wide] = np.isin(codes[wide], _WIDE_BREAKS)
    return space, brk


class _Block:
    """A piece of text tokenized on its code points: token k is
    text[starts[k]:ends[k]], a maximal run of non-whitespace, and lies on
    line lines[k] of the piece. codes holds the code points as uint8 when
    str.isascii() holds for the piece, as uint32 otherwise.

    Lines are numbered by counting line breaks, so a CR LF pair opens an
    empty line between its two breaks; that line holds no token, so two
    tokens share a number exactly when str.splitlines puts them on one line.
    """

    def __init__(self, text: str):
        self.text = text
        if text.isascii():
            self.codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        else:
            self.codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        space, brk = _classify(self.codes)
        self.line_at = np.cumsum(brk, dtype=np.int32)  # a break opens the next line
        flips = np.flatnonzero(np.diff(space, prepend=True, append=True))
        self.starts, self.ends = flips[0::2], flips[1::2]
        self.lines = self.line_at[self.starts]

    def line_text(self, line: int) -> str:
        """The text of the given line number, stripped."""
        a, b = np.searchsorted(self.line_at, (line, line + 1))
        return self.text[a:b].strip()

    def values(self, tokens: slice | np.ndarray) -> np.ndarray:
        """int64 values of the tokens selected by tokens (a slice or ascending
        indices), as int() reads them; raise GraphFormatError naming the line
        of the first one that is not an integer or does not fit.

        Tokens of at most _FAST_DIGITS ASCII digits are summed column by
        column in int32, least significant digit first, at the width of the
        block's codes; every other token goes through int(). The same code
        serves uint8 and uint32 codes: a code below "0" wraps to a large digit.
        """
        starts, ends = self.starts[tokens], self.ends[tokens]
        sizes = ends - starts
        fast = sizes <= _FAST_DIGITS
        value = np.zeros(len(starts), dtype=np.int32)
        at = ends - 1
        for j in range(min(int(sizes.max(initial=0)), _FAST_DIGITS)):
            # past a token's first digit, re-read that digit and add nothing;
            # a sum that a non-digit wraps is replaced by int() below
            digit = self.codes[np.maximum(at, starts)] - 48
            fast &= digit < 10
            digit[sizes <= j] = 0
            value += digit.astype(np.int32) * 10 ** j
            at -= 1
        value = value.astype(np.int64)
        for k in np.flatnonzero(~fast).tolist():
            try:
                value[k] = int(self.text[starts[k]:ends[k]])
            except (ValueError, OverflowError) as exc:
                line = self.line_text(self.lines[tokens][k])
                raise GraphFormatError(f"bad edge line {line!r}") from exc
        return value


def _blocks(text: str) -> Iterator[_Block]:
    """text in pieces of about _TEXT_BLOCK_CHARS characters, each cut just
    after a newline. A newline is a line break and whitespace, so no line or
    token spans two pieces."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _TEXT_BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        yield _Block(text[start:end])
        start = end


def _line_heads(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """(first, counts): the index of the first token of each non-blank line
    of the block, and the number of tokens on that line."""
    lines = block.lines
    opens = np.ones(len(lines), dtype=bool)  # token k is the first of its line
    np.not_equal(lines[1:], lines[:-1], out=opens[1:])
    first = np.flatnonzero(opens)
    return first, np.diff(first, append=len(lines))


def _edge_graph(n: int, m: int, uv: np.ndarray) -> Graph:
    """Graph of a header's n and m and the rows of uv, the 0-based endpoint
    pairs in input order. Rejects an n outside 0.._MAX_VERTICES, a pair count
    other than m, an endpoint outside 0..n-1, a loop and a repeated edge."""
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}")
    if n > _MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit {_MAX_VERTICES}")
    if len(uv) != m:
        raise GraphFormatError(f"header claims {m} edges, found {len(uv)}")
    u, v = uv[:, 0], uv[:, 1]
    # as unsigned, a negative endpoint is at least 2^63: one test covers 0..n-1
    out = (u.view(np.uint64) >= n) | (v.view(np.uint64) >= n)
    bad = np.flatnonzero(out | (u == v))
    if bad.size:
        i = int(bad[0])
        what = f"has an endpoint out of range for n={n}" if out[i] else "is a self-loop"
        raise GraphFormatError(f"edge {i + 1} of {m} {what}")
    rows, count = _rows_from_pairs(n, [(u, v)])
    if count != m:
        raise GraphFormatError("duplicate edges in input")
    return Graph(n, rows, count)


def parse_edge_list(text: str) -> Graph:
    head = None
    ends = []
    for block in _blocks(text):
        first, counts = _line_heads(block)
        skip = 0  # lines before the block's first edge line: the header, once
        if head is None:
            if not first.size:
                continue
            head = block.line_text(block.lines[0])
            parts = head.split()
            if len(parts) != 2:
                raise GraphFormatError(f"bad header {head!r}, expected 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"bad header {head!r}") from exc
            skip = 1
        bad = np.flatnonzero(counts[skip:] != 2)
        if bad.size:
            line = block.lines[first[skip + bad[0]]]
            raise GraphFormatError(f"bad edge line {block.line_text(line)!r}")
        ends.append(block.values(slice(2 * skip, None)))
    if head is None:
        raise GraphFormatError("empty input")
    uv = np.concatenate(ends).reshape(-1, 2)
    del ends
    bad = np.flatnonzero(uv[:, 0] >= uv[:, 1])
    if bad.size:
        u, v = uv[bad[0]]
        raise GraphFormatError(f"edge ({u},{v}) violates u < v")
    return _edge_graph(n, m, uv)


def parse_dimacs(text: str) -> Graph:
    problem = None
    ends = []
    for block in _blocks(text):
        lines = block.lines
        first, counts = _line_heads(block)
        lead = block.codes[block.starts[first]]
        single = block.ends[first] - block.starts[first] == 1
        is_e = single & (lead == ord("e"))
        is_p = single & (lead == ord("p"))
        bad = np.flatnonzero(~(is_e | is_p) & (lead != ord("c")))
        if bad.size:
            raise GraphFormatError(f"unrecognized line {block.line_text(lines[first[bad[0]]])!r}")
        for i in np.flatnonzero(is_p):
            ln = block.line_text(lines[first[i]])
            parts = ln.split()
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"bad problem line {ln!r}")
            try:
                problem = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"bad problem line {ln!r}") from exc
        bad = np.flatnonzero(is_e & (counts != 3))
        if bad.size:
            raise GraphFormatError(f"bad edge line {block.line_text(lines[first[bad[0]]])!r}")
        at = first[is_e]
        ends.append(block.values(np.stack((at + 1, at + 2), axis=1).ravel()))
    if problem is None:
        raise GraphFormatError("missing 'p edge n m' line")
    uv = np.concatenate(ends).reshape(-1, 2)
    del ends
    uv -= 1  # an int64 endpoint that wraps here lands far above n
    return _edge_graph(*problem, uv)


def load_graph(path: str) -> Graph:
    """Read an ASCII graph file, sniffing DIMACS (first non-blank character
    'c' or 'p') vs edge-list. A file that is not ASCII raises
    GraphFormatError."""
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not ASCII text: {exc}") from exc
    lead = re.search(r"\S", text)  # \S is not str.isspace() on ASCII
    if lead and lead.group() in "cp":
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
