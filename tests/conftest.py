"""Shared graph builders and independent brute-force oracles.

The oracles here deliberately avoid the package's search machinery: subsets
are enumerated by bitmask, colorings by plain recursive assignment in vertex
order, so they stay valid yardsticks for the clever implementations. The
`*_reference` functions generate, write and parse graphs one pair at a time
with Python ints; the differential tests in `test_graph_io.py` hold the
package's array-based versions to them.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from chromres import GnpParams, Graph, GraphFormatError

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


# --- graph I/O reference oracles ---------------------------------------
#
# One pair at a time, Python ints only. from_edges_reference stands in for
# Graph.from_edges so that no oracle goes through the package's array builder.


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
