"""Shared graph builders and independent brute-force oracles.

The oracles here deliberately avoid the package's search machinery: subsets
are enumerated by bitmask, colorings by plain recursive assignment in vertex
order, so they stay valid yardsticks for the clever implementations.
"""

from __future__ import annotations

import os
import subprocess
import sys

from chromres import Graph

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
