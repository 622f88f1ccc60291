"""The benchmark's own output checks, seeds and digests.

Nothing here calls chromres: a change to the program cannot change what
counts as correct, which instances a seed selects, or how results are hashed.
"""

from __future__ import annotations

import hashlib
import json


def instance_seed(*parts) -> int:
    """63-bit seed from SHA-256 of the labelled parts."""
    text = "|".join(str(p) for p in ("perfbench",) + parts)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big") >> 1


def digest(obj) -> str:
    """Short SHA-256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def union_rows(rows, pairs) -> list[int]:
    """Adjacency rows of a graph plus the added pairs."""
    out = list(rows)
    for u, v in pairs:
        out[u] |= 1 << v
        out[v] |= 1 << u
    return out


def coloring_problems(rows, colors, num_colors) -> list[str]:
    """Why colors is not a proper coloring with indices 0..num_colors-1."""
    n = len(rows)
    if len(colors) != n:
        return [f"coloring labels {len(colors)} vertices, graph has {n}"]
    classes = [0] * num_colors
    for v, c in enumerate(colors):
        if not (isinstance(c, int) and 0 <= c < num_colors):
            return [f"vertex {v} has color {c!r} outside 0..{num_colors - 1}"]
        classes[c] |= 1 << v
    problems = [f"color {c} unused" for c, mask in enumerate(classes) if not mask]
    for v, c in enumerate(colors):
        if rows[v] & classes[c]:
            problems.append(f"vertex {v} shares color {c} with a neighbor")
            break
    return problems


def independence_problems(rows, verts) -> list[str]:
    """Why verts is not a set of distinct vertices with no edge inside."""
    n = len(rows)
    mask = 0
    for v in verts:
        if not 0 <= v < n:
            return [f"vertex {v} out of range for n={n}"]
        mask |= 1 << v
    if mask.bit_count() != len(verts):
        return ["repeated vertex"]
    for v in verts:
        if rows[v] & mask:
            return [f"vertex {v} has a neighbor inside the set"]
    return []


def added_edge_problems(rows, pairs, max_degree=None) -> list[str]:
    """Why pairs is not a set of non-edges of rows (with degree <= max_degree)."""
    n = len(rows)
    deg = [0] * n
    for u, v in pairs:
        if not 0 <= u < v < n:
            return [f"pair ({u},{v}) out of range"]
        if (rows[u] >> v) & 1:
            return [f"pair ({u},{v}) is already an edge"]
        deg[u] += 1
        deg[v] += 1
    if max_degree is not None and max(deg, default=0) > max_degree:
        return [f"witness degree {max(deg)} exceeds {max_degree}"]
    return []
