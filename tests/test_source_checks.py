"""Static checks on the package source."""

from __future__ import annotations

import ast
import glob
import os

from conftest import SRC


def _bare_asserts(path: str) -> list[int]:
    """Line numbers of assert statements outside an `if __debug__:` body;
    python -O strips those, so a check that must always run cannot be one."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "__debug__":
            for stmt in node.body:
                guarded.update(map(id, ast.walk(stmt)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert) and id(node) not in guarded]


def test_no_bare_asserts_in_package():
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    found = {os.path.basename(p): lines for p in paths if (lines := _bare_asserts(p))}
    assert not found, f"assert statements that python -O would strip: {found}"
