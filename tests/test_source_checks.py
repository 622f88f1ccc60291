"""Static checks on the package source and its README."""

from __future__ import annotations

import ast
import glob
import os
import shlex
from dataclasses import fields

from chromres import StripKnobs
from chromres.cli import build_parser
from conftest import SRC

README = os.path.join(os.path.dirname(SRC), "README.md")


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


def _nan_blind_guards(path: str) -> list[int]:
    """Line numbers of comparisons `x <= 0.0`: NaN fails every comparison, so
    such a guard lets a NaN through where `not x > 0` rejects it."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for op, right in zip(node.ops, node.comparators)
            if isinstance(op, ast.LtE) and isinstance(right, ast.Constant)
            and type(right.value) is float and right.value == 0.0]


def test_no_nan_blind_positivity_guard():
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    found = {os.path.basename(p): lines for p in paths if (lines := _nan_blind_guards(p))}
    assert not found, f"`<= 0.0` guards that a NaN passes: {found}"


def test_every_strip_knob_is_read():
    """Each StripKnobs field is read as `knobs.<field>` in coloring.py, so a
    knob that nothing reads cannot stay settable."""
    path = os.path.join(SRC, "chromres", "coloring.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "knobs"}
    unread = {f.name for f in fields(StripKnobs)} - read
    assert not unread, f"StripKnobs fields nothing reads: {sorted(unread)}"


def test_readme_cli_lines_parse():
    """Every `chromres ...` line of README's CLI block names only subcommands
    and flags the parser accepts, so a removed flag cannot linger there."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("chromres ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
