"""Static checks on the package source and its README."""

from __future__ import annotations

import ast
import glob
import os
import re
import shlex
from dataclasses import fields

from chromres import StripKnobs
from chromres.cli import build_parser
from conftest import SRC

README = os.path.join(os.path.dirname(SRC), "README.md")


def _asserts(path: str) -> list[int]:
    """Line numbers of assert statements: python -O strips every one, an
    `if __debug__:` body included, so a check that must always run cannot
    be one."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_asserts_in_package():
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    found = {os.path.basename(p): lines for p in paths if (lines := _asserts(p))}
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


def _row_codec_calls(path: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every to_bytes / from_bytes call with
    little-endian byte order: the byte layout of an adjacency row."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("to_bytes", "from_bytes")
                    and any(isinstance(a, ast.Constant) and a.value == "little"
                            for a in [*child.args, *(k.value for k in child.keywords)])):
                found.append((child.lineno, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_row_bytes_only_in_graph_codec():
    """Only graph._bits and graph._ints turn rows into bytes or back, so the
    row layout is known in one place (a big-endian hash read is no row)."""
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    calls = {(os.path.basename(p), scope, line) for p in paths
             for line, scope in _row_codec_calls(p)}
    allowed = {("graph.py", "_bits"), ("graph.py", "_ints")}
    assert {call[:2] for call in calls} == allowed, \
        f"little-endian to_bytes/from_bytes outside graph._bits/_ints: {sorted(calls)}"


def _input_check_idioms(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every hand-written parameter check in
    one of the idioms graph._count and graph._real replace: `type(x) is int`
    or `is not int`, `not x > 0`, and a chained range `0 < x < 1` or
    `0 <= x < math.inf` between constant ends."""
    tree = ast.parse(source)

    def zero(node: ast.AST) -> bool:
        return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == 0)

    def upper(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Constant) and type(node.value) in (int, float))
                or (isinstance(node, ast.Attribute) and node.attr == "inf"))

    def idiom(node: ast.AST) -> bool:
        if isinstance(node, ast.Compare):
            if (isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type" and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and isinstance(node.comparators[0], ast.Name)
                    and node.comparators[0].id == "int"):
                return True
            return len(node.ops) == 2 and zero(node.left) and upper(node.comparators[1])
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                and isinstance(node.operand, ast.Compare) and len(node.operand.ops) == 1
                and isinstance(node.operand.ops[0], ast.Gt) and zero(node.operand.comparators[0]))

    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if idiom(child):
                found.append((child.lineno, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_input_checks_only_in_graph_helpers():
    """Only graph._count and graph._real decide what a count or a real
    parameter is, so the input contract lives in one place."""
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    checks = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            checks |= {(os.path.basename(path), scope, line)
                       for line, scope in _input_check_idioms(f.read())}
    allowed = {("graph.py", "_count"), ("graph.py", "_real")}
    outside = sorted(check for check in checks if check[:2] not in allowed)
    assert not outside, f"hand-written count or range checks outside the helpers: {outside}"


def test_input_check_idioms_flags_each_form():
    source = "\n".join([
        "import math",                                    # 1
        "def f(x, p, cap, v, n):",                        # 2
        "    if type(x) is not int or x < 0: pass",       # 3
        "    if type(x) is int: pass",                    # 4
        "    if not x > 0: pass",                         # 5
        "    if not 0.0 < p < 1.0: pass",                 # 6
        "    if not 0 <= cap < math.inf: pass",           # 7
        "    if not 0 <= v < n: pass",                    # 8 fine: a vertex range
        "    if x > 0 or type(x) is float: pass",         # 9 fine
        "    if not x > 1: pass",                         # 10 fine
    ])
    assert [line for line, _ in _input_check_idioms(source)] == [3, 4, 5, 6, 7]


def _lowest_bit_walks(path: str) -> list[tuple[int, str]]:
    """(line, scope) of every `x & -x` in the file, the lowest set bit of x;
    scope is the module-level function or Class.method that holds it."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.BitAnd)
                    and isinstance(child.right, ast.UnaryOp)
                    and isinstance(child.right.op, ast.USub)
                    and ast.dump(child.left) == ast.dump(child.right.operand)):
                found.append((child.lineno, scope))
            inner = scope
            if not in_function and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner, in_function or isinstance(child, ast.FunctionDef))

    visit(tree, "", False)
    return found


def test_mask_members_only_in_graph_members():
    """Only graph._members walks a mask's lowest bits to list its members; the
    two walks left change or cut the mask as they go (max_independent_set's
    class loop, the bounded-subset search's first-dominated-vertex check)."""
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    walks = {(os.path.basename(p), scope, line) for p in paths
             for line, scope in _lowest_bit_walks(p)}
    allowed = {("graph.py", "_members"), ("isets.py", "max_independent_set"),
               ("adversary.py", "_maximal_bounded_subsets")}
    assert {walk[:2] for walk in walks} == allowed, \
        f"`x & -x` walks outside the allowed three: {sorted(w for w in walks if w[:2] not in allowed)}"


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


def test_cli_attack_uses_the_strategy_table():
    """`chromres attack` reaches the adversaries through lab.STRATEGIES, so
    the CLI and a sweep row read a strategy's parameters the same way."""
    path = os.path.join(SRC, "chromres", "cli.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert not called & {"plant_clique", "random_budget", "bounded_degree_h"}
    assert "STRATEGIES" in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _function(path: str, name: str) -> ast.FunctionDef:
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _pairs_reads(node: ast.AST) -> list[int]:
    """Lines under node that read added.pairs."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == "pairs"
            and isinstance(n.value, ast.Name) and n.value.id == "added"]


def test_strip_color_reads_added_pairs_once():
    """A stripping call turns the added pairs into an array once, when it
    builds its isets._StripSearch: a round that walks added.pairs again pays
    for every pair each round."""
    fn = _function(os.path.join(SRC, "chromres", "coloring.py"), "strip_color")
    loops = [node for node in fn.body if isinstance(node, ast.While)]
    assert loops, "strip_color has no round loop"
    inside = [line for loop in loops for line in _pairs_reads(loop)]
    assert not inside, f"added.pairs read inside the round loop at lines {inside}"
    path = os.path.join(SRC, "chromres", "isets.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    search = next((node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_StripSearch"), None)
    assert search is not None, "isets has no _StripSearch"
    reads = _pairs_reads(search)
    init = next(node for node in search.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert len(reads) == 1 and reads == _pairs_reads(init), \
        f"_StripSearch reads added.pairs at lines {reads}, not once in __init__"


def test_coloring_leaves_pair_keys_to_isets():
    """A stripping call's word matrix, added-pair array, alpha bound and
    families belong to one isets._StripSearch, so their arrays are one
    module's business: coloring imports no numpy, and neither imports nor
    names the helpers that pack rows, pick on the matrix, or enumerate,
    key, cap or pick a family."""
    path = os.path.join(SRC, "chromres", "coloring.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy" not in modules
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    named = [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    helpers = {"_pair_keys", "_capped", "_sparsest", "_enumerate_sets", "np", "_bits", "_words",
               "_WIDE_PICK", "_turan", "_family", "_sparse_pick"}
    assert not helpers & set(imported + named), sorted(helpers & set(imported + named))


def test_cap_and_pick_do_not_sort():
    """isets._capped counts a family's pair index with a bincount and
    isets._sparsest looks it up in a table: a sort in either is paid every
    stripping round."""
    path = os.path.join(SRC, "chromres", "isets.py")
    for name in ("_capped", "_sparsest"):
        called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                  for node in ast.walk(_function(path, name)) if isinstance(node, ast.Call)
                  and isinstance(node.func, (ast.Name, ast.Attribute))}
        sorts = called & {"unique", "searchsorted", "sort", "argsort", "sorted"}
        assert not sorts, f"{name} calls {sorted(sorts)}"


def test_numpy_floor_admits_bitwise_count():
    """The package calls np.bitwise_count, which NumPy added in 2.0: the
    floor declared in pyproject.toml, and named on README's install line,
    must not admit an older numpy."""
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as f:
        floor = re.search(r'"numpy>=([0-9.]+)"', f.read())
    assert floor, "pyproject.toml declares no numpy>= floor"
    calls = []
    for path in sorted(glob.glob(os.path.join(SRC, "chromres", "*.py"))):
        with open(path, encoding="utf-8") as f:
            if "bitwise_count" in f.read():
                calls.append(path)
    if calls:
        version = tuple(int(part) for part in floor.group(1).split("."))
        assert version >= (2, 0), f"numpy>={floor.group(1)} admits a numpy without " \
            f"bitwise_count, which {[os.path.basename(p) for p in calls]} call"
    with open(README, encoding="utf-8") as f:
        install = next(line for line in f if line.startswith("pip install -e . "))
    assert f"numpy >= {floor.group(1)}" in install


def test_isets_does_not_import_combinations():
    """The family layer runs on arrays: no itertools.combinations walk."""
    path = os.path.join(SRC, "chromres", "isets.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "combinations" not in imported and "itertools" not in imported


def _unseeded_randomness(source: str) -> list[int]:
    """Line numbers where the module draws randomness other than through a
    random.Random built inside a function from a constant (a literal, or a
    module name bound once to a literal): any other random.* use, an import
    from random or an alias of it, and any np.random / numpy.random."""
    tree = ast.parse(source)
    bindings: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(node.value)
    constants = {name for name, values in bindings.items()
                 if len(values) == 1 and isinstance(values[0], ast.Constant)}
    seeded = set()  # the random.Random attribute nodes of allowed calls
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "Random" and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "random" and len(call.args) == 1
                        and not call.keywords
                        and (isinstance(call.args[0], ast.Constant)
                             or (isinstance(call.args[0], ast.Name)
                                 and call.args[0].id in constants))):
                    seeded.add(id(call.func))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "random" and id(node) not in seeded:
                bad.append(node.lineno)
            elif node.value.id in ("np", "numpy") and node.attr == "random":
                bad.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy", "numpy.random"):
            if node.module != "numpy" or any(a.name == "random" for a in node.names):
                bad.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == "numpy.random" or (a.name == "random" and a.asname)
                   for a in node.names):
                bad.append(node.lineno)
    return sorted(bad)


def test_coloring_draws_randomness_only_from_a_constant_seed():
    """coloring.py's only randomness is TabuCol's tie-breaking stream, a
    random.Random built in the function from a constant, so every result
    stays a function of the arguments (README, determinism conventions)."""
    path = os.path.join(SRC, "chromres", "coloring.py")
    with open(path, encoding="utf-8") as f:
        assert _unseeded_randomness(f.read()) == []


def test_unseeded_randomness_check_flags_each_form():
    source = "\n".join([
        "import random",                          # 1 fine
        "import numpy as np",                     # 2 fine
        "SEED = 7",                               # 3
        "BAD = []",                               # 4
        "def ok():",                              # 5
        "    return random.Random(SEED), random.Random(3)",  # 6 fine
        "def bad(x):",                            # 7
        "    random.shuffle(x)",                  # 8
        "    return random.Random(x), random.Random(BAD)",   # 9, 9
        "rng = random.Random(1)",                 # 10 module level
        "gen = np.random.default_rng(0)",         # 11
        "from random import choice",              # 12
        "import random as r",                     # 13
        "from numpy import random",               # 14
    ])
    assert _unseeded_randomness(source) == [8, 9, 9, 10, 11, 12, 13, 14]


def _size_limit_raises(path: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every SizeLimitError(...) call."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "SizeLimitError"):
                found.append((child.lineno, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_size_limit_error_built_only_in_one_guard():
    """isets._within raises every SizeLimitError, so each exact search's
    size check and its message live in one place."""
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    raises = {(os.path.basename(p), scope, line) for p in paths
              for line, scope in _size_limit_raises(p)}
    assert {r[:2] for r in raises} == {("isets.py", "_within")}, \
        f"SizeLimitError built outside isets._within: {sorted(raises)}"


def test_alpha_limit_read_only_in_isets():
    """max_independent_set's default limit is its own: a caller that wants to
    know whether the search takes a mask calls it and catches SizeLimitError."""
    paths = sorted(glob.glob(os.path.join(SRC, "chromres", "*.py")))
    assert paths
    readers = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            if "_ALPHA_LIMIT" in f.read():
                readers.append(os.path.basename(path))
    assert readers == ["isets.py"]


def test_lab_leaves_exact_limit_to_chromatic_exact():
    """run_row passes exact_limit to chromatic_exact and catches its
    SizeLimitError; no comparison in lab.py repeats the guard."""
    path = os.path.join(SRC, "chromres", "lab.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
                if (isinstance(operand, ast.Attribute) and operand.attr == "exact_limit")
                or (isinstance(operand, ast.Name) and operand.id == "exact_limit")]
    assert not compared, f"exact_limit compared in lab.py at lines {compared}"


def test_package_exports_no_oracle_wrappers():
    """Each resilience oracle has one entry point, its *_witness function."""
    import chromres

    assert [name for name in dir(chromres) if name.endswith("_oracle")] == []
