"""Golden digests of strip_color outputs.

tests/data/strip_golden.json holds, for each instance below, SHA-256
digests of the coloring, the round records, the fidelity flags (one
enumeration-budget flag per blown enumeration) and the bucket counts. Any
change to the stripping core must leave them bit-identical. To re-record
after an intended output change:

    PYTHONPATH=src python tests/test_strip_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from chromres import (
    EdgeSet,
    GnpParams,
    StripKnobs,
    build_profile,
    generate_gnp,
    plant_clique,
    strip_color,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "strip_golden.json")
P = 0.5


def _default_clique(g) -> EdgeSet:
    # the lab's default clique size, t = ceil(n / log_b(np)) with b = 1/(1-p)
    t = math.ceil(g.n / (math.log(g.n * P) / math.log(1.0 / (1.0 - P))))
    return plant_clique(g, range(t))


def _instances():
    for n in (100, 150, 200, 300):
        yield f"plant_clique n={n}", n, StripKnobs()
    yield "G(60) family_size_limit=0", 60, StripKnobs(family_size_limit=0)
    yield "G(40) node_budget=10", 40, StripKnobs(node_budget=10)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("ascii")).hexdigest()


def _run(n: int, knobs: StripKnobs):
    g = generate_gnp(GnpParams(n, P, 1))
    coloring, trace = strip_color(g, _default_clique(g), 1.0, build_profile(n, P, 1.0), knobs)
    record = {
        "colors": _digest(coloring.colors),
        "rounds": _digest(trace.rounds),
        "fidelity_flags": _digest(trace.fidelity_flags),
        "bucket_counts": _digest(trace.bucket_counts),
    }
    return record, {r[2] for r in trace.rounds}


def test_strip_color_matches_golden_digests():
    with open(GOLDEN, encoding="ascii") as f:
        golden = json.load(f)
    routes = set()
    assert sorted(golden) == sorted(name for name, _, _ in _instances())
    for name, n, knobs in _instances():
        record, seen = _run(n, knobs)
        assert record == golden[name], name
        routes |= seen
    assert routes == {"greedy", "family", "enum", "exact-alpha"}


if __name__ == "__main__":
    out = {name: _run(n, knobs)[0] for name, n, knobs in _instances()}
    with open(GOLDEN, "w", encoding="ascii") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
