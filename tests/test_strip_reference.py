"""strip_color and the family layer against their one-tuple-at-a-time
references in conftest.

strip_color_reference runs every ladder step from k_target down with a fresh
recursive enumeration: no alpha-bound start and no family carried from an
earlier round. strip_color must give the same coloring and the same trace
(rounds, flags, buckets) on every route: family, enum, exact-alpha and
greedy. The family layer's public functions must give the references'
sets, coverage (in the same key order, which `chromres isets` prints),
cap accounting and sparse member. The differential runs once more with every
minimum-degree pick on the word matrix, and one G(300) call pins both
shortcuts of a round (matrix picks, skipped sizing extracts) to the output
recorded without them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import warnings
from unittest import mock

from hypothesis import given, settings, strategies as st

from chromres import (
    EdgeSet,
    GnpParams,
    RegimeWarning,
    StripKnobs,
    bounded_degree_h,
    build_profile,
    enumerate_isets,
    generate_gnp,
    plant_clique,
    random_budget,
    sparse_iset,
    strip_color,
    uniform_family,
)
from chromres import coloring, isets
from conftest import (
    coverage_reference,
    sparse_iset_reference,
    strip_color_reference,
    uniform_family_reference,
)


def _added(g, strategy: str, rng: random.Random) -> EdgeSet:
    if strategy == "plant_clique":
        return plant_clique(g, rng.sample(range(g.n), rng.randint(2, g.n // 4)))
    if strategy == "random_budget":
        return random_budget(g, rng.randint(0, min(300, len(g.non_edges()))), rng.randrange(1000))
    if strategy == "bounded_degree":
        return bounded_degree_h(g.n, rng.randint(1, 4), rng.randrange(1000))[0]
    return EdgeSet(frozenset())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_strip_color_matches_reference(seed):
    _check_against_reference(seed)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_strip_color_with_every_pick_on_the_matrix_matches_reference(seed):
    # these graphs (n <= 160) rarely reach a pick wider than the default
    with mock.patch.object(isets, "_WIDE_PICK", 0):
        _check_against_reference(seed)


def _check_against_reference(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(30, 160)
    p = rng.choice([0.3, 0.5, 0.7])
    # 0 sends every round to the greedy route, the others let the family and
    # enum routes run; the small budgets blow and take exact-alpha. At
    # p = 0.3 and s = 130 the reference's Python DFS needs seconds a call.
    limit = rng.choice([0, 60, 100] if p == 0.3 else [0, 60, 100, 130])
    knobs = StripKnobs(variant=rng.choice(["global", "global", "local"]),
                       family_size_limit=limit,
                       node_budget=rng.choice([2_000_000, 20_000, 500]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        g = generate_gnp(GnpParams(n, p, rng.randrange(1000)))
        profile = build_profile(n, p, 1.0)
    added = _added(g, rng.choice(["none", "plant_clique", "random_budget", "bounded_degree"]), rng)
    coloring, trace = strip_color(g, added, 1.0, profile, knobs)
    ref_coloring, ref_trace = strip_color_reference(g, added, 1.0, profile, knobs)
    assert coloring == ref_coloring
    assert trace.to_json() == ref_trace.to_json()


# SHA-256 of json.dumps([colors, trace.to_json()]) for G(300, 1/2) seed 5 with
# the lab's default planted clique, recorded when every pick scanned and every
# round ran its sizing extract.
PINNED_G300 = "7dfd1455ba6ccb96078346b8d6ae95312116a99a48ceb775fe42fc03927e45c2"


def test_strip_color_takes_matrix_picks_and_skips_sizing_extracts(monkeypatch):
    """Both shortcuts of a stripping round run on G(300, 1/2), and the
    output stays the one recorded without them: the greedy rounds' sizing
    extracts pick on the word matrix (each such pick packs its mask with
    graph._words), and a family round whose alpha bound is down to k_target
    runs no sizing extract."""
    n, p = 300, 0.5
    g = generate_gnp(GnpParams(n, p, 5))
    added = plant_clique(g, range(math.ceil(n / (math.log(n * p) / math.log(1 / (1 - p))))))
    packed, sizing = [], []
    words, turan = isets._words, coloring._turan
    monkeypatch.setattr(isets, "_words", lambda bits: packed.append(bits) or words(bits))
    monkeypatch.setattr(coloring, "_turan",
                        lambda *args: sizing.append(args[1]) or turan(*args))
    col, trace = strip_color(g, added, 1.0, build_profile(n, p, 1.0))
    assert packed, "no sizing extract picked on the word matrix"
    assert len(sizing) < len(trace.rounds), "every round ran its sizing extract"
    out = json.dumps([list(col.colors), trace.to_json()]).encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_G300


def test_word_matrix_is_built_only_when_a_pick_can_use_it(monkeypatch):
    # n = 100 <= _WIDE_PICK: every mask is narrow and every pick scans, so
    # the call builds no matrix, unless _WIDE_PICK is lowered at call time
    n, p = 100, 0.5
    g = generate_gnp(GnpParams(n, p, 3))
    added = plant_clique(g, range(10))
    built = []
    words = coloring._words
    monkeypatch.setattr(coloring, "_words", lambda bits: built.append(bits) or words(bits))
    plain = strip_color(g, added, 1.0, build_profile(n, p, 1.0))
    assert not built
    monkeypatch.setattr(isets, "_WIDE_PICK", 0)
    assert strip_color(g, added, 1.0, build_profile(n, p, 1.0)) == plain
    assert len(built) == 1


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_family_layer_matches_references(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    g = generate_gnp(GnpParams(n, rng.choice([0.1, 0.3, 0.5]), rng.randrange(1000)))
    fam = enumerate_isets(g, rng.randint(1, 5), within=rng.getrandbits(n))
    assert list(fam.coverage.items()) == list(coverage_reference(list(fam.sets)).items())
    caps = sorted(set(fam.coverage.values()) | {0})
    for cap in [0, rng.choice(caps) + rng.choice([0, 0.5]), max(caps)]:
        capped = uniform_family(fam, cap)
        ref = uniform_family_reference(fam, cap)
        assert capped == ref
        assert list(capped.coverage.items()) == list(ref.coverage.items())
    members = sorted({v for s in fam.sets for v in s})
    if len(members) >= 2:
        e = EdgeSet.from_pairs(tuple(rng.sample(members, 2)) for _ in range(rng.randint(0, 30)))
        for family in (fam, capped):
            if family.sets:
                assert sparse_iset(family, e) == sparse_iset_reference(family, e)
