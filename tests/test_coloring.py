from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from chromres import (
    Coloring,
    EdgeSet,
    GnpParams,
    Graph,
    SizeLimitError,
    StripKnobs,
    build_profile,
    chromatic_exact,
    degeneracy_color,
    dsatur,
    find_coloring,
    generate_gnp,
    max_independent_set,
    plant_clique,
    strip_color,
    union,
    verify_coloring,
)
from chromres import coloring as coloring_module, isets
from conftest import brute_chromatic, brute_colorable, path, petersen, verify_coloring_reference


def gnp(n, p, seed):
    return generate_gnp(GnpParams(n, p, seed))


NO_EDGES = EdgeSet(frozenset())


class TestChromaticExact:
    def test_known_values(self):
        assert chromatic_exact(Graph.cycle(5)) == 3
        assert chromatic_exact(Graph.complete(4)) == 4

    def test_petersen_against_exhaustive(self):
        g = petersen()
        # oracle: plain recursive search says 3 colors suffice, 2 do not
        assert not brute_colorable(g, 2)
        assert brute_colorable(g, 3)
        assert chromatic_exact(g) == 3

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_brute_force(self, p):
        for seed in range(10):
            g = gnp(10, p, seed)
            assert chromatic_exact(g) == brute_chromatic(g)

    def test_monotone_under_addition(self):
        rng = random.Random(3)
        for trial in range(50):
            g = gnp(rng.randint(4, 10), 0.5, trial)
            non_edges = g.non_edges()
            if not non_edges:
                continue
            picked = rng.sample(non_edges, min(3, len(non_edges)))
            h = union(g, EdgeSet.from_pairs(picked))
            assert chromatic_exact(h) >= chromatic_exact(g)

    def test_product_bound(self):
        rng = random.Random(9)
        for trial in range(50):
            n = rng.randint(4, 12)
            g = gnp(n, 0.4, trial)
            h = gnp(n, 0.4, trial + 500)
            both = union(g, EdgeSet.from_pairs(h.edges()))
            assert chromatic_exact(both) <= chromatic_exact(g) * chromatic_exact(h)

    def test_alpha_lower_bound(self):
        for seed in range(20):
            g = gnp(12, 0.5, seed)
            alpha = len(max_independent_set(g))
            assert chromatic_exact(g) >= math.ceil(g.n / alpha)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            chromatic_exact(Graph.empty(50), limit=40)

    def test_no_vertices(self):
        assert chromatic_exact(Graph.empty(0)) == 0


class TestFindColoring:
    def test_below_chromatic_is_none(self):
        assert find_coloring(Graph.cycle(5), 2) is None
        assert find_coloring(Graph.complete(4), 3) is None

    def test_at_chromatic_is_proper(self):
        c = find_coloring(Graph.cycle(5), 3)
        assert c is not None and verify_coloring(Graph.cycle(5), c)

    @pytest.mark.parametrize("k", [0, 3])
    def test_no_vertices(self, k):
        assert find_coloring(Graph.empty(0), k) == Coloring((), 0)


class TestDsatur:
    def test_empty_graph_one_color(self):
        c = dsatur(Graph.empty(5))
        assert c.num_colors == 1

    def test_complete(self):
        assert dsatur(Graph.complete(5)).num_colors == 5

    def test_no_vertices(self):
        assert dsatur(Graph.empty(0)) == Coloring((), 0)

    def test_c5_exact(self):
        c = dsatur(Graph.cycle(5))
        assert c.num_colors == 3
        assert verify_coloring(Graph.cycle(5), c)

    def test_proper_and_deterministic(self):
        for seed in range(10):
            g = gnp(40, 0.5, seed)
            c1, c2 = dsatur(g), dsatur(g)
            assert c1 == c2
            assert verify_coloring(g, c1)


class TestDegeneracyColor:
    def test_tree(self):
        c, degeneracy = degeneracy_color(path(8))
        assert degeneracy == 1 and c.num_colors <= 2
        assert verify_coloring(path(8), c)

    def test_complete(self):
        c, degeneracy = degeneracy_color(Graph.complete(5))
        assert degeneracy == 4 and c.num_colors == 5

    def test_no_vertices(self):
        assert degeneracy_color(Graph.empty(0)) == (Coloring((), 0), 0)

    def test_c5(self):
        c, degeneracy = degeneracy_color(Graph.cycle(5))
        assert degeneracy == 2 and c.num_colors <= 3
        assert verify_coloring(Graph.cycle(5), c)

    def test_bound_on_random(self):
        for seed in range(10):
            g = gnp(30, 0.4, seed)
            c, degeneracy = degeneracy_color(g)
            assert c.num_colors <= degeneracy + 1
            assert verify_coloring(g, c)


class TestVerifyColoring:
    def test_monochromatic_edge(self):
        k2 = Graph.complete(2)
        assert not verify_coloring(k2, Coloring((0, 0), 1))

    def test_proper_pair(self):
        assert verify_coloring(Graph.complete(2), Coloring((0, 1), 2))

    def test_dsatur_output(self):
        c5 = Graph.cycle(5)
        assert verify_coloring(c5, dsatur(c5))

    def test_gap_in_colors_rejected(self):
        assert not verify_coloring(Graph.empty(2), Coloring((0, 2), 3))

    def test_missing_vertex_raises(self):
        with pytest.raises(ValueError):
            verify_coloring(Graph.empty(3), Coloring((0, 0), 1))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["proper", "improper", "gap", "short", "none"]))
    def test_matches_edge_by_edge_reference(self, seed, kind):
        rng = random.Random(seed)
        n = rng.randint(0, 30)
        g = gnp(n, rng.choice([0.1, 0.5, 0.9]), rng.randrange(1000)) if n else Graph.empty(0)
        colors = list(dsatur(g).colors)
        num = max(colors, default=-1) + 1
        if kind == "improper" or (kind == "none" and rng.random() < 0.5):
            num = rng.randint(1, 4)
            colors = [rng.randrange(num) for _ in range(n)]
        if kind == "gap" and n:
            colors = [c + (c >= num // 2) for c in colors]
        elif kind == "short" and n:
            del colors[rng.randrange(n)]
        elif kind == "none" and n:
            for v in rng.sample(range(n), rng.randint(1, min(3, n))):
                colors[v] = None

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError as exc:
                return str(exc)

        assert outcome(verify_coloring, g, Coloring(tuple(colors), num)) == \
            outcome(verify_coloring_reference, g, colors, num)


class TestStripColor:
    def test_empty_base_single_color(self):
        base = Graph.empty(10)
        profile = build_profile(10, 0.5, 1.0)
        coloring, trace = strip_color(base, NO_EDGES, 1.0, profile)
        assert coloring.num_colors == 1
        assert verify_coloring(base, coloring)
        assert sum(trace.bucket_counts) + trace.residual_colors == 1

    def test_gnp60_bounds(self):
        base = gnp(60, 0.5, 11)
        profile = build_profile(60, 0.5, 1.0)
        coloring, trace = strip_color(base, NO_EDGES, 1.0, profile)
        assert verify_coloring(base, coloring)
        lower = math.ceil(60 / len(max_independent_set(base)))
        assert lower <= coloring.num_colors <= 3 * dsatur(base).num_colors
        assert sum(trace.bucket_counts) + trace.residual_colors == coloring.num_colors

    def test_planted_clique_floor(self):
        base = gnp(60, 0.5, 11)
        added = plant_clique(base, range(10))
        profile = build_profile(60, 0.5, 1.0)
        coloring, _ = strip_color(base, added, 1.0, profile)
        assert verify_coloring(union(base, added), coloring)
        assert coloring.num_colors >= 10

    def test_deterministic(self):
        base = gnp(50, 0.5, 4)
        added = plant_clique(base, range(8))
        profile = build_profile(50, 0.5, 1.0)
        a = strip_color(base, added, 1.0, profile)
        b = strip_color(base, added, 1.0, profile)
        assert a == b

    def test_local_variant_threshold(self):
        base = gnp(60, 0.5, 3)
        profile = build_profile(60, 0.5, 1.0)
        knobs = StripKnobs(variant="local")
        coloring, trace = strip_color(base, NO_EDGES, 1.0, profile, knobs)
        assert verify_coloring(base, coloring)
        assert trace.residual_threshold == pytest.approx(60 / math.log(60) ** 2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            StripKnobs(variant="bogus")

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_needs_positive_epsilon(self, epsilon):
        profile = build_profile(20, 0.5, 1.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            strip_color(gnp(20, 0.5, 1), NO_EDGES, epsilon, profile)

    def test_requires_usable_profile(self):
        profile = build_profile(10, 0.05, 1.0)  # np = 0.5: k absent
        with pytest.raises(ValueError):
            strip_color(Graph.empty(10), NO_EDGES, 1.0, profile)

    def test_profile_graph_mismatch(self):
        profile = build_profile(20, 0.5, 1.0)
        with pytest.raises(ValueError):
            strip_color(Graph.empty(10), NO_EDGES, 1.0, profile)

    def test_added_pair_out_of_range(self):
        profile = build_profile(20, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"pair \(3,20\) out of range for n=20"):
            strip_color(gnp(20, 0.5, 1), EdgeSet.from_pairs([(3, 20)]), 1.0, profile)

    # threshold eps * 20 / (16 log 10): 54.3 at eps = 100, and infinite at
    # 1e308, where eps * n overflows
    @pytest.mark.parametrize("epsilon", [100.0, 1e308])
    def test_threshold_above_n_leaves_everything_to_the_residue(self, epsilon):
        base = gnp(20, 0.5, 0)
        coloring, trace = strip_color(base, NO_EDGES, epsilon, build_profile(20, 0.5, 1.0))
        assert trace.residual_threshold > 20
        assert trace.i0 == 0 and trace.bucket_counts == () and trace.rounds == ()
        assert trace.residual_colors == coloring.num_colors
        assert coloring == degeneracy_color(base)[0]

    def test_greedy_fallback_flagged(self):
        base = gnp(60, 0.5, 2)
        profile = build_profile(60, 0.5, 1.0)
        knobs = StripKnobs(family_size_limit=0)  # force the greedy route
        coloring, trace = strip_color(base, NO_EDGES, 1.0, profile, knobs)
        assert verify_coloring(base, coloring)
        assert any(flag.startswith("greedy-fallback") for flag in trace.fidelity_flags)
        assert all(route == "greedy" for _, _, route, _, _ in trace.rounds)

    def test_exact_alpha_fallback_when_enumeration_blows(self):
        base = gnp(40, 0.5, 6)
        added = plant_clique(base, range(6))
        profile = build_profile(40, 0.5, 1.0)
        knobs = StripKnobs(node_budget=10)  # enumeration can never finish
        coloring, trace = strip_color(base, added, 1.0, profile, knobs)
        assert verify_coloring(union(base, added), coloring)
        assert any(route == "exact-alpha" for _, _, route, _, _ in trace.rounds)
        assert any(flag.startswith("exact-alpha-fallback")
                   for flag in trace.fidelity_flags)

    def test_blown_enumeration_above_the_alpha_limit_goes_greedy(self):
        # max_independent_set refuses the 130- and 121-vertex remainders with
        # SizeLimitError, so those rounds take the greedy route; the third
        # round's 112 vertices are within its default limit of 120
        base = gnp(130, 0.5, 6)
        profile = build_profile(130, 0.5, 1.0)
        knobs = StripKnobs(family_size_limit=130, node_budget=10)
        coloring, trace = strip_color(base, NO_EDGES, 1.0, profile, knobs)
        assert verify_coloring(base, coloring)
        assert [(s, route) for s, _, route, _, _ in trace.rounds[:3]] == \
            [(130, "greedy"), (121, "greedy"), (112, "exact-alpha")]
        assert trace.fidelity_flags[:6] == (
            "enumeration-budget@s=130", "greedy-fallback@s=130",
            "enumeration-budget@s=121", "greedy-fallback@s=121",
            "enumeration-budget@s=112", "exact-alpha-fallback@s=112")

    def test_trace_json(self):
        base = gnp(30, 0.5, 1)
        profile = build_profile(30, 0.5, 1.0)
        _, trace = strip_color(base, NO_EDGES, 1.0, profile)
        d = trace.to_json()
        assert d["i0"] == trace.i0
        assert sum(d["bucket_counts"]) + d["residual_colors"] == \
            sum(trace.bucket_counts) + trace.residual_colors


def test_ladder_starts_at_proven_alpha_bound(monkeypatch):
    # plant_clique G(150) with the lab's default clique (t = 22)
    base = gnp(150, 0.5, 1)
    added = plant_clique(base, range(22))
    calls = []  # (size, k, found) for every ladder step, fresh or restricted
    fresh = []  # k of every fresh enumeration
    real = isets._enumerate_sets
    real_family = coloring_module._family

    def spy(rows, within, k, *args, **kwargs):
        sets = real(rows, within, k, *args, **kwargs)
        fresh.append(k)
        return sets

    def family_spy(rows, within, alive, added_uv, k, node_budget, last):
        family, cache = real_family(rows, within, alive, added_uv, k, node_budget, last)
        calls.append((within.bit_count(), k, family is not None))
        return family, cache

    monkeypatch.setattr(isets, "_enumerate_sets", spy)
    monkeypatch.setattr(coloring_module, "_family", family_spy)
    _, trace = strip_color(base, added, 1.0, build_profile(150, 0.5, 1.0))
    # later rounds at a size already enumerated filter that family
    assert len(fresh) == len(set(fresh))
    proven = None  # smallest size proven empty so far
    for _, k, found in calls:
        assert proven is None or k < proven
        if not found:
            proven = k
    # the steps the old ladder ran from k_target down, all of them empty
    skipped = 0
    for s, k_target, route, _, _ in trace.rounds:
        if route in ("family", "enum"):
            first_k = next(k for size, k, _ in calls if size == s)
            skipped += k_target - first_k
    empty = sum(1 for _, _, found in calls if not found)
    assert skipped > 0
    assert empty / len(calls) < (empty + skipped) / (len(calls) + skipped)
