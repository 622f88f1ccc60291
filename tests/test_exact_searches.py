"""The exact searches return exactly what their first-fit, full-scan
references in conftest return: the same maximum independent set (a search
that branches in another order finds another set of the same size), the same
k-coloring or None, and the same DSATUR coloring."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from chromres import (
    GnpParams,
    Graph,
    SizeLimitError,
    chromatic_exact,
    dsatur,
    find_coloring,
    generate_gnp,
    max_independent_set,
    turan_extract,
)
from chromres import coloring
from conftest import (
    brute_chromatic,
    count_coloring_nodes_reference,
    dsatur_reference,
    find_coloring_reference,
    max_independent_set_reference,
)

DIFF = settings(max_examples=120, derandomize=True, deadline=None)


def _gnp(n: int, p: float, seed: int) -> Graph:
    return generate_gnp(GnpParams(n, p, seed))


def _scattered(n: int, count: int, seed: int) -> int:
    """Mask of `count` labels drawn from 0..n-1, weighted toward the top."""
    rng = random.Random(seed)
    labels = rng.sample(range(n // 3, n), min(count, n - n // 3))
    return sum(1 << v for v in labels)


# (n, p, vertices in the mask; None for the whole graph). (80, 0.2, None)
# takes both outcomes of max_independent_set's first walk: the turan_extract
# set (17 members) is maximum at seed 2 and one short of alpha at seed 1.
MIS_CASES = [
    (200, 0.1, 0), (200, 0.1, 1), (200, 0.1, 45),
    (200, 0.5, 0), (200, 0.5, 1), (200, 0.5, 110),
    (200, 0.9, 1), (200, 0.9, 120),
    (120, 0.5, None), (80, 0.2, None), (60, 0.3, None), (40, 0.9, None), (30, 0.1, None),
]


@pytest.mark.parametrize("n,p,count", MIS_CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_max_independent_set_matches_reference(n, p, count, seed):
    g = _gnp(n, p, seed)
    within = None if count is None else _scattered(n, count, seed)
    assert max_independent_set(g, limit=200, within=within) == \
        max_independent_set_reference(g, limit=200, within=within)


def test_mis_cases_take_both_outcomes_of_the_first_walk():
    """MIS_CASES keeps a case where the turan_extract set is maximum (and is
    the result) and one where alpha is larger (and the second walk takes the
    witness), so the differential above checks both."""
    larger = set()
    for n, p, count in MIS_CASES:
        for seed in (1, 2):
            g = _gnp(n, p, seed)
            within = None if count is None else _scattered(n, count, seed)
            alpha = len(max_independent_set(g, limit=200, within=within))
            larger.add(alpha > len(turan_extract(g, within)))
    assert larger == {False, True}


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_reference_records_one_set_from_any_start_below_alpha(seed):
    """The lemma max_independent_set's second walk rests on: from no set and
    any starting bound below alpha, the reference records the same set, the
    first maximum set in its branching order; when the turan_extract set is
    not maximum, that is also its result from the turan_extract start."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    g = _gnp(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng.randrange(10**6))
    within = rng.getrandbits(n) if rng.random() < 0.7 else None
    default = max_independent_set_reference(g, limit=n, within=within)
    alpha, greedy = len(default), len(turan_extract(g, within))
    starts = {0, alpha - 1} | ({greedy} if greedy < alpha else set())
    found = {max_independent_set_reference(g, limit=n, within=within, start=b)
             for b in starts}
    assert len(found) == 1
    assert len(next(iter(found))) == alpha
    if greedy < alpha:
        assert found == {default}


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_max_independent_set_matches_reference_on_small_masks(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    g = _gnp(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng.randrange(10**6))
    within = rng.getrandbits(n) if rng.random() < 0.7 else None
    assert max_independent_set(g, limit=n, within=within) == \
        max_independent_set_reference(g, limit=n, within=within)


@pytest.mark.parametrize("count", [1, 30])
def test_size_limit_edge(count):
    g = _gnp(90, 0.5, 3)
    within = _scattered(90, count, 3)
    for search in (max_independent_set, max_independent_set_reference):
        with pytest.raises(SizeLimitError):
            search(g, limit=count - 1, within=within)
    assert max_independent_set(g, limit=count, within=within) == \
        max_independent_set_reference(g, limit=count, within=within)


# (n, p, graph seeds): instances where k = chi - 1 needs backtracking to refute
COLORING_CASES = [(40, 0.5, (1,)), (30, 0.5, (1, 2)), (40, 0.2, (1,)), (40, 0.8, (1,)),
                  (20, 0.5, (1, 2, 3))]


@pytest.mark.parametrize("n,p,seeds", COLORING_CASES)
def test_find_coloring_matches_reference(n, p, seeds):
    for seed in seeds:
        g = _gnp(n, p, seed)
        chi = next(k for k in range(n + 1) if find_coloring_reference(g, k) is not None)
        outcomes = set()
        for k in [0, *range(max(1, chi - 2), chi + 2)]:
            got = find_coloring(g, k)
            assert got == find_coloring_reference(g, k)
            outcomes.add(got is None)
        assert outcomes == {True, False}  # both colorable and uncolorable k


@pytest.mark.parametrize("n,p,seeds", COLORING_CASES)
def test_search_budget_counts_the_reference_nodes(n, p, seeds):
    """_search's node count is the reference's count of solve calls: with N
    that count, a budget of N answers and N - 1 raises _BudgetSpent, both at
    k = chi - 1 (a refutation) and at k = chi (a coloring). The local budget
    of chromatic_exact's exact try rests on this count."""
    for seed in seeds:
        g = _gnp(n, p, seed)
        chi = next(k for k in range(n + 1) if find_coloring_reference(g, k) is not None)
        for k in (chi - 1, chi):
            expected, nodes = count_coloring_nodes_reference(g, k)
            assert coloring._search(g, k, nodes) == expected
            with pytest.raises(coloring._BudgetSpent):
                coloring._search(g, k, nodes - 1)


def test_find_coloring_sizes_nothing_by_k():
    """Any count k is accepted and nothing is sized by it: k = 10**12 gives
    the k = n coloring, within a small traced peak."""
    g = _gnp(40, 0.5, 1)
    tracemalloc.start()
    try:
        huge = find_coloring(g, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == find_coloring(g, g.n)
    assert peak < 32 * 1024, f"traced peak {peak} B"


@DIFF
@given(st.integers(0, 2**32 - 1))
def test_find_coloring_matches_reference_on_small_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    g = _gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6)) if n else Graph.empty(0)
    chi = brute_chromatic(g)
    for k in [0, *range(max(1, chi - 2), chi + 2)]:
        assert find_coloring(g, k) == find_coloring_reference(g, k)


def test_chromatic_exact_takes_a_tabucol_coloring_on_g60(monkeypatch):
    """G(60, 1/2) seed 0 (clique bound 8, DSATUR 12, chi 10): the exact try
    refutes k = 9 within its budget, runs out at k = 10, and TabuCol finds
    the 10-coloring. The test fails if this graph stops taking that path,
    and checks the value against the exact search alone."""
    g = _gnp(60, 0.5, 0)
    tabucol = coloring._tabucol
    runs = []

    def spy(g, k, start):
        found = tabucol(g, k, start)
        runs.append((k, found is not None))
        return found

    monkeypatch.setattr(coloring, "_tabucol", spy)
    assert chromatic_exact(g, limit=60) == 10
    assert runs == [(10, True)]
    monkeypatch.setattr(coloring, "_EXACT_TRY_NODES", None)  # exact search alone
    assert chromatic_exact(g, limit=60) == 10
    assert runs == [(10, True)]


# around the 64-bit word and bit-slice widths a count or a mask crosses
SLICE_EDGES = [63, 64, 65, 127, 128, 129, 255, 256, 257]


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_dsatur_matches_reference(p):
    for n in [*range(0, 41), 60, 100, 150, *SLICE_EDGES]:
        g = _gnp(n, p, 1000 + n) if n else Graph.empty(0)
        assert dsatur(g) == dsatur_reference(g)


def _bipartite(n: int) -> Graph:
    """The complete bipartite graph between the even and the odd labels."""
    return Graph.from_edges(n, [(u, v) for u in range(0, n, 2) for v in range(1, n, 2)])


@pytest.mark.parametrize("family", [Graph.empty, Graph.complete, Graph.cycle, _bipartite])
def test_dsatur_matches_reference_on_ties(family):
    """Graphs whose vertices tie on saturation and degree at every pick, so
    each pick comes down to the lowest label."""
    for n in [3, 4, 5, 8, 33, *SLICE_EDGES]:
        g = family(n)
        assert dsatur(g) == dsatur_reference(g)
