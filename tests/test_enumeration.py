"""The enumeration kernel against the recursive DFS whose tree it walks.

count_dfs_nodes_reference and enumerate_sets_reference in conftest visit the
same search tree one node at a time. enumerate_isets must return the same
sets in the same order, and trip its node budget and its set limit at
exactly the same totals: a node budget of N - 1 raises where N is the
reference's node total and N does not, and a limit of one set fewer than the
family raises where the family's own size does not. Every set is a leaf of
the tree below a root that holds none, so a family is always smaller than N:
a set limit at or above the node budget can never trip first.

strip_color's ladder gets a family from isets._family, which filters the
family it found on a remainder S to each later remainder S' inside it
instead of enumerating again: that must give the fresh family of S', with a
pair index that marks the same added pairs in each set, and a budget that
passes on S must pass on S', because the DFS tree on S' is a subtree of the
one on S.
"""

from __future__ import annotations

import functools
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chromres import EnumerationLimitError, GnpParams, enumerate_isets, generate_gnp, isets
from chromres.graph import mask_of
from conftest import count_dfs_nodes_reference, enumerate_sets_reference

N = 600


@functools.lru_cache(maxsize=None)
def _graph(p: float):
    return generate_gnp(GnpParams(N, p, 17))


def _mask(s: int, seed: int) -> int:
    return mask_of(random.Random(seed).sample(range(N), s))


def _raises(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except EnumerationLimitError:
        return True
    return False


def _check(g, within: int, k: int) -> None:
    sets, nodes = count_dfs_nodes_reference(g.rows, within, k)
    assert enumerate_isets(g, k, within=within).sets == tuple(sets)
    assert len(sets) < nodes or not nodes
    budgets = [nodes - 1, nodes] if nodes else [0]
    limits = [len(sets) - 1, len(sets)] if sets else [0]
    for budget in budgets:
        expected = _raises(enumerate_sets_reference, g.rows, within, k, 10**9, budget)
        assert expected == (budget < nodes)
        assert _raises(enumerate_isets, g, k, node_budget=budget, within=within) == expected
    for limit in limits:
        expected = _raises(enumerate_sets_reference, g.rows, within, k, limit)
        assert expected == (limit < len(sets))
        assert _raises(enumerate_isets, g, k, limit=limit, within=within) == expected


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("s", [0, 1, 63, 64, 65, 128, 129, 130])
def test_matches_reference_dfs(p, s):
    # masks of s vertices scattered over labels up to 600, so every row has
    # bits outside the mask; s around 64 and 128 cross the word boundaries
    g = _graph(p)
    within = _mask(s, s)
    for k in sorted({1, 2, s, s + 1} - {0}):
        _check(g, within, k)


def test_frames_wider_than_a_step(monkeypatch):
    # k = 3 on 130 vertices at p = 1/2: the depth-2 frame holds thousands of
    # nodes, many more than one step of 2^16 bytes expands
    monkeypatch.setattr(isets, "_STEP_BYTES", 1 << 16)
    g = _graph(0.5)
    within = _mask(130, 1)
    assert len(enumerate_isets(g, 2, within=within)) > 4 * (isets._STEP_BYTES // (64 * 3))
    _check(g, within, 3)


@pytest.mark.parametrize("k", [3, 5])
def test_one_parent_per_step(monkeypatch, k):
    # the smallest step: every step expands a single node
    monkeypatch.setattr(isets, "_STEP_BYTES", 1)
    g = _graph(0.5)
    _check(g, _mask(48, k), k)


@pytest.mark.parametrize("check_bytes", [1, 1 << 10])
def test_check_in_row_blocks(monkeypatch, check_bytes):
    # the final independence check one set per block, and 42 sets of 3 per block
    monkeypatch.setattr(isets, "_CHECK_BYTES", check_bytes)
    _check(_graph(0.5), _mask(48, 3), 3)


def test_check_finds_a_dependent_set_past_the_first_block(monkeypatch):
    # every leaf step's last set is replaced by a dependent one: the first
    # such set lies far past the first block of 42 sets, and the check names it
    monkeypatch.setattr(isets, "_CHECK_BYTES", 1 << 10)
    g, within = _graph(0.5), _mask(48, 3)
    verts = [v for v in range(N) if within >> v & 1]
    a, b = next((i, j) for i in range(48) for j in range(i + 1, 48)
                if g.has_edge(verts[i], verts[j]))
    c = next(i for i in range(48) if i not in (a, b))
    assert len(enumerate_isets(g, 3, within=within)) > 42
    leaves = isets._leaves

    def planted(*args):
        sets = leaves(*args)
        sets[-1] = (a, b, c)
        return sets

    monkeypatch.setattr(isets, "_leaves", planted)
    with pytest.raises(AssertionError, match=rf"dependent set \({verts[a]}, {verts[b]}, {verts[c]}\)"):
        isets._enumerate_sets(g.rows, within, 3)


# Peak traced bytes (KiB) of one _enumerate_sets call on the 130-vertex mask
# of G(600, 1/2) below, measured with _STEP_BYTES = 2^19. At k = 3 the peak is
# the final independence check over the 43 739 sets, at k = 9 the widest step
# of the dense depth-2 frame (2 585 parents on 3-word bitsets). The parent
# kernel, with steps of 2^18 and every candidate unpacked, peaked at 2 808
# and 1 123 KiB. At k = 5 (260 221 sets) the peak is the position array held
# twice, once by the concatenation of the leaf steps and once by the labels;
# the check, in blocks of _CHECK_BYTES, stays below it (a single check of
# every set at once peaked at 35 736 KiB). A call may use up to 10% more than
# measured.
PEAK_KIB = {3: 2295, 5: 10320, 9: 1587}


@pytest.mark.parametrize("k", sorted(PEAK_KIB))
def test_peak_memory_of_a_call(k):
    g, within = _graph(0.5), _mask(130, 1)
    isets._enumerate_sets(g.rows, within, k)  # numpy's first-call allocations
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        isets._enumerate_sets(g.rows, within, k)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 1.1 * PEAK_KIB[k] * 1024


def _smallest_budget(g, k: int, within: int) -> int:
    """The smallest node_budget enumerate_isets passes with, by bisection."""
    hi = 1
    while _raises(enumerate_isets, g, k, node_budget=hi, within=within):
        hi *= 2
    lo = -1  # below every budget that can pass
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _raises(enumerate_isets, g, k, node_budget=mid, within=within):
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("step", [1, 1 << 16, isets._STEP_BYTES])
def test_step_size_only_groups_nodes(monkeypatch, step):
    # the step sets how many nodes one pass expands, never which: sets, the
    # smallest passing node budget and the limit trips are the DFS's at any step
    monkeypatch.setattr(isets, "_STEP_BYTES", step)
    for p, s, k in [(0.5, 130, 2), (0.5, 48, 4), (0.1, 24, 3)]:
        g = _graph(p)
        within = _mask(s, k)
        sets, nodes = count_dfs_nodes_reference(g.rows, within, k)
        assert sets == enumerate_sets_reference(g.rows, within, k, 10**9)
        assert enumerate_isets(g, k, within=within).sets == tuple(sets)
        assert _smallest_budget(g, k, within) == nodes
        assert _raises(enumerate_isets, g, k, limit=len(sets) - 1, within=within)
        assert not _raises(enumerate_isets, g, k, limit=len(sets), within=within)


@pytest.mark.parametrize("budget", [-1, 2.5, True, False, "10"])
def test_node_budget_must_be_none_or_a_count(budget):
    # a bad budget is a bad argument, not a blown search
    with pytest.raises(ValueError, match="node_budget"):
        enumerate_isets(_graph(0.5), 2, node_budget=budget, within=_mask(10, 0))


def test_zero_node_budget_blows_every_enumeration():
    # 0 is a valid budget: the root alone exceeds it
    with pytest.raises(EnumerationLimitError, match="node budget 0"):
        enumerate_isets(_graph(0.5), 2, node_budget=0, within=_mask(10, 0))


def test_threads_share_no_state():
    # two threads enumerate different graphs and masks at once, calls that
    # finish and calls that trip a limit; each must see what a serial run sees
    g1, g2 = _graph(0.5), _graph(0.1)
    calls = [
        [(g1, 3, _mask(130, 1), {}), (g1, 4, _mask(100, 2), {"node_budget": 5000}),
         (g1, 5, _mask(64, 3), {}), (g1, 3, _mask(128, 4), {"limit": 1000})],
        [(g2, 3, _mask(40, 5), {}), (g2, 4, _mask(30, 6), {"limit": 100}),
         (g2, 3, _mask(50, 7), {"node_budget": 1000}), (g2, 2, _mask(64, 8), {})],
    ]

    def run(batch):
        results = []
        for g, k, within, kwargs in batch * 2:
            try:
                results.append(enumerate_isets(g, k, within=within, **kwargs).sets)
            except EnumerationLimitError as exc:
                results.append(str(exc))
        return results

    serial = [run(batch) for batch in calls]
    assert all(isinstance(r, str) for r in (serial[0][1], serial[0][3], serial[1][1]))
    barrier = threading.Barrier(2)

    def worker(batch):
        barrier.wait()
        return run(batch)

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(worker, calls)) == serial


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restriction_equals_fresh_enumeration(seed):
    # a chain S ⊇ S' ⊇ S'' of masks of G(n <= 40), each restricted from the
    # last restriction, as strip_color does over its rounds, with up to 3n
    # added pairs for the pair index to mark
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    g = generate_gnp(GnpParams(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng.randrange(1000)))
    chain = [rng.getrandbits(n)]
    for _ in range(2):
        chain.append(chain[-1] & ~mask_of(rng.sample(range(n), rng.randint(1, min(4, n)))))
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2)))
                    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0)})
    added_uv = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)

    def family(within, k, last):
        """isets._family's cache, the family found empty or not."""
        alive = np.array([(within >> v) & 1 for v in range(n)], bool)
        return isets._family(g.rows, within, alive, added_uv, k, None, last)[1]

    def marked_per_set(cache):
        _, keys, marked = cache
        return marked[keys].sum(axis=1).tolist()

    for k in rng.sample(range(1, 6), 3):
        cache = family(chain[0], k, None)
        assert tuple(map(tuple, cache[0].tolist())) == enumerate_isets(g, k, within=chain[0]).sets
        budget = _smallest_budget(g, k, chain[0])
        for within in chain[1:]:
            cache = family(within, k, cache)
            sets = cache[0]
            fresh = enumerate_isets(g, k, within=within)
            assert sets.shape[1] == k
            assert tuple(map(tuple, sets.tolist())) == fresh.sets
            assert isets._coverage(isets._pair_keys(sets, n), n) == fresh.coverage
            assert [mask_of(s) for s in sets.tolist()] == [mask_of(s) for s in fresh.sets]
            assert marked_per_set(cache) == marked_per_set(family(within, k, None))
            assert not _raises(enumerate_isets, g, k, node_budget=budget, within=within)
            assert not _raises(enumerate_isets, g, k, limit=len(fresh), within=within)
