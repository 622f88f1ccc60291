"""Yardsticks that follow from the mathematics alone: what the exact searches,
the family layer and the density audit report about a graph does not change
when its vertices are relabelled, and the global oracle's value stays within
the clique-planting bound of the paper's abstract. A misreading of the paper
shared by the code and its conftest references would still have to respect
these.

The relabelled draws come from random.Random seeded by a fixed string per
n, so they are the same at every revision and the test's floor on them
counts the same graphs. The other draws come from derandomized Hypothesis,
which repeat only within a revision: Hypothesis mixes constants mined from
the loaded source into its draws, so an edit anywhere can move them.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromres import (
    GnpParams,
    Graph,
    chromatic_exact,
    density_audit,
    enumerate_isets,
    generate_gnp,
    global_resilience_witness,
    local_resilience_witness,
    max_independent_set,
    uniform_family,
    union,
)
from conftest import witness_value

pytestmark = pytest.mark.filterwarnings("ignore::chromres.RegimeWarning")

M_MAX = 5
DELTA_MAX = 3
K = 3
CAP = 2
# The audit runs at np = AUDIT_NP and epsilon AUDIT_EPSILON: s_max >= n and
# the bound per vertex is 2.15, so sizes 6..n are checked at every n >= 6. At
# the draws' own p >= 1/4 no size would be checked at any epsilon (a size
# s <= s_max is checked only if s > 2 * bound + 1, and bound >= 2p * s_max),
# and at n = 5 no p with np > 1 leaves one.
AUDIT_NP = 1.05
AUDIT_EPSILON = 0.8
# Relabelled draws at each n in 5..9, so that n = 6..9, where the audit
# checks sizes, gets four fifths of the draws.
DRAWS_PER_N = 12
# Draws of the 60 whose audit finds a violation: the seeded draws give 11,
# so the violation count among the invariants is a real search.
AUDIT_VIOLATIONS = 11


def _invariants(g: Graph) -> tuple:
    chi = chromatic_exact(g)
    family = enumerate_isets(g, K)
    capped = uniform_family(family, CAP)
    audit = density_audit(g, AUDIT_NP / g.n, AUDIT_EPSILON)
    global_hit = global_resilience_witness(g, chi, M_MAX)
    local_hit = local_resilience_witness(g, chi, DELTA_MAX)
    _check_certificates(g, chi, global_hit, local_hit)
    return (chi, len(max_independent_set(g)), len(family), len(capped), capped.excess_mass,
            witness_value(global_hit), witness_value(local_hit), len(audit.violations))


def _check_certificates(g: Graph, chi: int, global_hit, local_hit) -> None:
    """A witness is a certificate of its value: a global one of value m adds
    exactly m pairs, a local one of value delta has maximum degree at most
    delta, and adding either lifts the chromatic number above chi."""
    if global_hit is not None:
        m, witness = global_hit
        assert witness.m == m
        assert chromatic_exact(union(g, witness)) > chi
    if local_hit is not None:
        delta, witness = local_hit
        assert witness.max_degree() <= delta
        assert chromatic_exact(union(g, witness)) > chi


def _gnp_draw(draw, n: int) -> Graph:
    return generate_gnp(GnpParams(n, draw(st.sampled_from([0.3, 0.5, 0.7])),
                                  draw(st.integers(0, 10**6))))


def _relabelled(n: int) -> list[tuple[Graph, Graph]]:
    """DRAWS_PER_N pairs (g, h): a G(n, p) draw and the same graph with its
    vertices permuted, from random.Random seeded by a string naming n."""
    rng = random.Random(f"relabelled n={n}")
    cases = []
    for _ in range(DRAWS_PER_N):
        g = generate_gnp(GnpParams(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(10**6 + 1)))
        perm = rng.sample(range(n), n)
        cases.append((g, Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])))
    return cases


def test_searches_are_invariant_under_relabelling():
    """DRAWS_PER_N draws at each n in 5..9, every witness checked as a
    certificate, and at least AUDIT_VIOLATIONS of the draws with a violation
    for the audit to find."""
    violated = []
    for n in range(5, 10):
        for i, (g, h) in enumerate(_relabelled(n)):
            invariants = _invariants(g)
            assert _invariants(h) == invariants, f"draw {i} at n={n}"
            violated.append(invariants[-1] > 0)
    assert len(violated) == 5 * DRAWS_PER_N
    assert sum(violated) >= AUDIT_VIOLATIONS


def test_audit_checks_sizes_at_every_n_above_five():
    """The audit parameters above leave sizes to check at n 6-9, so the
    violation count among the invariants is a real search."""
    for n in range(6, 10):
        report = density_audit(Graph.empty(n), AUDIT_NP / n, AUDIT_EPSILON)
        assert report.s_max >= 3 and report.checked_sizes


@st.composite
def under_cap(draw):
    """(g, cap): a G(n, p) draw and a cap in chi(g)..min(chi(g) + 1, n - 1)."""
    g = _gnp_draw(draw, draw(st.integers(5, 9)))
    chi = chromatic_exact(g)
    assume(chi < g.n)  # a complete graph has no (cap + 1)-set
    return g, draw(st.integers(chi, min(chi + 1, g.n - 1)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(under_cap())
def test_global_value_within_the_clique_planting_bound(case):
    """Making some (cap + 1)-set a clique lifts chi past the cap, so the
    global value at cap is at most the fewest non-edges inside any
    (cap + 1)-set; it is at least 1, since chi(g) <= cap."""
    g, cap = case
    rows = g.rows
    bound = min(sum(1 for u, v in combinations(s, 2) if not rows[u] >> v & 1)
                for s in combinations(range(g.n), cap + 1))
    value = witness_value(global_resilience_witness(g, cap, bound))
    assert value is not None and 1 <= value <= bound
