"""Yardsticks that follow from the mathematics alone: what the exact searches,
the family layer and the density audit report about a graph does not change
when its vertices are relabelled, and the global oracle's value stays within
the clique-planting bound of the paper's abstract. A misreading of the paper
shared by the code and its conftest references would still have to respect
these.

Hypothesis runs derandomized (a fixed seed), so a failure reproduces.
"""

from __future__ import annotations

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
# Fewest of the 60 draws whose audit finds a violation. Under pytest the
# draws give 7, but Hypothesis mixes constants from the source of the modules
# loaded into its draws, so an edit anywhere can move the count: 70 seeds of
# the same strategies gave 5 to 16 (median 11).
AUDIT_VIOLATIONS = 5


def _invariants(g: Graph) -> tuple:
    chi = chromatic_exact(g)
    family = enumerate_isets(g, K)
    capped = uniform_family(family, CAP)
    audit = density_audit(g, AUDIT_NP / g.n, AUDIT_EPSILON)
    return (chi, len(max_independent_set(g)), len(family), len(capped), capped.excess_mass,
            witness_value(global_resilience_witness(g, chi, M_MAX)),
            witness_value(local_resilience_witness(g, chi, DELTA_MAX)),
            len(audit.violations))


def _gnp_draw(draw, n: int) -> Graph:
    return generate_gnp(GnpParams(n, draw(st.sampled_from([0.3, 0.5, 0.7])),
                                  draw(st.integers(0, 10**6))))


@st.composite
def relabelled(draw, n: int):
    """(g, h): a G(n, p) draw and the same graph with its vertices permuted."""
    g = _gnp_draw(draw, n)
    perm = draw(st.permutations(range(n)))
    return g, Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_searches_are_invariant_under_relabelling():
    """DRAWS_PER_N draws at each n in 5..9 (one integer strategy for n puts
    about half of all draws at its lower end), and at least AUDIT_VIOLATIONS
    of them with a violation for the audit to find."""
    violated = []
    for n in range(5, 10):
        @settings(max_examples=DRAWS_PER_N, derandomize=True, database=None, deadline=None)
        @given(relabelled(n))
        def check(case):
            g, h = case
            invariants = _invariants(g)
            assert _invariants(h) == invariants
            violated.append(invariants[-1] > 0)

        check()
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
