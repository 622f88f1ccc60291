"""Yardsticks that follow from the mathematics alone: what the exact searches
and the family layer report about a graph does not change when its vertices
are relabelled. A misreading of the paper shared by the code and its conftest
references would still have to respect this.

Hypothesis runs derandomized (a fixed seed), so a failure reproduces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromres import (
    GnpParams,
    Graph,
    chromatic_exact,
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


def _invariants(g: Graph) -> tuple:
    chi = chromatic_exact(g)
    family = enumerate_isets(g, K)
    capped = uniform_family(family, CAP)
    return (chi, len(max_independent_set(g)), len(family), len(capped), capped.excess_mass,
            witness_value(global_resilience_witness(g, chi, M_MAX)),
            witness_value(local_resilience_witness(g, chi, DELTA_MAX)))


@st.composite
def relabelled(draw):
    """(g, h): a G(n, p) draw and the same graph with its vertices permuted."""
    n = draw(st.integers(5, 9))
    g = generate_gnp(GnpParams(n, draw(st.sampled_from([0.3, 0.5, 0.7])),
                               draw(st.integers(0, 10**6))))
    perm = draw(st.permutations(range(n)))
    return g, Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(relabelled())
def test_searches_are_invariant_under_relabelling(case):
    g, h = case
    assert _invariants(h) == _invariants(g)
