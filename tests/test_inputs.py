"""Every public entry rejects a malformed scalar argument where it enters.

A count is an int (a bool is none) of at least some least value; a real is
an int or a float, not a bool, strictly between 0 and an upper bound (0
included where the entry allows it), never NaN or infinite. Hypothesis feeds
each entry below NaN, infinities, values outside the bounds, bools, floats
where an int is expected, strings and None, and every draw must raise a
ValueError whose message begins with the argument's name. Graph text fails
with GraphFormatError instead, and a config names its key. Derandomized, so
a failure reproduces.
"""

from __future__ import annotations

import inspect
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromres import (
    EdgeSet,
    ExperimentConfig,
    GnpParams,
    Graph,
    GraphFormatError,
    SizeLimitError,
    StripKnobs,
    bounded_degree_h,
    build_profile,
    chromatic_exact,
    compute_k0,
    concentration_sample,
    density_audit,
    enumerate_isets,
    expected_counts,
    find_coloring,
    generate_gnp,
    global_resilience_witness,
    local_resilience_witness,
    max_independent_set,
    parse_config,
    parse_dimacs,
    parse_edge_list,
    predicted_chromatic,
    random_budget,
    run_experiment,
    strip_color,
    tail_bounds,
    uniform_family,
    working_k,
)
from chromres import adversary, coloring, isets
from chromres.cli import build_parser
from chromres.graph import _MAX_VERTICES

G = generate_gnp(GnpParams(12, 0.5, 3))
NO_EDGES = EdgeSet(frozenset())
SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def counts_below(least: int = 0) -> st.SearchStrategy:
    """Values that are no count of at least `least`. Floats stay small or
    are huge enough that numpy refuses them at once, so an entry that fails
    to reject one allocates little."""
    return st.one_of(st.integers(max_value=least - 1), st.floats(-1e3, 1e3),
                     st.sampled_from([math.nan, math.inf, -math.inf, 1e300]), st.booleans(),
                     st.text(max_size=3), st.none())


def bad_reals(high: float = math.inf, zero: bool = False) -> st.SearchStrategy:
    """Values outside (0, high), or [0, high) when zero is set."""
    return st.one_of(st.floats(max_value=-5e-324 if zero else 0.0),
                     st.integers(max_value=-1 if zero else 0),
                     st.floats(min_value=high),
                     st.integers(min_value=math.ceil(high)) if high < math.inf else st.nothing(),
                     st.just(math.nan), st.booleans(), st.text(max_size=3), st.none())


def _config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**({"n_list": (10,), "p_list": (0.5,), "seeds": (0,)} | fields))


# (name, malformed values, the entry called with one of them)
CASES = {
    "GnpParams.n": ("n", counts_below(1), lambda v: GnpParams(v, 0.5)),
    "GnpParams.n-above-limit": ("n", st.integers(min_value=_MAX_VERTICES + 1),
                                lambda v: GnpParams(v, 0.5)),
    "GnpParams.p": ("p", bad_reals(1.0), lambda v: GnpParams(10, v)),
    "GnpParams.seed": ("seed", counts_below(), lambda v: GnpParams(10, 0.5, v)),
    "compute_k0.n": ("n", counts_below(), lambda v: compute_k0(v, 0.5)),
    "compute_k0.p": ("p", bad_reals(1.0), lambda v: compute_k0(30, v)),
    "compute_k0.theta": ("theta", bad_reals(), lambda v: compute_k0(30, 0.5, v)),
    "expected_counts.n": ("n", counts_below(), lambda v: expected_counts(v, 0.5, 3)),
    "expected_counts.p": ("p", bad_reals(1.0), lambda v: expected_counts(30, v, 3)),
    "expected_counts.k0": ("k0", counts_below(2), lambda v: expected_counts(30, 0.5, v)),
    "working_k.n": ("n", counts_below(), lambda v: working_k(v, 0.5)),
    "working_k.p": ("p", bad_reals(1.0), lambda v: working_k(50, v)),
    "tail_bounds.delta": ("delta", bad_reals(1.0),
                          lambda v: tail_bounds(build_profile(40, 0.5), v)),
    "predicted_chromatic.n": ("n", counts_below(), lambda v: predicted_chromatic(v, 0.5, 1.0)),
    "predicted_chromatic.p": ("p", bad_reals(1.0), lambda v: predicted_chromatic(50, v, 1.0)),
    "predicted_chromatic.epsilon": ("epsilon", bad_reals(zero=True),
                                    lambda v: predicted_chromatic(50, 0.5, v)),
    "StripKnobs.family_size_limit": ("family_size_limit", counts_below(),
                                     lambda v: StripKnobs(family_size_limit=v)),
    "StripKnobs.node_budget": ("node_budget", counts_below(), lambda v: StripKnobs(node_budget=v)),
    "strip_color.epsilon": ("epsilon", bad_reals(),
                            lambda v: strip_color(G, NO_EDGES, v, build_profile(12, 0.5))),
    "find_coloring.k": ("k", counts_below(), lambda v: find_coloring(G, v)),
    "chromatic_exact.limit": ("limit", counts_below(), lambda v: chromatic_exact(G, v)),
    "max_independent_set.limit": ("limit", counts_below(), lambda v: max_independent_set(G, v)),
    "enumerate_isets.k": ("k", counts_below(1), lambda v: enumerate_isets(G, v)),
    "enumerate_isets.limit": ("limit", counts_below(), lambda v: enumerate_isets(G, 2, limit=v)),
    "enumerate_isets.node_budget": ("node_budget", counts_below().filter(lambda v: v is not None),
                                    lambda v: enumerate_isets(G, 2, node_budget=v)),
    "uniform_family.cap": ("cap", bad_reals(zero=True),
                           lambda v: uniform_family(enumerate_isets(G, 2), v)),
    "random_budget.m": ("m", counts_below(), lambda v: random_budget(G, v, 0)),
    "random_budget.seed": ("seed", counts_below(), lambda v: random_budget(G, 3, v)),
    "bounded_degree_h.n": ("n", counts_below(), lambda v: bounded_degree_h(v, 2, 0)),
    "bounded_degree_h.delta": ("delta", counts_below(), lambda v: bounded_degree_h(10, v, 0)),
    "bounded_degree_h.seed": ("seed", counts_below(), lambda v: bounded_degree_h(10, 2, v)),
    "global_resilience_witness.chi_cap": ("chi_cap", counts_below(),
                                          lambda v: global_resilience_witness(G, v, 2)),
    "global_resilience_witness.m_max": ("m_max", counts_below(),
                                        lambda v: global_resilience_witness(G, 4, v)),
    "local_resilience_witness.chi_cap": ("chi_cap", counts_below(),
                                         lambda v: local_resilience_witness(G, v, 2)),
    "local_resilience_witness.delta_max": ("delta_max", counts_below(),
                                           lambda v: local_resilience_witness(G, 4, v)),
    "local_resilience_witness.size_limit": (
        "size_limit", counts_below(), lambda v: local_resilience_witness(G, 4, 2, size_limit=v)),
    "local_resilience_witness.node_budget": (
        "node_budget", counts_below(), lambda v: local_resilience_witness(G, 4, 2, node_budget=v)),
    "density_audit.p": ("p", bad_reals(1.0), lambda v: density_audit(Graph.empty(20), v, 1.0)),
    "density_audit.epsilon": ("epsilon", bad_reals(),
                              lambda v: density_audit(Graph.empty(20), 0.3, v)),
    "density_audit.samples": ("samples", counts_below(),
                              lambda v: density_audit(Graph.empty(20), 0.3, 1.0, samples=v)),
    "density_audit.samples-sampled": (
        "samples", counts_below(1),
        lambda v: density_audit(Graph.empty(20), 0.3, 1.0, mode="sampled", samples=v)),
    "density_audit.samples-exhaustive": (
        "samples", st.integers(min_value=1),
        lambda v: density_audit(Graph.empty(20), 0.3, 1.0, samples=v)),
    "density_audit.seed": ("seed", counts_below(),
                           lambda v: density_audit(Graph.empty(20), 0.3, 1.0, seed=v)),
    "concentration_sample.trials": ("trials", counts_below(),
                                    lambda v: concentration_sample(30, 0.5, 1.0, 4.0, v, 0)),
    "concentration_sample.cap_multiplier": (
        "cap_multiplier", bad_reals(zero=True),
        lambda v: concentration_sample(30, 0.5, 1.0, v, 1, 0)),
    "concentration_sample.seed": ("seed", counts_below(),
                                  lambda v: concentration_sample(30, 0.5, 1.0, 4.0, 1, v)),
    "ExperimentConfig.n": ("n", counts_below(1), lambda v: _config(n_list=(v,))),
    "ExperimentConfig.p": ("p", bad_reals(1.0), lambda v: _config(p_list=(v,))),
    "ExperimentConfig.seed": ("seed", counts_below(), lambda v: _config(seeds=(v,))),
    "ExperimentConfig.epsilon": ("epsilon", bad_reals(), lambda v: _config(epsilon=v)),
    "ExperimentConfig.theta": ("theta", bad_reals(), lambda v: _config(theta=v)),
    "ExperimentConfig.exact_limit": ("exact_limit", counts_below(),
                                     lambda v: _config(exact_limit=v)),
    "run_experiment.workers": ("workers", counts_below(1),
                               lambda v: run_experiment(_config(exact_limit=0), workers=v)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_scalar_is_rejected_by_name(case):
    name, values, call = CASES[case]

    @SETTINGS
    @given(value=values)
    def check(value):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must"), str(info.value)

    check()


# Inputs that each entry once took without a word, or failed on deep inside
PROBES = {
    "enumerate_isets-limit-nan": ("limit", lambda: enumerate_isets(G, 2, limit=math.nan)),
    "enumerate_isets-k-float": ("k", lambda: enumerate_isets(G, 2.5)),
    "max_independent_set-limit-nan": ("limit", lambda: max_independent_set(G, math.nan)),
    "find_coloring-k-nan": ("k", lambda: find_coloring(G, math.nan)),
    "GnpParams-n-float": ("n", lambda: GnpParams(10.5, 0.5)),
    "GnpParams-n-bool": ("n", lambda: GnpParams(True, 0.5)),
    "GnpParams-n-above-limit": ("n", lambda: GnpParams(2**21, 0.5)),
    "GnpParams-seed-negative": ("seed", lambda: GnpParams(10, 0.5, -1)),
    "Graph-n-bool": ("n", lambda: Graph(True, (0,), 0)),
    "Graph.empty-n-bool": ("n", lambda: Graph.empty(True)),
    "Graph.complete-n-bool": ("n", lambda: Graph.complete(True)),
    "Graph.from_edges-n-bool": ("n", lambda: Graph.from_edges(True, [])),
    "Graph.empty-n-float": ("n", lambda: Graph.empty(2.5)),
    "Graph.from_edges-n-float": ("n", lambda: Graph.from_edges(2.5, [])),
    "Graph.cycle-n-float": ("n", lambda: Graph.cycle(3.0)),
    # the limit only where nothing of size n is built before the check would
    # run: complete(2**20 + 1) unchecked builds about 128 GB of rows
    "Graph.empty-n-above-limit": ("n", lambda: Graph.empty(_MAX_VERTICES + 1)),
    "Graph.from_edges-n-above-limit": ("n", lambda: Graph.from_edges(_MAX_VERTICES + 1, [])),
    "run_experiment-workers-bool": ("workers", lambda: run_experiment(_config(), workers=True)),
    "bounded_degree_h-delta-negative": ("delta", lambda: bounded_degree_h(10, -1, 0)),
    "local_resilience_witness-delta_max-negative": (
        "delta_max", lambda: local_resilience_witness(G, 3, -1)),
    "predicted_chromatic-epsilon-negative": ("epsilon", lambda: predicted_chromatic(50, 0.5, -1)),
    "density_audit-samples-nan": (
        "samples", lambda: density_audit(Graph.empty(20), 0.3, 1.0, samples=math.nan)),
    "concentration_sample-trials-float": (
        "trials", lambda: concentration_sample(30, 0.5, 1.0, 4.0, 2.5, 0)),
    "compute_k0-n-float": ("n", lambda: compute_k0(2.5, 0.5)),
    "build_profile-n-negative": ("n", lambda: build_profile(-5, 0.5)),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_is_rejected_by_name(probe):
    name, call = PROBES[probe]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_valid_edges_of_the_contract_pass():
    # the bounds each check admits: 0 where a real may be 0, the least count
    assert predicted_chromatic(50, 0.5, 0.0)[0] > 0
    assert uniform_family(enumerate_isets(G, 2), 0).cap == 0
    assert find_coloring(G, 0) is None
    assert bounded_degree_h(10, 0, 0) == (NO_EDGES, 0)
    assert GnpParams(_MAX_VERTICES, 0.5).n == _MAX_VERTICES
    assert enumerate_isets(G, 1, limit=12, node_budget=13).k == 1


def test_defaults_read_the_search_guards():
    parser = build_parser()
    assert parser.parse_args(["color", "g.txt"]).exact_limit == coloring._EXACT_LIMIT
    assert parser.parse_args(["isets", "g.txt", "--k", "2"]).limit == isets._SET_LIMIT
    assert _config().exact_limit == coloring._EXACT_LIMIT
    params = inspect.signature(local_resilience_witness).parameters
    assert params["size_limit"].default == adversary._LOCAL_SIZE_LIMIT
    assert params["node_budget"].default == adversary._LOCAL_NODE_BUDGET


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: max_independent_set(G, limit=3, within=0b1111),
                 "n=4 exceeds exact-search limit 3", id="max_independent_set"),
    pytest.param(lambda: chromatic_exact(G, limit=11),
                 "n=12 exceeds exact-chromatic limit 11", id="chromatic_exact"),
    pytest.param(lambda: global_resilience_witness(Graph.empty(41), 1, 1),
                 "n=41 exceeds exact-chromatic limit 40", id="global_resilience_witness"),
    pytest.param(lambda: local_resilience_witness(G, 1, 1),
                 "n=12 exceeds local-oracle limit 9", id="local_resilience_witness"),
])
def test_size_guards_name_the_search_and_its_limit(call, message):
    # max_independent_set counts the vertices of its mask, not of the graph
    with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: expected_counts(5, 0.5, 6), "k0 must be <= n", id="expected_counts"),
    pytest.param(lambda: Graph.cycle(2), "cycle needs n >= 3", id="Graph.cycle"),
    pytest.param(lambda: density_audit(generate_gnp(GnpParams(20, 0.5, 0)), 0.5, 1.0,
                                       mode="bogus"),
                 "unknown mode 'bogus'", id="density_audit"),
    pytest.param(lambda: concentration_sample(2, 0.5, 1.0, 4.0, 1, 0),
                 "profile lacks a usable k0/mu0 at these parameters", id="concentration_sample"),
    pytest.param(lambda: parse_config("n=10\np=0.5\nseeds=1\nbogus\n"),
                 "bad config line 'bogus'", id="parse_config"),
])
def test_well_typed_value_outside_the_domain_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Tokens int() rejects, or integers outside every graph's range
BAD_TOKENS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "True", "2.5", "1e3", "0x10", "1_"]),
                       st.floats().map(repr), st.integers(max_value=-1).map(str))


@SETTINGS
@given(token=BAD_TOKENS)
def test_malformed_graph_text_is_a_format_error(token):
    for text in (f"{token} 0\n", f"3 1\n0 {token}\n", f"p edge {token} 0\n",
                 f"p edge 3 1\ne 1 {token}\n"):
        parse = parse_dimacs if text.startswith("p") else parse_edge_list
        with pytest.raises(GraphFormatError):
            parse(text)


CONFIG = "n=20\np=0.5\nseeds=1\nstrategy=bounded_degree\n"
# (key, value that does not convert or, for a strategy parameter, is not finite)
BAD_CONFIG_VALUES = [
    ("n", "abc"), ("n", "20,,30"), ("p", "half"), ("seeds", "1..2..3"), ("seeds", "x..3"),
    ("epsilon", "one"), ("exact_limit", "2.5"), ("knobs.node_budget", "1e3"),
    ("knobs.family_size_limit", "nan"), ("strategy.m", "abc"), ("strategy.delta", "nan"),
    ("strategy.delta", "inf"), ("strategy.t", "-inf"),
]


@SETTINGS
@given(entry=st.sampled_from(BAD_CONFIG_VALUES))
def test_config_value_error_names_its_key(entry):
    key, value = entry
    text = "\n".join(line for line in CONFIG.splitlines() if not line.startswith(f"{key}="))
    with pytest.raises(ValueError, match=f"^config key '{key}': "):
        parse_config(f"{text}\n{key}={value}\n")


@pytest.mark.parametrize("key, first, second", [
    ("n", "20", "30"), ("seeds", "1", "1"), ("strategy.delta", "2", "3"),
    ("knobs.node_budget", "10", "20"), ("csv", "a.csv", "b.csv"),
])
def test_config_rejects_a_repeated_key(key, first, second):
    base = "\n".join(line for line in CONFIG.splitlines() if not line.startswith(f"{key}="))
    with pytest.raises(ValueError, match=f"^config key '{key}' is repeated$"):
        parse_config(f"{base}\n{key}={first}\n# again\n {key} = {second}\n")
