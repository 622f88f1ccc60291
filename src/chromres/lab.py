"""Experiment harness: density audits, concentration sampling, seeded sweeps.

Audits and concentration samples run serially and are pure functions of
their arguments (sampled audits draw from PCG64([seed, subset size])). Sweeps
emit CSV (one row per trial, plot-ready) and JSON (full traces). Every
row carries the schema version and a hash of its config; per-row randomness
is derived from SHA-256 of (seed, n, p, strategy) so the table is identical
regardless of scheduling or worker count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import analytics
from .adversary import bounded_degree_h, plant_clique, random_budget
from .coloring import (_EXACT_LIMIT, StripKnobs, chromatic_exact, dsatur, strip_color,
                       verify_coloring)
from .graph import (EdgeSet, Graph, GnpParams, _count, _edges_inside, _real, generate_gnp,
                    mask_of, union)
from .isets import SizeLimitError, enumerate_isets, uniform_family

RESULT_SCHEMA_VERSION = 1

# Most subsets an exhaustive density audit may enumerate.
_AUDIT_BUDGET = 20_000_000


class AuditBudgetError(RuntimeError):
    """Exhaustive density audit would enumerate too many subsets."""


# --- density audit ------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Outcome of the small-subset edge-density check.

    Each subset S with |S| <= s_max must satisfy e(g[S]) <= bound_per_vertex
    * |S|. Sizes where the bound already exceeds C(s, 2) are trivially
    satisfied and skipped (counted as passed). violations lists offending
    (subset, size, edges) triples; exhaustive is True only when every
    non-trivial size was fully enumerated, so only then does an empty list
    certify the property.
    """

    n: int
    p: float
    epsilon: float
    s_max: int
    bound_per_vertex: float
    violations: tuple[tuple[tuple[int, ...], int, int], ...]
    exhaustive: bool
    checked_sizes: tuple[int, ...] = ()

    def to_json(self) -> dict:
        d = asdict(self)
        d["violations"] = [
            {"subset": list(s), "size": k, "edges": e} for s, k, e in self.violations
        ]
        return d


def density_audit(g: Graph, p: float, epsilon: float, mode: str = "exhaustive",
                  samples: int = 0, seed: int = 0) -> DensityReport:
    """Check that every (or a sampled set of) small subset spans few edges.

    Thresholds: subsets of size s <= s_max = eps*n/(16 log(np)) may contain
    at most (eps*n*p/(8 log(np))) * s edges. Exhaustive mode enumerates every
    non-trivial size (AuditBudgetError if the subset count exceeds
    _AUDIT_BUDGET); sampled mode draws `samples` >= 1 subsets per size from
    PCG64([seed, s]) and can only find violations, never certify their
    absence. Sizes are scanned in ascending order; exhaustive subsets come in
    lexicographic order, walked as a DFS that carries each prefix's edge
    count, and sampled ones in the order drawn. ValueError unless 0 < p < 1,
    np > 1, epsilon is positive and finite, and samples and seed are counts
    (samples >= 1 in sampled mode).
    """
    n = g.n
    _real("p", p, 1.0)
    if n * p <= 1.0:
        raise ValueError("density audit needs np > 1")
    _real("epsilon", epsilon)
    _count("samples", samples, 1 if mode == "sampled" else 0)
    _count("seed", seed)
    log_np = math.log(n * p)
    s_max = math.floor(analytics._residual_threshold(n, p, epsilon))
    s_max = min(s_max, n)
    bound = epsilon * n * p / (8.0 * log_np)

    # sizes with bound*s >= C(s,2) can never violate
    sizes = [s for s in range(2, s_max + 1) if s * (s - 1) / 2 > bound * s]

    if mode == "exhaustive":
        total = sum(math.comb(n, s) for s in sizes)
        if total > _AUDIT_BUDGET:
            raise AuditBudgetError(
                f"{total} subsets across sizes {sizes} exceed budget {_AUDIT_BUDGET}")
    elif mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")

    violations = []
    for s in sizes:
        limit = math.floor(bound * s)
        if mode == "exhaustive":
            violations.extend(_dense_subsets(g.rows, s, limit))
            continue
        rng = np.random.Generator(np.random.PCG64([seed, s]))
        for _ in range(samples):
            subset = tuple(int(v) for v in sorted(rng.choice(n, size=s, replace=False)))
            e = _edges_inside(g, mask_of(subset))
            if e > limit:
                violations.append((subset, s, e))
    return DensityReport(
        n=n, p=p, epsilon=epsilon, s_max=s_max, bound_per_vertex=bound,
        violations=tuple(violations), exhaustive=(mode == "exhaustive"),
        checked_sizes=tuple(sizes),
    )


def _dense_subsets(rows: tuple[int, ...], size: int,
                   limit: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(subset, size, edges) for every `size`-subset of the vertices of rows
    spanning more than `limit` edges, in lexicographic order: a DFS over
    increasing vertices that carries the chosen mask and its edge count, so
    adding a vertex costs one popcount."""
    n = len(rows)
    out = []
    chosen: list[int] = []

    def dfs(first: int, mask: int, edges: int) -> None:
        if len(chosen) == size - 1:
            for v in range(first, n):
                e = edges + (rows[v] & mask).bit_count()
                if e > limit:
                    out.append(((*chosen, v), size, e))
            return
        for v in range(first, n - size + len(chosen) + 1):
            chosen.append(v)
            dfs(v + 1, mask | 1 << v, edges + (rows[v] & mask).bit_count())
            chosen.pop()

    dfs(0, 0, 0)
    return out


# --- concentration sampling ----------------------------------------------


@dataclass(frozen=True)
class ConcentrationSummary:
    """Empirical distribution of capped-family sizes across seeds."""

    n: int
    p: float
    theta: float
    cap_multiplier: float
    trials: int
    k0: Optional[int]
    mu: Optional[float]
    cap: Optional[float]
    ratios: tuple[float, ...] = ()
    excess_ratios: tuple[float, ...] = ()
    mean_ratio: Optional[float] = None
    quantiles: tuple[float, ...] = ()   # min, q25, median, q75, max
    frac_below_three_fifths: Optional[float] = None

    def to_json(self) -> dict:
        return asdict(self)


def concentration_sample(n: int, p: float, theta: float, cap_multiplier: float,
                         trials: int, seed: int) -> ConcentrationSummary:
    """Sample |capped family| / mu and excess mass / mu over fresh graphs.

    Trial t uses the graph seed derived from (seed, t); the cap is
    cap_multiplier * mu0 from the (n, p, theta) profile; each family is
    enumerated under enumerate_isets' default limit. ValueError unless
    trials and seed are counts and cap_multiplier is >= 0 and finite.
    """
    _count("trials", trials)
    _count("seed", seed)
    _real("cap_multiplier", cap_multiplier, zero=True)
    profile = analytics.build_profile(n, p, theta)
    if trials == 0:
        return ConcentrationSummary(n=n, p=p, theta=theta,
                                    cap_multiplier=cap_multiplier, trials=0,
                                    k0=profile.k0, mu=profile.mu,
                                    cap=None)
    if profile.k0 is None or profile.k0 < 2 or profile.log_mu0 is None:
        raise ValueError("profile lacks a usable k0/mu0 at these parameters")
    mu = profile.mu
    cap = cap_multiplier * profile.mu0
    ratios = []
    excess = []
    for t in range(trials):
        g = generate_gnp(GnpParams(n, p, derive_seed(seed, t)))
        fam = uniform_family(enumerate_isets(g, profile.k0), cap)
        ratios.append(len(fam) / mu)
        excess.append(fam.excess_mass / mu)
    arr = np.array(ratios)
    qs = tuple(float(x) for x in np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0]))
    return ConcentrationSummary(
        n=n, p=p, theta=theta, cap_multiplier=cap_multiplier, trials=trials,
        k0=profile.k0, mu=mu, cap=cap,
        ratios=tuple(round(r, 12) for r in ratios),
        excess_ratios=tuple(round(r, 12) for r in excess),
        mean_ratio=float(arr.mean()),
        quantiles=qs,
        frac_below_three_fifths=float(np.mean(arr <= 3.0 / 5.0)),
    )


def derive_seed(*parts) -> int:
    """Stable 63-bit stream seed from arbitrary labeled parts (SHA-256)."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- experiment sweeps ----------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: the cartesian product of n_list x p_list x seeds x one strategy."""

    n_list: tuple[int, ...]
    p_list: tuple[float, ...]
    seeds: tuple[int, ...]
    strategy: str = "none"
    strategy_params: tuple[tuple[str, float], ...] = ()
    epsilon: float = 1.0
    theta: float = 1.0
    exact_limit: int = _EXACT_LIMIT
    knobs: StripKnobs = field(default_factory=StripKnobs)
    csv_path: Optional[str] = None
    json_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.n_list or not self.p_list or not self.seeds:
            raise ValueError("n_list, p_list and seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"choose from {sorted(STRATEGIES)}")
        _real("epsilon", self.epsilon)
        _real("theta", self.theta)
        for p in self.p_list:
            _real("p", p, 1.0)
        for n in self.n_list:
            _count("n", n, 1)
        for seed in self.seeds:
            _count("seed", seed)
        _count("exact_limit", self.exact_limit)

    def params_dict(self) -> dict[str, float]:
        return dict(self.strategy_params)

    def canonical_text(self) -> str:
        d = asdict(self)
        d.pop("csv_path")
        d.pop("json_path")
        return json.dumps(d, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("ascii")).hexdigest()[:16]


def _strategy_none(g: Graph, params: dict, seed: int) -> EdgeSet:
    return EdgeSet(frozenset())


def _whole(key: str, value: float) -> int:
    """The strategy parameter `key` as an int; ValueError naming
    strategy.<key> unless the value is whole."""
    if value != int(value):
        raise ValueError(f"strategy.{key} must be a whole number, got {value!r}")
    return int(value)


def _strategy_plant_clique(g: Graph, params: dict, seed: int) -> EdgeSet:
    t = _whole("t", params.get("t", 0))
    if t <= 0:
        # default: the doubling construction, a clique on n/log_b(np) vertices;
        # none where np <= 1, since log_b(np) is then not positive
        p = params.get("p", 0.5)
        t = math.ceil(g.n / analytics.log_b(p, g.n * p)) if g.n * p > 1 else 0
    return plant_clique(g, range(min(t, g.n)))


def _strategy_random_budget(g: Graph, params: dict, seed: int) -> EdgeSet:
    return random_budget(g, _whole("m", params["m"]), seed)


def _strategy_bounded_degree(g: Graph, params: dict, seed: int) -> EdgeSet:
    edges, _ = bounded_degree_h(g.n, _whole("delta", params["delta"]), seed)
    return edges


STRATEGIES = {
    "none": _strategy_none,
    "plant_clique": _strategy_plant_clique,
    "random_budget": _strategy_random_budget,
    "bounded_degree": _strategy_bounded_degree,
}

CSV_COLUMNS = [
    "schema_version", "version", "config_hash", "n", "p", "seed", "strategy",
    "strategy_params", "base_edges", "edges_added", "dsatur_colors",
    "strip_colors", "strip_residual_colors", "exact_chi", "predicted_target",
    "working_k", "verify_ok", "error", "wall_ms",
]

TIMING_COLUMNS = {"wall_ms"}


def run_row(config: ExperimentConfig, n: int, p: float, seed: int) -> dict:
    """One (n, p, seed) trial; errors are captured per-row, not raised."""
    from . import __version__  # deferred: the package init imports this module

    row: dict = dict.fromkeys(CSV_COLUMNS, "") | {
        "schema_version": RESULT_SCHEMA_VERSION,
        "version": __version__,
        "config_hash": config.config_hash(),
        "n": n, "p": p, "seed": seed,
        "strategy": config.strategy,
        "strategy_params": json.dumps(config.params_dict(), sort_keys=True),
        "trace": None,
    }
    started = time.perf_counter()
    try:
        base = generate_gnp(GnpParams(n, p, seed))
        params = dict(config.params_dict())
        params.setdefault("p", p)
        strat_seed = derive_seed(seed, n, p, config.strategy)
        added = STRATEGIES[config.strategy](base, params, strat_seed)
        full = union(base, added)
        row["base_edges"] = base.edge_count
        row["edges_added"] = full.edge_count - base.edge_count

        ds = dsatur(full)
        ok = verify_coloring(full, ds)
        row["dsatur_colors"] = ds.num_colors

        profile = analytics.build_profile(n, p, config.theta)
        if profile.k0 is not None and profile.k is not None:
            sc, trace = strip_color(base, added, config.epsilon, profile, config.knobs)
            ok = ok and verify_coloring(full, sc)
            row["strip_colors"] = sc.num_colors
            row["strip_residual_colors"] = trace.residual_colors
            row["trace"] = trace.to_json()
        target, k = analytics.predicted_chromatic(n, p, config.epsilon)
        row["predicted_target"] = "" if target is None else round(target, 6)
        row["working_k"] = "" if k is None else k

        # a row above exact_limit leaves exact_chi blank
        with contextlib.suppress(SizeLimitError):
            row["exact_chi"] = chromatic_exact(full, config.exact_limit)
        row["verify_ok"] = ok
    except Exception as exc:  # per-row capture is the sweep contract
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return row


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[dict]:
    """All rows of the sweep, in canonical (n, p, seed) order; ValueError
    unless workers is a count >= 1."""
    _count("workers", workers, 1)
    keys = [(n, p, seed)
            for n in config.n_list for p in config.p_list for seed in config.seeds]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda k: run_row(config, *k), keys))
    else:
        rows = [run_row(config, *k) for k in keys]
    if config.csv_path:
        with open(config.csv_path, "w", newline="", encoding="ascii") as f:
            f.write(rows_to_csv(rows))
    if config.json_path:
        with open(config.json_path, "w", encoding="ascii") as f:
            json.dump({"schema_version": RESULT_SCHEMA_VERSION,
                       "config": json.loads(config.canonical_text()),
                       "rows": rows}, f, indent=1, sort_keys=True)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def comparable_table(rows: list[dict]) -> list[tuple]:
    """Row tuples with timing fields dropped and values stringified, for
    reproducibility comparisons across runs, emitters and worker counts."""
    table = []
    for row in rows:
        table.append(tuple(str(row.get(c, "")) for c in CSV_COLUMNS
                           if c not in TIMING_COLUMNS))
    return table


def parse_config(text: str) -> ExperimentConfig:
    """Plain-text key=value config (one per line, '#' comments).

    Lists are comma-separated (n=30,40); seeds accept 'a..b' ranges;
    strategy parameters are strategy.key=value lines and must be finite.
    ValueError naming the key for a key given twice, an unknown key and a
    value that does not convert.
    """
    fields: dict = {}
    strat_params: dict[str, float] = {}
    knobs: dict = {}
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ValueError(f"config key {key!r} is repeated")
        seen.add(key)
        try:
            if key.startswith("strategy."):
                number = strat_params[key[len("strategy."):]] = float(value)
                if not math.isfinite(number):
                    raise ValueError(f"must be finite, got {value!r}")
            elif key == "n":
                fields["n_list"] = tuple(int(x) for x in value.split(","))
            elif key == "p":
                fields["p_list"] = tuple(float(x) for x in value.split(","))
            elif key == "seeds":
                if ".." in value:
                    lo, hi = value.split("..")
                    fields["seeds"] = tuple(range(int(lo), int(hi) + 1))
                else:
                    fields["seeds"] = tuple(int(x) for x in value.split(","))
            elif key == "strategy":
                fields["strategy"] = value
            elif key in ("epsilon", "theta"):
                fields[key] = float(value)
            elif key == "exact_limit":
                fields["exact_limit"] = int(value)
            elif key == "csv":
                fields["csv_path"] = value
            elif key == "json":
                fields["json_path"] = value
            elif key.startswith("knobs."):
                name = key[len("knobs."):]
                defaults = asdict(StripKnobs())
                if name not in defaults:
                    raise ValueError(f"unknown knob {name!r}")
                knobs[name] = type(defaults[name])(value)
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return ExperimentConfig(knobs=StripKnobs(**knobs),
                            strategy_params=tuple(sorted(strat_params.items())), **fields)
