"""Command-line entry points.

Subcommands: generate, color, isets, attack, resilience, audit, experiment.
Exit codes: 0 success, 1 fatal error, 2 when an experiment finished but some
rows recorded per-row errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from . import analytics
from .adversary import global_resilience_witness, local_resilience_witness
from .coloring import _EXACT_LIMIT, chromatic_exact, degeneracy_color, dsatur, strip_color
from .graph import (
    EdgeSet,
    GnpParams,
    Graph,
    RegimeWarning,
    generate_gnp,
    load_graph,
    save_graph,
    to_edge_list,
    union,
)
from .isets import _SET_LIMIT, enumerate_isets, uniform_family
from .lab import STRATEGIES, density_audit, parse_config, run_experiment

# The one parameter each attack strategy reads, named as its flag
_STRATEGY_KEYS = {"plant_clique": "t", "random_budget": "m", "bounded_degree": "delta"}


def _cmd_generate(args) -> int:
    g = generate_gnp(GnpParams(args.n, args.p, args.seed))
    if args.out:
        save_graph(g, args.out, args.format)
    else:
        sys.stdout.write(to_edge_list(g))
    return 0


def _cmd_color(args) -> int:
    g = load_graph(args.infile)
    out: dict = {"n": g.n, "edges": g.edge_count, "method": args.method}
    if args.method == "dsatur":
        c = dsatur(g)
    elif args.method == "degeneracy":
        c, degeneracy = degeneracy_color(g)
        out["degeneracy"] = degeneracy
    elif args.method == "exact":
        out["chi"] = chromatic_exact(g, args.exact_limit)
        print(json.dumps(out, indent=1))
        return 0
    elif args.method == "strip":
        # the profile trusts --p; warn when the file's edge count lies outside
        # the two-sided Hoeffding tail of 1e-6 around p * C(n, 2)
        pairs = g.n * (g.n - 1) // 2
        slack = math.sqrt(pairs * math.log(2e6) / 2)
        if abs(g.edge_count - args.p * pairs) > slack:
            warnings.warn(f"{g.edge_count} edges on n={g.n} are implausible for p={args.p}: "
                          f"p * C(n, 2) = {args.p * pairs:.1f} +- {slack:.1f}", RegimeWarning)
        profile = analytics.build_profile(g.n, args.p, args.theta)
        c, trace = strip_color(g, EdgeSet(frozenset()), args.epsilon, profile)
        out["trace"] = trace.to_json()
    out["num_colors"] = c.num_colors
    out["colors"] = list(c.colors)
    print(json.dumps(out, indent=1))
    return 0


def _cmd_isets(args) -> int:
    g = load_graph(args.infile)
    fam = enumerate_isets(g, args.k, args.limit)
    if args.cap is not None:
        fam = uniform_family(fam, args.cap)
    print(json.dumps(fam.to_json(), indent=1))
    return 0


def _cmd_attack(args) -> int:
    g = load_graph(args.infile)
    key = _STRATEGY_KEYS[args.strategy]
    params = {key: getattr(args, key)}
    e = STRATEGIES[args.strategy](g, params, args.seed)
    if key == "delta":
        params["realized_max_degree"] = e.max_degree()
    wrapper = {
        "strategy": args.strategy,
        "params": params,
        "seed": args.seed,
        "m": e.m,
        "edges": [list(pr) for pr in e.sorted_pairs()],
    }
    print(json.dumps(wrapper, indent=1))
    if args.edges_out:
        save_graph(Graph.from_edges(g.n, e.pairs), args.edges_out)
    if args.out:
        save_graph(union(g, e), args.out)
    return 0


def _cmd_resilience(args) -> int:
    g = load_graph(args.infile)
    if args.mode == "global":
        hit = global_resilience_witness(g, args.chi_cap, args.m_max)
    else:
        hit = local_resilience_witness(g, args.chi_cap, args.delta_max)
    if hit is None:
        print(json.dumps({"mode": args.mode, "chi_cap": args.chi_cap, "result": None}))
        return 0
    value, witness = hit
    print(json.dumps({
        "mode": args.mode,
        "chi_cap": args.chi_cap,
        "result": value,
        "witness_edges": [list(pr) for pr in witness.sorted_pairs()],
    }, indent=1))
    if args.edges_out:
        save_graph(Graph.from_edges(g.n, witness.pairs), args.edges_out)
    return 0


def _cmd_audit(args) -> int:
    g = load_graph(args.infile)
    report = density_audit(g, args.p, args.epsilon, mode=args.mode,
                           samples=args.samples, seed=args.seed)
    print(json.dumps(report.to_json(), indent=1))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="ascii") as f:
        config = parse_config(f.read())
    rows = run_experiment(config, workers=args.workers)
    errors = [r for r in rows if r["error"]]
    print(f"{len(rows)} rows, {len(errors)} with errors"
          + (f", csv -> {config.csv_path}" if config.csv_path else "")
          + (f", json -> {config.json_path}" if config.json_path else ""))
    return 2 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chromres")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("generate", help="draw a seeded random graph")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
    s.set_defaults(func=_cmd_generate)

    s = sub.add_parser("color", help="color a graph file")
    s.add_argument("infile")
    s.add_argument("--method", choices=("dsatur", "exact", "degeneracy", "strip"),
                   default="dsatur")
    s.add_argument("--exact-limit", type=int, default=_EXACT_LIMIT)
    s.add_argument("--p", type=float, default=0.5,
                   help="edge probability the strip profile assumes")
    s.add_argument("--epsilon", type=float, default=1.0)
    s.add_argument("--theta", type=float, default=1.0)
    s.set_defaults(func=_cmd_color)

    s = sub.add_parser("isets", help="enumerate independent k-sets")
    s.add_argument("infile")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--cap", type=float, default=None)
    s.add_argument("--limit", type=int, default=_SET_LIMIT)
    s.set_defaults(func=_cmd_isets)

    s = sub.add_parser("attack", help="produce an adversarial edge set")
    s.add_argument("infile")
    s.add_argument("--strategy",
                   choices=tuple(_STRATEGY_KEYS), required=True)
    s.add_argument("--t", type=int, default=0,
                   help="clique size for plant_clique, as in sweeps: t <= 0 plants the "
                        "default clique for p = 1/2, and t is capped at n")
    s.add_argument("--m", type=int, default=0, help="edge budget for random_budget")
    s.add_argument("--delta", type=int, default=0, help="degree cap for bounded_degree")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="write the attacked graph here")
    s.add_argument("--edges-out", default=None,
                   help="write the added edges alone, edge-list format")
    s.set_defaults(func=_cmd_attack)

    s = sub.add_parser("resilience", help="exact resilience oracle (tiny n)")
    s.add_argument("infile")
    s.add_argument("--mode", choices=("global", "local"), default="global")
    s.add_argument("--chi-cap", type=int, required=True)
    s.add_argument("--m-max", type=int, default=10)
    s.add_argument("--delta-max", type=int, default=4)
    s.add_argument("--edges-out", default=None,
                   help="write the witness edges, edge-list format")
    s.set_defaults(func=_cmd_resilience)

    s = sub.add_parser("audit", help="small-subset density audit")
    s.add_argument("infile")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    s.add_argument("--samples", type=int, default=0,
                   help="subsets drawn per size; sampled mode needs >= 1")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_audit)

    s = sub.add_parser("experiment", help="run a key=value config sweep")
    s.add_argument("config")
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
