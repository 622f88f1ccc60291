"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload builds a list of items from the workload seed in `setup`,
runs one item per `run` call (the timed part), and turns the output into one
record per operation in `check`. A record holds a digest and the values a
reader wants to see (colors, alpha, chi, resilience); the runner compares it
with the reference recorded for that item's instance (see record.py), or, for
an instance without one, with the first record of the same item in the run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import time

from checks import (
    added_edge_problems,
    coloring_problems,
    digest,
    independence_problems,
    instance_seed,
    text_digest,
    union_rows,
)

P = 0.5


def _route_counts(rounds) -> dict:
    routes: dict[str, int] = {}
    for r in rounds:
        routes[r[2]] = routes.get(r[2], 0) + 1
    return routes


class Workload:
    name = ""
    workers = 1  # threads the program runs the operations on

    def __init__(self, m, seed: int, scratch: str):
        self.m = m  # namespace of chromres modules; calls go through it
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> list:
        raise NotImplementedError

    def key(self, item) -> str:
        """Name of the item's instance, under which its references are kept."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def ops_in(self, item) -> int:
        return 1

    def op_times(self, out, elapsed: float) -> list[float]:
        return [elapsed]

    def check(self, item, out) -> list[tuple[dict, list[str]]]:
        raise NotImplementedError

    def provenance(self) -> dict:
        return {"workers": self.workers}

    def trace_config(self) -> None:
        """Switch to the configuration of the traced run."""

    def trace_extra(self, items) -> dict:
        """Per-layer metrics that need an untraced pass of their own."""
        return {}


class StripLarge(Workload):
    name = "strip-large"
    # G(600): 55 of 75 rounds take the greedy route (G(800): 73 of 95), and
    # one call takes about 3.5 s. Two instances, because the call's time
    # varies from graph to graph as much as the host's speed does.
    N = 600
    INSTANCES = 2

    def setup(self):
        m, n = self.m, self.N
        # the lab's default clique size, t = ceil(n / log_b(np)) with b = 1/(1-p)
        t = math.ceil(n / (math.log(n * P) / math.log(1.0 / (1.0 - P))))
        profile = m.analytics.build_profile(n, P, 1.0)
        items = []
        for i in range(self.INSTANCES):
            params = m.graph.GnpParams(n, P, instance_seed(self.name, self.seed, i))
            g = m.graph.generate_gnp(params)
            items.append((params, g, m.adversary.plant_clique(g, range(t)), profile))
        return items

    def key(self, item):
        return f"n={item[0].n},seed={item[0].seed},clique={len(item[2].pairs)}"

    def run(self, item):
        _, g, added, profile = item
        return self.m.coloring.strip_color(g, added, 1.0, profile)

    def check(self, item, out):
        _, g, added, _ = item
        col, trace = out
        problems = coloring_problems(union_rows(g.rows, added.pairs), col.colors, col.num_colors)
        if sum(trace.bucket_counts) + trace.residual_colors != col.num_colors:
            problems.append("trace buckets do not sum to the color count")
        rounds = [list(r) for r in trace.rounds]
        rec = {"digest": digest([list(col.colors), col.num_colors, rounds]),
               "colors": col.num_colors, "routes": _route_counts(rounds)}
        return [(rec, problems)]


class SweepFamily(Workload):
    name = "sweep-family"
    # Three sizes, so that the median row lies inside the middle size's
    # cluster of row times rather than in the gap between two clusters. One
    # sweep per graph seed, eight of them, because a row's time varies by a
    # fifth from graph to graph; a sweep takes about 1.4 s.
    N_LIST = (100, 125, 150)
    SWEEPS = 8
    WORKERS = 2
    # Result columns of a row; metadata (versions, config hash) and timing
    # are left out so that the digest only moves when a result moves.
    COLUMNS = ("n", "p", "seed", "strategy", "strategy_params", "base_edges",
               "edges_added", "dsatur_colors", "strip_colors",
               "strip_residual_colors", "exact_chi", "predicted_target",
               "working_k", "verify_ok", "error")

    def __init__(self, m, seed, scratch):
        super().__init__(m, seed, scratch)
        self.workers = self.WORKERS

    def setup(self):
        items = []
        for i in range(self.SWEEPS):
            base = os.path.join(self.scratch, f"sweep-{i}")
            text = (f"n={','.join(map(str, self.N_LIST))}\np={P}\n"
                    f"seeds={instance_seed(self.name, self.seed, i)}\n"
                    f"strategy=plant_clique\ncsv={base}.csv\njson={base}.json\n")
            items.append(self.m.lab.parse_config(text))
        return items

    def key(self, item):
        return f"seeds={digest(list(item.seeds))}"

    def run(self, item):
        return self.m.lab.run_experiment(item, workers=self.workers)

    def ops_in(self, item):
        return len(item.n_list) * len(item.p_list) * len(item.seeds)

    def op_times(self, out, elapsed):
        return [row["wall_ms"] / 1000.0 for row in out]

    def _row_key(self, row) -> list:
        rounds = row["trace"]["rounds"] if row.get("trace") else None
        return [str(row.get(c, "")) for c in self.COLUMNS] + [rounds]

    def check(self, item, out):
        file_problems = []
        if len(out) != self.ops_in(item):
            file_problems.append(f"{len(out)} rows, expected {self.ops_in(item)}")
        with open(item.csv_path, newline="", encoding="ascii") as f:
            csv_rows = list(csv.DictReader(f))
        with open(item.json_path, encoding="ascii") as f:
            json_rows = json.load(f)["rows"]
        want = [digest(self._row_key(r)) for r in out]
        if ([[r.get(c) for c in self.COLUMNS] for r in csv_rows]
                != [self._row_key(r)[:-1] for r in out]):
            file_problems.append("CSV file differs from the returned rows")
        if [digest(self._row_key(r)) for r in json_rows] != want:
            file_problems.append("JSON file differs from the returned rows")
        records = []
        for row, d in zip(out, want):
            problems = list(file_problems)
            if row["error"]:
                problems.append(f"row error: {row['error']}")
            if row["verify_ok"] is not True:
                problems.append("row verify_ok is not True")
            trace = row.get("trace")
            if trace and sum(trace["bucket_counts"]) + trace["residual_colors"] != row["strip_colors"]:
                problems.append("trace buckets do not sum to strip_colors")
            records.append(({"digest": d, "strip_colors": row["strip_colors"],
                             "dsatur_colors": row["dsatur_colors"]}, problems))
        return records

    def trace_config(self):
        self.workers = 1  # every span lands in this process and thread

    def trace_extra(self, items):
        """Row wall and parallel efficiency of one untraced pass at the
        workload's own worker count."""
        row_wall = wall = 0.0
        for item in items:
            t0 = time.perf_counter()
            rows = self.m.lab.run_experiment(item, workers=self.WORKERS)
            wall += time.perf_counter() - t0
            row_wall += sum(r["wall_ms"] for r in rows) / 1000.0
        return {"lab.row_wall_s": row_wall,
                "lab.parallel_eff": row_wall / (self.WORKERS * wall)}


class ExactSearch(Workload):
    name = "exact-search"
    # (kind, n, instances). Branch-and-bound times on these graphs are
    # heavy-tailed (chromatic_exact on G(60,1/2) took 0.2 s to 25 s across
    # twelve draws), so a seed-drawn set of a few instances would make a run's
    # throughput a property of the draw. Every run therefore solves one fixed
    # bank; the workload seed sets the order. One chi instance keeps a pass
    # near 4 s (the bank's second draw alone took 6 s), so a run makes
    # several passes.
    BANK = (("mis", 200, 4), ("chi", 60, 1), ("global", 10, 4), ("local", 10, 4))

    def setup(self):
        m = self.m
        items = []
        for kind, n, count in self.BANK:
            for i in range(count):
                g = m.graph.generate_gnp(m.graph.GnpParams(n, P, instance_seed(self.name, kind, n, i)))
                cap = m.coloring.chromatic_exact(g) + 1 if kind in ("global", "local") else None
                items.append((f"{kind}-n{n}-{i}", kind, g, cap))
        random.Random(instance_seed(self.name, self.seed)).shuffle(items)
        return items

    def key(self, item):
        return item[0]

    def run(self, item):
        _, kind, g, cap = item
        m = self.m
        if kind == "mis":
            return m.isets.max_independent_set(g, limit=g.n)
        if kind == "chi":
            return m.coloring.chromatic_exact(g, limit=60)
        if kind == "global":
            return m.adversary.global_resilience_witness(g, cap, 6)
        return m.adversary.local_resilience_witness(g, cap, 3, size_limit=10)

    def check(self, item, out):
        _, kind, g, cap = item
        rec = {"graph": digest(list(g.rows))}
        problems: list[str] = []
        if kind == "mis":
            problems = independence_problems(g.rows, out)
            rec.update(alpha=len(out), digest=digest(list(out)))
        elif kind == "chi":
            rec.update(chi=out)
        else:
            rec["chi_cap"] = cap
            if out is None:
                rec["value"] = None
            else:
                value, witness = out
                pairs = sorted(witness.pairs)
                if kind == "global" and len(pairs) != value:
                    problems.append(f"witness has {len(pairs)} edges, value is {value}")
                problems += added_edge_problems(
                    g.rows, pairs, max_degree=value if kind == "local" else None)
                rec.update(value=value, digest=digest(pairs))
        return [(rec, problems)]


class GraphIO(Workload):
    name = "graph-io"
    # G(1000): about 250k edges and 4.4 MB of text in the two formats; one
    # round trip takes about 2 s, so a run repeats each instance several times.
    N = 1000
    INSTANCES = 2

    def setup(self):
        m = self.m
        return [m.graph.GnpParams(self.N, P, instance_seed(self.name, self.seed, i))
                for i in range(self.INSTANCES)]

    def key(self, params):
        return f"n={params.n},seed={params.seed}"

    def run(self, params):
        m = self.m.graph
        g = m.generate_gnp(params)
        edge_list = m.to_edge_list(g)
        dimacs = m.to_dimacs(g)
        return g, edge_list, dimacs, m.parse_edge_list(edge_list), m.parse_dimacs(dimacs)

    def check(self, params, out):
        g, edge_list, dimacs, from_edge_list, from_dimacs = out
        problems = []
        want = (g.n, g.rows, g.edge_count)
        if (from_edge_list.n, from_edge_list.rows, from_edge_list.edge_count) != want:
            problems.append("parse_edge_list(to_edge_list(g)) != g")
        if (from_dimacs.n, from_dimacs.rows, from_dimacs.edge_count) != want:
            problems.append("parse_dimacs(to_dimacs(g)) != g")
        rec = {"digest": digest([text_digest(edge_list), text_digest(dimacs)]),
               "edges": g.edge_count, "bytes": len(edge_list) + len(dimacs)}
        return [(rec, problems)]


WORKLOADS = {w.name: w for w in (StripLarge, SweepFamily, ExactSearch, GraphIO)}
