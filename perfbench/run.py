"""Benchmark for chromres: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload strip-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Runs the program from ``src/`` of the checkout that holds this file. With
``--trace 0`` it times as many whole passes over the workload's instances as
fit ``--seconds`` and reports the end-to-end metrics named in
BENCHMARK.json, in seconds scaled to a reference host speed. With ``--trace 1`` it runs set-up and two passes over the
instances traced and reports the per-layer metrics; the spans go to
``.perfbench-out/trace-<workload>-seed<seed>.jsonl``. Every output is
checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def load_program():
    """The chromres modules from this checkout's src/; exits with an error if absent."""
    if not (SRC / "chromres" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'chromres'}")
    sys.path.insert(0, str(SRC))
    import chromres
    if Path(chromres.__file__).resolve().parent != (SRC / "chromres").resolve():
        sys.exit(f"perfbench: chromres imported from {chromres.__file__}, not {SRC}")
    from chromres import adversary, analytics, coloring, graph, isets, lab
    return types.SimpleNamespace(graph=graph, analytics=analytics, isets=isets,
                                 coloring=coloring, adversary=adversary, lab=lab)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_id() -> dict:
    """The program's git commit, if the checkout has one, and a hash of its source."""
    src = hashlib.sha256()
    for path in sorted((SRC / "chromres").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_commit(), "source_sha256": src.hexdigest()[:16]}


def provenance(wl, seed):
    import numpy
    return {
        "workload": wl.name, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **source_id(), **wl.provenance(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Tally:
    """Operation counts and failures, with outputs judged against references.

    A record with no recorded reference is compared with the first record of
    the same instance in this run, so repeats must agree bit for bit.
    """

    def __init__(self, references: dict):
        self.references = references
        self.seen: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unreferenced: set[str] = set()

    def fail(self, key, count, why):
        self.attempted += count
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    def run(self, wl, item) -> tuple[float, list[float]]:
        """Run and check one item; returns the call's seconds and its ops' seconds."""
        key = wl.key(item)
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.fail(key, wl.ops_in(item), traceback.format_exc(limit=3))
            return elapsed, [elapsed] * wl.ops_in(item)
        elapsed = time.perf_counter() - t0
        try:
            records = wl.check(item, out)
        except Exception:
            self.fail(key, wl.ops_in(item), "check raised " + traceback.format_exc(limit=3))
            return elapsed, [elapsed] * wl.ops_in(item)
        records = json.loads(json.dumps(records))
        if key not in self.references:
            self.unreferenced.add(key)
        want = self.references.get(key) or self.seen.setdefault(key, [r for r, _ in records])
        for i, (rec, problems) in enumerate(records):
            if i >= len(want) or rec != want[i]:
                problems.append(f"record {rec} != reference {want[i] if i < len(want) else None}")
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{key}[{i}]: {'; '.join(problems)}")
        return elapsed, wl.op_times(out, elapsed)


# Host speed. On the shared 2-core machine of the baseline the same call
# takes from 0.7 s to 1.1 s as the host flips between speed states several
# times a second, and the share of slow time drifts from minute to minute,
# so medians of raw seconds moved by a third between two sets of runs of the
# same code. CPU time moves with wall time, so it does not help. Every call
# is therefore timed between two readings of a fixed piece of work, and its
# seconds are scaled to what they would have been at the reference reading.
REF_SPEED_S = 0.004  # a typical reading on the baseline machine
_SPEED_ROWS = [int.from_bytes(hashlib.sha256(b"%d" % i).digest() * 10, "big") for i in range(4)]
_SPEED_INDEX = {i: i for i in range(0, 2560, 2)}


def _fixed_work(rounds: int) -> None:
    for _ in range(rounds):
        acc = 0
        for row in _SPEED_ROWS:
            while row:
                low = row & -row
                acc += _SPEED_INDEX.get(low.bit_length() - 1, 0)
                row ^= low
        acc += sum(map(int, " ".join(map(str, range(acc % 7, 400))).split()))


def host_speed_s(threads: int = 1) -> float:
    """Seconds per round of fixed pure-Python work, eight rounds timed now.

    The work is the benchmark's own: bit scans of big-integer rows, dict
    lookups and an integer text round trip, the staples of the program. With
    threads > 1 the rounds are shared among that many threads, as the
    program shares a sweep's rows, so the reading includes what the threads
    lose to each other.
    """
    gc.disable()
    t0 = time.perf_counter()
    if threads == 1:
        _fixed_work(8)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_fixed_work, [8 // threads] * threads))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed / 8


def timed_run(wl, tally, seconds):
    """Set up several times, then run whole passes over the items.

    A call's seconds, and those of the operations in it, are scaled by
    REF_SPEED_S over the mean of the host speed readings just before and
    just after it, taken on as many threads as the program uses. Each item
    runs once in every pass, and it and each of its operations count with
    their median pass.
    """
    setup_times = []
    speed = host_speed_s(wl.workers)
    while len(setup_times) < 5 or (sum(setup_times) < 1.0 and len(setup_times) < 200):
        gc.collect()
        t0 = time.perf_counter()
        items = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_speed = (speed + host_speed_s(wl.workers)) / 2
    walls = [[] for _ in items]  # per item, one scaled call time per pass
    op_times = [[] for _ in items]  # per item, one list of scaled op times per pass
    raw = [[] for _ in items]  # per item, per pass: call seconds, speed before, after
    start = time.perf_counter()
    speed = host_speed_s(wl.workers)
    while True:
        for item, item_walls, item_ops, item_raw in zip(items, walls, op_times, raw):
            before = speed
            elapsed, times = tally.run(wl, item)
            speed = host_speed_s(wl.workers)
            scale = REF_SPEED_S / ((before + speed) / 2)
            item_walls.append(elapsed * scale)
            item_ops.append([t * scale for t in times])
            item_raw.append((elapsed, before, speed))
        done = len(walls[0])
        # whole passes while the next one would end less than half a pass late
        if (time.perf_counter() - start) * (done + 0.5) / done > seconds:
            break
    ops = tally.attempted
    metrics = {
        "ops_per_s": (sum(wl.ops_in(item) for item in items)
                      / sum(statistics.median(w) for w in walls)),
        "op_p50_s": statistics.median(statistics.median(per_op) for item_ops in op_times
                                      for per_op in zip(*item_ops)),
        "setup_s": statistics.median(setup_times) * REF_SPEED_S / setup_speed,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (ops - tally.failed) / ops if ops else 0.0,
    }
    detail = {"passes": done, "items": len(items), "ops": ops,
              "ref_speed_s": REF_SPEED_S, "setup_times_s": setup_times,
              "setup_speed_s": setup_speed, "item_times_s": walls,
              "op_times_s": op_times, "raw_call_speed_s": raw}
    return metrics, detail


# --- per-layer ----------------------------------------------------------------


def _count_induced(counts, result):
    counts["graph.induced_subgraph.verts"] += len(result[1])


def _count_enumerated(counts, family):
    counts["isets.enumerate_isets.sets"] += len(family.sets)
    counts["isets.enumerate_isets.empty"] += not family.sets


def _count_capped(counts, family):
    counts["isets.uniform_family.kept"] += len(family.sets)
    counts["isets.uniform_family.enumerated"] += len(family.sets) + family.deleted


def _count_routes(counts, result):
    for r in result[1].rounds:
        counts[f"coloring.strip_color.rounds.{r[2]}"] += 1


def _count_text(counts, text):
    counts["graph.text.bytes"] += len(text)


# Quantities that stay 0 on a workload that never reaches their layer.
COUNTED = ("graph.induced_subgraph.verts", "isets.enumerate_isets.sets",
           "graph.text.bytes", "lab.row_wall_s", "lab.parallel_eff",
           *(f"coloring.strip_color.rounds.{r}" for r in ("greedy", "family", "enum", "exact-alpha")))

HOOKS = {
    "graph.induced_subgraph": _count_induced,
    "isets.enumerate_isets": _count_enumerated,
    "isets.uniform_family": _count_capped,
    "coloring.strip_color": _count_routes,
    "graph.to_edge_list": _count_text,
    "graph.to_dimacs": _count_text,
}


def span_cost_s() -> float:
    """Seconds a span adds to a call, measured on a no-op in this process."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop")
    calls = 20000
    best = {noop: float("inf"), traced: float("inf")}
    for _ in range(5):
        for fn in best:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return max(best[traced] - best[noop], 0.0) / calls


def traced_run(wl, tally, seed):
    """Set-up and two passes over the items, traced, after an untraced warm-up.

    The overhead is the span count times the cost of one span, measured in
    the same process: the traced wall minus an untraced one is smaller than
    the host's drift between the two.
    """
    wl.trace_config()
    tracer = Tracer(HOOKS)
    tally.run(wl, wl.setup()[0])  # warm-up, so that tracing does not pay for first use
    gc.collect()
    with tracer.installed():
        t0 = time.perf_counter()
        items = wl.setup()
        for _ in range(2):
            for item in items:
                tally.run(wl, item)
        traced_s = time.perf_counter() - t0
    summary = tracer.summary()
    metrics = dict.fromkeys(COUNTED, 0.0)
    for name in tracer.names:
        metrics[f"{name}.self_s"] = summary["self_s"].get(name, 0.0)
        metrics[f"{name}.calls"] = summary["calls"].get(name, 0)
    metrics.update(tracer.counts)
    metrics["analytics.self_s"] = sum((v for k, v in summary["self_s"].items()
                                       if k.startswith("analytics.")), 0.0)
    calls = summary["calls"]
    metrics["isets.enumerate_isets.empty_frac"] = (
        tracer.counts["isets.enumerate_isets.empty"] / calls["isets.enumerate_isets"]
        if calls.get("isets.enumerate_isets") else 0.0)
    enumerated = tracer.counts["isets.uniform_family.enumerated"]
    metrics["isets.uniform_family.kept_frac"] = (
        tracer.counts["isets.uniform_family.kept"] / enumerated if enumerated else 0.0)
    metrics["trace.wall_s"] = traced_s
    spans = len(tracer.records) // 5
    metrics["trace.spans"] = spans
    metrics["trace.overhead_s"] = spans * span_cost_s()
    metrics["trace.spans_s"] = summary["root_s"]
    metrics["bench.glue_s"] = traced_s - summary["root_s"]
    metrics.update(wl.trace_extra(items))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": wl.name, "seed": seed, "summary": summary})
    detail = {"trace_file": str(path.relative_to(ROOT)), "items": len(items),
              "ops": tally.attempted, "spans": spans,
              "self_s": dict(sorted(summary["self_s"].items(), key=lambda kv: -kv[1]))}
    return metrics, detail


# --- entry points -------------------------------------------------------------


def run_one(args) -> int:
    m = load_program()
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "references.json").read_text())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = WORKLOADS[args.workload](m, args.seed, scratch)
        tally = Tally(references.get(wl.name, {}))
        if args.trace:
            computed, detail = traced_run(wl, tally, args.seed)
            wanted = spec["per_layer"]
        else:
            computed, detail = timed_run(wl, tally, args.seconds)
            wanted = spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in computed]
    if missing:
        sys.exit(f"perfbench: no value for metric(s) {missing}")
    metrics = {w["name"]: {"value": computed[w["name"]], "unit": w["unit"]}
               for w in wanted}
    prov = provenance(wl, args.seed)
    prov.update(ops=tally.attempted, references="recorded" if not tally.unreferenced
                else f"in-run for {len(tally.unreferenced)} instance(s)")
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as f:
        json.dump({**result, "provenance": prov, "detail": detail,
                   "failures": tally.failures}, f, indent=1)
    for why in tally.failures:
        print(f"FAILED {why}", file=sys.stderr)
    for name, mv in metrics.items():
        print(f"{wl.name}  {name} = {mv['value']:.6g} {mv['unit']}")
    print(f"{wl.name}  provenance {json.dumps(prov, sort_keys=True)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, mv in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = mv
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
