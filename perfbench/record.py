"""Record reference outputs for the benchmark's output checks.

    python3 perfbench/record.py            # seeds 0 to 15

Runs every instance of every workload once, untraced and with one worker,
checks it, and writes one record per operation to perfbench/references.json,
keyed by instance. Seed 0 is the default seed; seed 1 is held out, so that a
later change can be checked on a seed not used while it was written; seeds 2
to 15 are recorded so that runs on them check bit-identity too. The
exact-search bank does not depend on the seed and is recorded once.
Re-record only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import HERE, OUT, load_program, source_id

SEEDS = range(16)


def main() -> int:
    m = load_program()
    from workloads import WORKLOADS
    refs = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for name, cls in WORKLOADS.items():
            table = refs.setdefault(name, {})
            for seed in SEEDS:
                wl = cls(m, seed, scratch)
                wl.trace_config()
                for item in wl.setup():
                    key = wl.key(item)
                    if key in table:
                        continue
                    records = json.loads(json.dumps(wl.check(item, wl.run(item))))
                    bad = [p for _, problems in records for p in problems]
                    if bad:
                        sys.exit(f"record: {name} {key} fails its checks: {bad[:3]}")
                    table[key] = [rec for rec, _ in records]
                    print(f"{name} seed {seed} {key}: {len(records)} record(s)", flush=True)
    refs["recorded_with"] = {**source_id(), "seeds": list(SEEDS)}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
