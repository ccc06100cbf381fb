#!/usr/bin/env python3
"""Records the reference output digests that run.py checks every call
against (perfbench/digests.json).

A digest is FNV-1a over a resolve's labels and merge sequence. For the
batch workloads there is one per corpus; for movies-stream one per
batch of the round. Recording runs the same rounds a benchmark run of
RUN_SECONDS makes, so every corpus a run of a recorded seed resolves is
covered. Re-record only when a change is meant to alter labels or
merge_sequence, and say so in the change.

  python3 perfbench/record_digests.py --seeds 0-20 4242
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_seconds():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return int(json.load(f)["run_seconds"])


def parse_seeds(items):
    seeds = []
    for item in items:
        if "-" in item:
            lo, hi = item.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def write_digests(digests, path):
    """One line per corpus, sorted, so a re-recording diffs line by line."""
    lines = []
    for workload in sorted(digests):
        table = digests[workload]
        rows = ["  %s: %s" % (json.dumps(k), json.dumps(table[k]))
                for k in sorted(table, key=int)]
        lines.append(" %s: {\n%s\n }" % (json.dumps(workload), ",\n".join(rows)))
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--out", default=run.DIGESTS)
    args = ap.parse_args()
    run.build()
    seconds = run_seconds()
    digests = run.load_digests(args.out) if os.path.exists(args.out) else {}
    for workload in args.workloads:
        table = digests.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            output, _ = run.run_binary(workload, seed, seconds, 0)
            for rnd in output["result"]["rounds"]:
                calls = rnd["calls"]
                if not all(c["ok"] for c in calls):
                    sys.exit("%s corpus %d did not complete"
                             % (workload, rnd["corpus_seed"]))
                d = [c["digest"] for c in calls]
                table[str(int(rnd["corpus_seed"]))] = d if len(d) > 1 else d[0]
            run.log("%s seed %d: %d rounds" % (workload, seed,
                                               len(output["result"]["rounds"])))
            write_digests(digests, args.out)


if __name__ == "__main__":
    main()
