#!/usr/bin/env python3
"""End-to-end HERA benchmark.

Builds the HERA library and the benchmark binary (perfbench/CMakeLists.txt)
into .bench_build/ at the repository root, runs one workload, checks every
output against the recorded digests (perfbench/digests.json), and prints the
metrics. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

  python3 perfbench/run.py --workload movies-batch --seed 7 --seconds 30 --trace 0
  python3 perfbench/run.py --workload movies-stream --trace 1   # layer run
  python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl        # regression check

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
Workloads, metrics and the layer -> end-to-end table: perfbench/README.md.
"""

import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hera_e2e_bench")
DIGESTS = os.path.join(HERE, "digests.json")
CHILD_TIMEOUT_S = 170

WORKLOADS = ("movies-batch", "pubs-batch", "movies-stream")

# (name, unit, better, bound): bound is the share of the base median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("f1", "share", "higher", 0.05),
    ("success_rate", "share", "higher", 0.05),
]

# (name, unit, better)
PER_LAYER = [
    ("data.generate_s", "s", "lower"),
    ("simjoin.join_s", "s", "lower"),
    ("simjoin.ns_per_candidate", "ns", "lower"),
    ("simjoin.candidates", "count", "lower"),
    ("simjoin.emitted", "count", "lower"),
    ("simjoin.candidates_per_emitted", "ratio", "lower"),
    ("simjoin.speedup_4t", "x", "higher"),
    ("index.pairs", "count", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.bytes_per_pair", "B", "lower"),
    ("index.enumerate_ms", "ms", "lower"),
    ("index.groups", "count", "lower"),
    ("index.pairs_for_us", "us", "lower"),
    ("index.bounds_ms", "ms", "lower"),
    ("index.apply_merge_s", "s", "lower"),
    ("index.apply_merge_us_per_merge", "us", "lower"),
    ("index.replay_final_pairs", "count", "lower"),
    ("index.run_final_pairs", "count", "lower"),
    ("record.merge_us", "us", "lower"),
    ("core.fixpoint_s", "s", "lower"),
    ("core.fixpoint_speedup_4t", "x", "higher"),
    ("core.passes", "count", "lower"),
    ("core.groups_enumerated", "count", "lower"),
    ("core.groups_pruned", "count", "higher"),
    ("core.teardown_ms", "ms", "lower"),
    ("core.verify_ms", "ms", "lower"),
    ("core.verifications", "count", "lower"),
    ("matching.km_calls", "count", "lower"),
    ("schema.decided_matchings", "count", "higher"),
    ("persist.checkpoint_share", "share", "lower"),
    ("persist.snapshot_write_ms", "ms", "lower"),
    ("persist.snapshot_bytes", "B", "lower"),
    ("persist.wal_bytes_per_batch", "B", "lower"),
    ("persist.recover_ms", "ms", "lower"),
    ("self.simjoin_ms", "ms", "lower"),
    ("self.index_ms", "ms", "lower"),
    ("self.core_ms", "ms", "lower"),
    ("self.record_ms", "ms", "lower"),
    ("trace.untraced_p50_ms", "ms", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

# F1 below this means the resolver is broken, whatever the digests say.
F1_FLOOR = 0.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ----------------------------------------------------------------- build


def build():
    """Configures (once) and builds hera_e2e_bench; output goes to stderr.
    The binary itself refuses to run from a sanitizer build."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "hera.h"))):
        raise BenchError("HERA sources not found at " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release", "-DHERA_SANITIZE=OFF"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                        "hera_e2e_bench", "-j", jobs])


def run_build_step(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        stop(proc)
        raise
    sys.stderr.write(out.decode(errors="replace")[-4000:])
    if proc.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


# ------------------------------------------------------------------- run


def run_binary(workload, seed, seconds, trace):
    """Runs hera_e2e_bench; returns (parsed output, peak RSS in MB)."""
    workdir = os.path.join(ROOT, ".bench_build", "work",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out_path = os.path.join(workdir, "stdout.json")
    env = dict(os.environ)
    env.pop("HERA_PERSIST_CRASH", None)  # Crash-test hook; kills the stream.
    try:
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                [BINARY, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--workdir", workdir],
                stdout=out, cwd=ROOT, env=env, start_new_session=True)
            try:
                status, rusage = wait_with_timeout(proc.pid, CHILD_TIMEOUT_S)
            except BaseException:
                stop(proc)
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
            raise BenchError("hera_e2e_bench failed (wait status %d)" % status)
        keep_spans(workdir)
        with open(out_path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            raise BenchError("hera_e2e_bench printed nothing")
        return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def stop(proc):
    """Stops a child's process group and waits for it. SIGTERM first:
    ninja runs each compiler in a group of its own and stops them only
    when it is asked to terminate, not when it is killed."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=10)
            break
        except subprocess.TimeoutExpired:
            pass
    proc.wait()
    # Grandchildren whose parent died were reparented to this process
    # (see become_subreaper); wait for them too.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def become_subreaper():
    """Makes orphaned descendants (compilers of a stopped build) children
    of this process, so stop() can wait for them. Linux only."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def keep_spans(workdir):
    """Moves the layer run's span files to .bench_build/traces/."""
    traces = os.path.join(ROOT, ".bench_build", "traces")
    for name in os.listdir(workdir):
        if name.startswith("spans-"):
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(workdir, name), os.path.join(traces, name))


def wait_with_timeout(pid, timeout_s):
    deadline = time.monotonic() + timeout_s
    while True:
        wpid, status, rusage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            return status, rusage
        if time.monotonic() > deadline:
            raise BenchError("hera_e2e_bench exceeded %d s" % timeout_s)
        time.sleep(0.05)


# -------------------------------------------------------- output checks


def load_digests(path=DIGESTS):
    with open(path) as f:
        return json.load(f)


def expected_digests(workload, corpus_seed, digests):
    """Recorded digest per call of one round, or None if not recorded."""
    ref = digests.get(workload, {}).get(str(corpus_seed))
    if ref is None:
        return None
    return ref if isinstance(ref, list) else [ref]


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); the maximum when there are fewer than
    eleven samples."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    k = n - 10
    return s[k - 1], 100.0 * k / n, n


def evaluate_e2e(workload, result, peak_rss_mb, digests):
    """Checks every call and computes the end-to-end metrics. Returns
    (correct, attempted, failed, metrics, notes)."""
    attempted = failed = 0
    latencies, setups, f1s = [], [], []
    records = 0.0
    timed_s = 0.0
    notes = []
    for rnd in result["rounds"]:
        cs = int(rnd["corpus_seed"])
        expected = expected_digests(workload, cs, digests)
        if expected is None:
            notes.append("corpus seed %d has no recorded digest: calls are "
                         "checked for status and outcome only" % cs)
        elif len(expected) != len(rnd["calls"]):
            raise BenchError("digest record for corpus seed %d has %d calls, "
                             "run made %d" % (cs, len(expected), len(rnd["calls"])))
        for i, call in enumerate(rnd["calls"]):
            attempted += 1
            latencies.append(call["ms"])
            timed_s += call["ms"] / 1000.0
            good = call["ok"] and call["outcome"] == "completed"
            if expected is not None and call["digest"] != expected[i]:
                good = False
                notes.append("corpus seed %d call %d: digest %s, recorded %s"
                             % (cs, i, call["digest"], expected[i]))
            if not good:
                failed += 1
                notes.append("corpus seed %d call %d failed: %s %s"
                             % (cs, i, call["outcome"], call["error"]))
        if "restore" in rnd:
            attempted += 1
            if not rnd["restore"]["ok"]:
                failed += 1
                notes.append("corpus seed %d restore check failed: %s"
                             % (cs, rnd["restore"]["error"]))
        setups.append(rnd["setup_s"])
        f1s.append(rnd["f1"])
        records += rnd["records"]
    f1 = statistics.fmean(f1s)
    tail_ms, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "records_per_s": records / timed_s,
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "f1": f1,
        "success_rate": 1.0 - failed / attempted,
    }
    notes.append("latency_ms_tail is p%g of %d samples" % (tail_pct, n))
    notes.append("error_rate = %g (%d failed / %d attempted)"
                 % (failed / attempted, failed, attempted))
    correct = failed == 0 and f1 >= F1_FLOOR
    return correct, attempted, failed, metrics, notes


def evaluate_layers(workload, seed, result, digests):
    """Checks the layer run's own resolves and collects the per-layer
    metrics. Returns (correct, attempted, failed, metrics, notes)."""
    layers = result["layers"]
    missing = [name for name, _, _ in PER_LAYER if name not in layers]
    if missing:
        raise BenchError("layer run did not report " + ", ".join(missing))
    notes = []
    groups = [(workload, list(result["digests"]))]
    if workload == "movies-stream":
        # The stream's layer probes resolve the whole movie corpus in one
        # batch, which is movies-batch's round 0.
        groups.append(("movies-batch", [result["decomposed_digest"]]))
    attempted = failed = 0
    for name, checked in groups:
        expected = expected_digests(name, seed, digests)
        attempted += len(checked)
        if expected is None:
            notes.append("%s seed %d has no recorded digest: resolves are "
                         "checked against each other only" % (name, seed))
            failed += sum(1 for d in checked if d != checked[0])
        else:
            failed += sum(1 for d in checked if d != expected[-1])
    metrics = {name: float(layers[name]) for name, _, _ in PER_LAYER}
    return failed == 0, attempted, failed, metrics, notes


# ------------------------------------------------------------ comparison


def compare(base, new, end_to_end=END_TO_END):
    """Flags every end-to-end metric whose median over `new` results is
    worse than its median over `base` by more than the metric's bound.
    Both are lists of result objects (the last line run.py prints)."""
    flagged = []
    for name, _, better, bound in end_to_end:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        worse = (n - b) / b if better == "lower" else (b - n) / b
        if worse > bound:
            flagged.append((name, b, n, worse, bound))
    return flagged


def read_results(path):
    results = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                results.append(json.loads(line))
    return results


# ------------------------------------------------------------------ main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two files of result lines and exit 1 on "
                         "a regression beyond a metric's bound")
    args = ap.parse_args(argv)

    if args.compare:
        flagged = compare(read_results(args.compare[0]),
                          read_results(args.compare[1]))
        for name, b, n, worse, bound in flagged:
            print("REGRESSION %s: %.6g -> %.6g (%.1f%% worse, bound %.0f%%)"
                  % (name, b, n, 100 * worse, 100 * bound))
        return 1 if flagged else 0
    if not args.workload:
        ap.error("--workload is required")
    # A terminated benchmark stops its build and hera_e2e_bench too (see stop).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()

    try:
        build()
        output, peak_rss_mb = run_binary(args.workload, args.seed,
                                         args.seconds, args.trace)
        digests = load_digests()
        if args.trace:
            correct, attempted, failed, values, notes = evaluate_layers(
                args.workload, args.seed, output["result"], digests)
            spec = [(n, u) for n, u, _ in PER_LAYER]
        else:
            correct, attempted, failed, values, notes = evaluate_e2e(
                args.workload, output["result"], peak_rss_mb, digests)
            spec = [(n, u) for n, u, _, _ in END_TO_END]
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        return 2

    env = output["env"]
    print("workload %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in spec:
        print("  %-32s %16.6g %s" % (name, values[name], unit))
    for note in notes:
        print("  note: " + note)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
