#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload batch-rmat18 --seed 1 --seconds 20 --trace 0

builds the benchmark (Release, into $CARGO_TARGET_DIR or .bench_build),
runs one workload and passes its output through; the last line is the JSON
result. Steadiness mode runs one workload K times, on seeds 1..K, and
prints, per metric, the median, the quartiles and (q3 - q1) / median,
flagging every end-to-end metric whose spread exceeds its bound:

    python3 perfbench/run.py --steadiness 10 --workload serve-rmat16-rw \\
        --seconds 20 [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 1)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(build_dir(), "traces")] + list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    return done.returncode, done.stdout


def result_of(stdout, trace):
    """Parses and checks the last line against BENCHMARK.json."""
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output", 1)
    result = json.loads(lines[-1])
    want = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra), 1)
    return result


def steadiness(binary, args):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    runs = []
    for seed in range(1, args.steadiness + 1):
        code, out = run_once(binary, args.workload, seed, args.seconds,
                             args.trace)
        if code != 0:
            fail("seed %d exited %d" % (seed, code), 1)
        result = result_of(out, args.trace)
        notes = [l for l in out.splitlines()
                 if l.startswith("host loadavg") or l.startswith("windows")]
        print("seed %d: attempted %d failed %d; %s" % (
            seed, result["attempted"], result["failed"], "; ".join(notes)))
        print("  " + " ".join("%s=%.4g" % (k, v["value"])
                              for k, v in result["metrics"].items()))
        runs.append(result)
    flagged = []
    print("%-28s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  EXCEEDS BOUND"
            flagged.append(name)
        print("%-28s %14.6g %14.6g %14.6g %9.4f %7s%s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, flag))
    failed = sum(r["failed"] for r in runs)
    print("runs %d, failed operations %d, metrics over bound: %s" % (
        len(runs), failed, ", ".join(flagged) or "none"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K")
    parser.add_argument("--scale-shift", type=int, default=0,
                        help="shrink the graphs by 2^-K (smoke tests only)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    binary = build()
    if args.steadiness:
        sys.exit(steadiness(binary, args))
    extra = ["--scale-shift", str(args.scale_shift)] if args.scale_shift else []
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    result_of(out, args.trace)


if __name__ == "__main__":
    main()
