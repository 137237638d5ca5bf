#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the perfbench binary from this checkout's sources (CMake, Release)
and runs one workload:

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics; a metric the binary did
not emit, or emitted with another unit, is an error (exit 1, no result).

    python3 perfbench/run.py --selftest

runs every workload at toy scale, checks that each metric BENCHMARK.json
names is emitted with its unit, that the accuracy gate trips when the truth
it scores against is deliberately wrong, and that rate-limit rejects on
serve_hot are counted without failing the run.

Build output goes to stderr, into $CARGO_TARGET_DIR (default .bench_build)
under the checkout root.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); nothing to build")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs the binary; returns its parsed result object or None."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: binary exited with %d" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def select(result, wanted):
    """Keeps the wanted metrics; returns (result, list of problems)."""
    problems = []
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, expected %s" %
                            (m["name"], got["unit"], m["unit"]))
        else:
            metrics[m["name"]] = got
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    return out, problems


def common_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--out-dir", os.path.join(build_dir(), "out")]


def selftest(binary, spec):
    failures = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_binary(binary, common_args(name, 7, 6, trace) +
                                ["--scale", "0.25"])
            if result is None:
                failures.append("%s trace=%d: no result" % (name, trace))
                continue
            _, problems = select(result, spec[key])
            failures += ["%s trace=%d: %s" % (name, trace, p)
                         for p in problems]
            if not result["correct"]:
                failures.append("%s trace=%d: correctness check failed at "
                                "toy scale" % (name, trace))
        skewed = run_binary(binary, common_args(name, 7, 6, False) +
                            ["--scale", "0.25", "--truth-skew", "2"])
        if skewed is None or skewed["correct"]:
            failures.append("%s: the accuracy gate did not trip on a wrong "
                            "truth" % name)
        print("selftest %-14s %s" % (name, "ok" if not any(
            f.startswith(name) for f in failures) else "FAILED"))
    # A per-tenant limit far below the closed loop's rate: the server
    # rejects, and the run counts the rejects as errors, not failures.
    limited = run_binary(binary, common_args("serve_hot", 7, 6, True) +
                         ["--scale", "0.25", "--tenant-rate", "40"])
    if limited is None or not limited["correct"]:
        failures.append("rejects: serve_hot with a tenant rate limit failed")
    elif not limited["metrics"]["net.rejects.rate_limited"]["value"] > 0:
        failures.append("rejects: no net.rejects.rate_limited at a tenant "
                        "rate limit of 40/s")
    print("selftest %-14s %s" % ("rejects", "ok" if not any(
        f.startswith("rejects") for f in failures) else "FAILED"))
    for f in failures:
        print("selftest: " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.selftest:
        return selftest(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))

    result = run_binary(binary, common_args(args.workload, args.seed,
                                            args.seconds, args.trace))
    if result is None:
        return 1
    out, problems = select(result,
                           spec["per_layer" if args.trace else "end_to_end"])
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
