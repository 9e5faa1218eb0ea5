#!/usr/bin/env python3
"""Builds the qpbench benchmark from this checkout's sources and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload quote-storm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke       # every workload's checks, seconds each
    python3 perfbench/run.py --self-test   # injected wrong answers must fail

qpbench's last stdout line is one JSON object (correct, attempted,
failed, metrics). Build output goes to stderr. The build lives in
.bench_build/perfbench; checkpoints, journals and traces in .bench_out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "qpbench")
BUILD_TYPE = "Release"
WORKLOADS = ("quote-storm", "buyer-arrivals", "seller-churn")
# (workload, injected wrong answer) pairs the self-test requires to fail.
INJECTIONS = (
    ("quote-storm", "quote-price"),
    ("quote-storm", "sale-tally"),
    ("seller-churn", "cell-write"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds qpbench; returns False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the repository sources (CMakeLists.txt, src/) are "
            "not next to perfbench/; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "qpbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_qpbench(args, capture=False):
    """Runs qpbench; returns (exit code, stdout text or None)."""
    cmd = [BINARY] + args + ["--build-type", BUILD_TYPE, "--commit", commit(),
                             "--out-dir", OUT_DIR]
    # qpbench's own watchdog ends a run that outlives its window by
    # minutes, so no timeout here.
    proc = subprocess.run(cmd, cwd=ROOT,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)
    return proc.returncode, proc.stdout


def last_json(text):
    for line in reversed((text or "").strip().splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def smoke(inject=None, workloads=WORKLOADS, quiet=False):
    ok = True
    for w in workloads:
        args = ["--workload", w, "--seed", "1", "--seconds", "2", "--trace",
                "0", "--smoke"]
        if inject:
            args += ["--inject", inject]
        code, out = run_qpbench(args, capture=True)
        result = last_json(out)
        passed = code == 0 and result is not None and result["correct"]
        if not quiet:
            sys.stdout.write(out or "")
        log("smoke %-15s %s%s" % (w, "pass" if passed else "FAIL",
                                  " (inject %s)" % inject if inject else ""))
        ok &= passed
    return ok


def self_test():
    if not smoke(quiet=True):
        log("self-test: the clean smoke run failed")
        return False
    ok = True
    for workload, inject in INJECTIONS:
        code, out = run_qpbench(["--workload", workload, "--seed", "1",
                                "--seconds", "2", "--trace", "0", "--smoke",
                                "--inject", inject], capture=True)
        result = last_json(out)
        caught = code != 0 and result is not None and not result["correct"]
        log("self-test %-15s inject %-12s %s" % (
            workload, inject, "caught" if caught else "NOT CAUGHT"))
        ok &= caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.self_test) and None in (
            args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        log("perfbench: build failed")
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    if args.smoke:
        return 0 if smoke() else 1
    code, _ = run_qpbench(["--workload", args.workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
