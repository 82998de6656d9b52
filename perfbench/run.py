#!/usr/bin/env python3
"""Build and run the sidq benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the sidq
libraries from src/) into .bench_build/cmake; later calls rebuild only what
changed. The benchmark binary writes its stores under .bench_build/work and
one run record per run under .bench_build/runs. The last line of stdout is
the run's JSON result; the exit code is non-zero when the build fails, a
correctness gate fails, or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold_scan", "warm_query", "fleet_clean"]
BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
RECORD_DIR = os.path.join(".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "sidq_perfbench")
RUN_TIMEOUT_S = 175
# Sources whose digest identifies the measured program in the run record
# (checkouts need not be git repositories).
DIGEST_ROOTS = ["CMakeLists.txt", "src", "perfbench"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt here: run from the root of a sidq checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "sidq_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    paths = []
    for root in DIGEST_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this kind of run."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error string when the result line breaks the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != expected:
            return f"metrics {got} do not match BENCHMARK.json {expected}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR, "--record-dir", RECORD_DIR,
           "--commit", git_commit(), "--source-digest", source_digest(),
           *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="test the benchmark's own code, then prove a wrong "
                         "expected checksum fails a run")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1

    if args.selftest:
        if subprocess.run([BINARY, "--selftest"]).returncode:
            return 1
        code, out = run_workload("fleet_clean", 1, 1, False, ["--mutate-gates"])
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct", True) or not result.get("failed"):
            log("a wrong expected checksum did not fail the run")
            return 1
        print(f"selftest: wrong expected checksum fails the run "
              f"({result['failed']} of {result['attempted']} operations failed)")
        return 0

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        code, out = run_workload(w, args.seed, args.seconds, bool(args.trace))
        lines = out.rstrip("\n").splitlines()
        if not lines:
            log(f"{w} printed no result")
            return code or 1
        error = check_result(lines[-1], bool(args.trace))
        if error:
            sys.stdout.write(out)
            log(f"{w}: {error}")
            return 1
        if args.workload != "all":
            sys.stdout.write(out)
            return code
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
        worst = worst or code
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
