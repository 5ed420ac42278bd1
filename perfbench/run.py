#!/usr/bin/env python3
"""Builds and runs one workload of the SOS end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the src/ libraries it
links) into .bench_build/perfbench; later runs rebuild incrementally. The
benchmark binary reports every metric it measured; this script prints its
report, a provenance line, and as its last line one JSON object holding the
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) that
BENCHMARK.json names. It exits non-zero when the build fails, a metric is
missing, or an output check failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group and waits for it; on timeout
    kills the whole group (compiler children included) and returns None."""
    with subprocess.Popen(command, cwd=ROOT, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        return subprocess.CompletedProcess(command, proc.returncode, out, err)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SOS sources under {ROOT / 'src'}; run from a full checkout", code=2)
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs, "--target", "sosbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        remaining = max(1.0, deadline - time.monotonic())
        done = run(step, remaining, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done is None:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return out_dir / "sosbench"


def source_digest():
    """sha256 over the sources the binary is built from (the checkout is not
    always a git repository, so this identifies the build)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}", code=2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", code=2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(build_dir())
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    done = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} did not end its report with JSON (exit {done.returncode})")

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "build": report.get("build"), "sim_digest": report.get("sim_digest"),
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    metrics = {}
    for metric in wanted:
        measured = report["metrics"].get(metric["name"])
        if measured is None:
            fail(f"{args.workload} did not report {metric['name']}")
        if measured["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {measured['unit']!r}, BENCHMARK.json says "
                 f"{metric['unit']!r}")
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    correct = bool(report["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
