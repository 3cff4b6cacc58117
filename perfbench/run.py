#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md).

    python3 perfbench/run.py --rate R \
        --workload serve_sweep|serve_hier|train --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the harness from
source into $CARGO_TARGET_DIR (default .bench_build), trains the served
ensemble fixture once per build, then runs one measured workload. Progress
goes to stderr; the last stdout line is the result object, which holds
every end-to-end metric of BENCHMARK.json (every per-layer one with
--trace 1) in its unit. Exits non-zero, without a result, when anything
fails to build or run or the result does not match the manifest, and
non-zero with "correct": false when an output check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_sweep", "serve_hier", "train")
TOTAL_TIMEOUT_S = 880  # build, fixture and run of a fresh checkout
RUN_TIMEOUT_S = 170    # one measured run


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, deadline):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=max(deadline - time.monotonic(), 1), check=True)


def build(build_dir, jobs, deadline):
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *gen], deadline)
    run_checked(["cmake", "--build", str(build_dir), "--target", "perfbench",
                 "paragraph", "-j", str(jobs)], deadline)


def source_flags():
    """The commit and a dirty flag when the checkout is a git repository;
    otherwise a digest of the sources the build reads stands in for it."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, check=True).stdout.strip()
        try:
            dirty = "1" if git("status", "--porcelain") else "0"
            return ["--git-commit", git("rev-parse", "HEAD"), "--git-dirty", dirty]
        except (subprocess.CalledProcessError, OSError):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return ["--source-digest", h.hexdigest()[:16]]


def ensure_fixture(harness, fixture, deadline):
    """The served ensemble, trained in a process of its own so its training
    memory never reaches a workload; retrained whenever the build changes."""
    if fixture.exists() and fixture.stat().st_mtime >= harness.stat().st_mtime:
        return
    fixture.parent.mkdir(parents=True, exist_ok=True)
    run_checked([str(harness), "fixture", "--out", str(fixture)], deadline)


def manifest_metrics(metrics, per_layer):
    """The run's metrics in BENCHMARK.json's order: every end-to-end metric
    of a timed run, every per-layer metric of a traced one. A layer the
    workload never enters reads 0. Raises ValueError on a missing
    end-to-end metric, a name the manifest lacks, or another unit."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = manifest["per_layer" if per_layer else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in specs}
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    out, absent = {}, []
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        m = metrics.get(name)
        if m is None:
            if not per_layer:
                raise ValueError(f"end-to-end metric {name} was not measured")
            absent.append(name)
            m = {"value": 0.0, "unit": unit}
        elif m.get("unit") != unit:
            raise ValueError(f"{name} is in {m.get('unit')}, not {unit}")
        out[name] = m
    if absent:
        log(f"layers this workload never enters, reported as 0: {', '.join(absent)}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rate", type=float, required=True,
                    help="open-loop rate of the traced serve_sweep run, req/s")
    args = ap.parse_args()

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    jobs = len(os.sched_getaffinity(0))
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir, jobs, deadline)
        harness = build_dir / "perfbench"
        fixture = build_dir / "fixture" / "ensemble.bin"
        ensure_fixture(harness, fixture, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(harness), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rate", str(args.rate),
           "--paragraph", str(build_dir / "paragraph" / "tools" / "paragraph"),
           "--ensemble", str(fixture), "--workdir", str(build_dir / "work"),
           *source_flags()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    timeout = min(RUN_TIMEOUT_S, max(deadline - time.monotonic(), 1))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {timeout:.0f} s")
        return 1
    finally:
        # The harness and the daemon it spawned end with this script,
        # whichever way it leaves (a timeout, SIGTERM, an exception).
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"{args.workload} exited {proc.returncode} without a result")
        return 1
    try:
        result["metrics"] = manifest_metrics(result["metrics"], args.trace == 1)
    except ValueError as e:
        log(f"{args.workload}: {e}")
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"{args.workload} failed its output checks")
        return 1
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
