#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark on one workload.

    python3 perfbench/run.py --workload cold-sync --seed 1 --seconds 30 --trace 0

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) with path dependencies on the crates, built
in release mode into $CARGO_TARGET_DIR (default .bench_build). Its
corpora and reports go under a temporary directory in .perfbench_tmp/,
removed on exit; nothing under results/ is touched.

Standard output: one host line (nproc, CPU model, rustc, commit, source
digest), the benchmark's configuration line (width/jobs among it), its
report, and as its last line the
result object {"correct", "attempted", "failed", "metrics"}. Exit code 0
when every campaign passed the correctness gate, nonzero otherwise or
when the benchmark cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-sync", "cold-compute", "warm-replay")
# A measurement still running after this long is stopped and fails.
RUN_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds. A checkout made for
    benchmarking often has no git metadata, and then this is what tells
    two runs apart by code."""
    h = hashlib.sha256()
    files = ["Cargo.lock", "perfbench/Cargo.toml"]
    for top in ("crates", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(
                os.path.join(dirpath, n)
                for n in sorted(filenames)
                if n.endswith((".rs", ".toml"))
            )
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host(cpu):
    commit = None
    if os.path.isdir(".git"):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": commit or "unknown",
        "source_digest": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120 or args.seed < 0:
        parser.error("--seconds must be 1..120 and --seed non-negative")

    # Turn SIGTERM into an exception, so the benchmark process is stopped
    # and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")

    # The benchmark runs one campaign at a time (width 1 x jobs 1), so it
    # is pinned to one CPU: the simulator's thread handoffs then never wait
    # for the hypervisor to wake a second, idle virtual CPU, which on a
    # shared host is the noisiest cost there is.
    cpu = max(os.sched_getaffinity(0))

    print(json.dumps({"host": host(cpu)}, sort_keys=True), flush=True)
    os.makedirs(".perfbench_tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=".perfbench_tmp")
    try:
        argv = [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--scratch", scratch,
        ]
        # One malloc arena: with one per thread, how many the simulator's
        # threads create depends on timing, and peak RSS then varied by
        # 30% between runs of the same seed. Throughput was unchanged.
        bench_env = dict(os.environ, MALLOC_ARENA_MAX="1")
        try:
            return subprocess.run(
                argv,
                env=bench_env,
                timeout=RUN_TIMEOUT_S,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            ).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: timed out", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
