#!/usr/bin/env python3
"""Build and run one BookLeaf-rs benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (release
profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs
the workload in a child process, adds the child's peak resident memory
(`peak_rss_mb`, from the kernel's account of that process) and the
checkout's identity to the result, and prints two lines: a detail record
and, last, the result JSON. Exits non-zero without a result line when the
build or the workload fails or runs out of time.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

WORKLOADS = ("noh-serial", "sedov-ale-mpi2-ckpt", "serve-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Sources that make up the measured program, for the checkout digest.
SOURCE_SUFFIXES = (".rs", ".toml", ".lock", ".py")
SKIP_DIRS = {".git", "target", ".bench_build"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over the checkout's source files, in path order."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.startswith("."))
        for name in filenames:
            if name.endswith(SOURCE_SUFFIXES):
                files.append(Path(dirpath, name))
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit(root):
    """The checkout's git commit, or None when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def build(root, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_child(cmd, root):
    """Run the workload; return (exit code, stdout, peak RSS in MB)."""
    child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    # ru_maxrss is in KiB on Linux.
    return child.returncode, out, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(root, env)

    binary = target / "release" / "perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    code, out, peak_rss_mb = run_child(cmd, root)
    if code != 0:
        fail(f"workload exited with code {code}")
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(f"unreadable workload output: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")

    detail["environment"]["commit"] = commit(root)
    detail["environment"]["source_sha256"] = source_digest(root)
    rss = {"value": peak_rss_mb, "unit": "MB"}
    detail["metrics"]["peak_rss_mb"] = rss
    if args.trace == "0":
        result["metrics"]["peak_rss_mb"] = rss
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
