#!/usr/bin/env python3
"""Entry point of the repository benchmark (rationale in perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` Cargo package (a workspace of its own that depends
on the repository's crates by path) in release mode, runs one workload in
one process, and relays its output. The last line of standard output is
the result object. The build goes to $CARGO_TARGET_DIR, `.bench_build`
when unset; storage written by `ops-longrun` goes to `.bench_state` and is
removed when the run ends.

The workload's ARI floor and default seed are read from its `why` line in
BENCHMARK.json ("ARI floor X", "default seed N").
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HASHED_DIRS = ("crates", "src", "vendor", "perfbench", "tests", "examples")
HASHED_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")
SKIPPED_DIRS = {"target", ".bench_build", ".bench_state", "__pycache__"}


def workload_why(root, name):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        if workload["name"] == name:
            return workload["why"]
    raise SystemExit(f"run.py: unknown workload {name!r}")


def recorded(why, label, pattern):
    match = re.search(label + r" (" + pattern + r")", why)
    if not match:
        raise SystemExit(f"run.py: no {label!r} in the workload's why line")
    return match.group(1)


def git_rev(root):
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def source_sha256(root):
    """Content hash of the sources, the revision when git is absent."""
    digest = hashlib.sha256()
    paths = [root / f for f in HASHED_FILES if (root / f).is_file()]
    for top in HASHED_DIRS:
        for dirpath, dirnames, filenames in os.walk(root / top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
            paths.extend(Path(dirpath) / f for f in filenames)
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    why = workload_why(root, args.workload)
    seed = args.seed if args.seed is not None else int(recorded(why, "default seed", r"\d+"))

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1

    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--ari-floor", recorded(why, "ARI floor", r"\d+(?:\.\d+)?"),
        "--state-dir", ".bench_state",
        "--rev", git_rev(root),
        "--source-sha", source_sha256(root),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
