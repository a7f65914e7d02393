#!/usr/bin/env python3
"""Build and run the integrated-loop benchmark from the root of a checkout.

    python3 loopbench/run.py --workload {bsp_wren|chaos_adapt|brite_fleet} \
        --seed N --seconds S --trace {0|1}

Configures loopbench/ (which builds the libraries from src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, builds it
incrementally, and runs the loopbench binary. Build output goes to stderr;
the binary's stdout, whose last line is the JSON result, passes through
unchanged. Exits nonzero when the build fails or an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

WORKLOADS = ("bsp_wren", "chaos_adapt", "brite_fleet")


def fail(message: str) -> NoReturn:
    print(f"loopbench: {message}", file=sys.stderr)
    sys.exit(1)


def revision(root: Path) -> str:
    """The git revision, or a content hash of the built sources when the
    checkout is not a git repository."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "loopbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "loopbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "loopbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = build_dir / "loopbench"
    if not binary.is_file():
        fail(f"no loopbench binary at {binary}")
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("run from the root of a full checkout: src/ is missing")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)

    sys.stdout.flush()
    return subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", repr(args.seconds), "--trace", str(args.trace),
                           "--revision", revision(root)], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
