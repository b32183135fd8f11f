#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload update_uniform --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
sources under src/) into .bench_build/; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
one-line JSON result.  The full result document and the traced run's span
file are written to .bench_build/results/.  See perfbench/README.md.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "api" / "ordered_set.h").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return BUILD / "perfbench"


def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance():
    """Commit, dirty flag and a content hash of the sources measured.

    A checkout exported without git metadata has no commit; the content
    hash over src/ and perfbench/ still identifies the code on sight.
    """
    sha, dirty = "unknown", "unknown"
    top = git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        sha = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        if status is not None:
            dirty = "1" if status else "0"
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return ["--git-sha", sha, "--git-dirty", dirty,
            "--source-hash", h.hexdigest()]


def main():
    binary = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += provenance() + ["--out-dir", str(RESULTS)]
    sys.stdout.flush()
    return subprocess.run([str(binary), *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
