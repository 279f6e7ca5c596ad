#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_memcached --seed 3 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the simulator
library it compiles from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild only
what changed. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. Reports and Chrome traces land in
<build dir>/out.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_memcached", "fanout_hdsearch", "keyed_cache")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources next to the benchmark (src/ missing)")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (bdir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over the simulator and benchmark sources, so a checkout
    without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt",
                                                  ".ref", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number >= 0")

    bdir = build_dir()
    exe = build(bdir)
    out = bdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    reference = HERE / "reference" / f"{args.workload}.ref"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--reference", str(reference),
           "--out", str(out), "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    if code < 0:
        fail(f"benchmark crashed (signal {-code})")
    sys.exit(code)


if __name__ == "__main__":
    main()
