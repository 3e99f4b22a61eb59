#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe and the
compile server (bin/hida_serve_cli.exe) from source with dune into
.bench_build/, then runs one workload in a fresh process.  The last line
of standard output is the benchmark's JSON result; build logs go to
standard error.  Exits non-zero, without a result line, when the build
or the run fails or the run exceeds its time limit.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840
WORKLOADS = ("cold-fit", "edit-iterate", "serve-mix", "parallel-dse")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the checkout is a git repository, otherwise a
    digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet",
           "./perfbench/bench.exe", "./bin/hida_serve_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run(args):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    # Own process group, so a timeout also stops the compile server the
    # benchmark starts.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("benchmark printed no result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.time()
    build()
    print("run.py: build took %.1f s" % (time.time() - t0), file=sys.stderr)
    run(args)


if __name__ == "__main__":
    main()
