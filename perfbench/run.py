#!/usr/bin/env python3
"""Campaign benchmark entry point: builds the repository, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload seq-derived --seed 11 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a `context`
record (machine, lanes, digests).  `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ladder.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "dejavuzz_cli.exe")
WORKLOADS = ["seq-derived", "seq-random-training", "par-jobs", "fleet"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout of the repository" % needed, 2)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/dejavuzz_cli.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e, 2)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed", 2)


def revision():
    """Git revision when there is one, plus a digest of the sources."""
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        rev = "nogit"
    h = hashlib.sha1()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "%s+src.%s" % (rev, h.hexdigest()[:12])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--iterations", type=int, default=None,
                    help="iterations per campaign (default: the benchmark's 500)")
    args = ap.parse_args()

    build()
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--nproc", str(len(os.sched_getaffinity(0))),
           "--git-rev", revision()]
    if args.iterations is not None:
        cmd += ["--iterations", str(args.iterations)]
    start = time.monotonic()
    # Its own session, so a timeout also takes down fleet worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    for line in lines:
        print(line)
    sys.stderr.write("perfbench: %s seed %d trace %d took %.1f s\n"
                     % (args.workload, args.seed, args.trace, time.monotonic() - start))


if __name__ == "__main__":
    main()
