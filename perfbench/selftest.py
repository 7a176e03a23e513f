#!/usr/bin/env python3
"""Tiny-scale self-test of the campaign benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json for a few batches, untraced and
traced, and checks that each run is correct, emits exactly the metrics
BENCHMARK.json names (with their units), that the par-jobs and fleet
digests equal seq-derived's, and that the iteration and phase-3 closures
lie within the tolerance the benchmark records.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 48  # six batches
SEED = 11


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--iterations", str(ITERATIONS)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300).stdout.decode()
    lines = out.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    digests = {}
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            ctx, res = run(w, trace)
            tag = "%s trace %d" % (w, trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < ITERATIONS:
                problems.append("%s: not correct (%s)" % (tag, res))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
                                % (tag, sorted(set(wanted[trace]) - set(got)),
                                   sorted(set(got) - set(wanted[trace]))))
            digests[(w, trace)] = ctx["digests"]
            if trace == 1:
                tol = ctx["closure_tolerance"]
                for name in ("ladder.iteration_closure", "ladder.phase3_closure"):
                    value = res["metrics"][name]["value"]
                    if abs(value - 1.0) > tol:
                        problems.append("%s: %s = %.3f, outside 1 ± %.2f" % (tag, name, value, tol))
                if ctx["replay_mismatches"] != 0:
                    problems.append("%s: %d replay mismatches" % (tag, ctx["replay_mismatches"]))
            print("%-28s correct=%s attempted=%d digest=%s lanes_real=%s"
                  % (tag, res["correct"], res["attempted"], ",".join(d[:8] for d in ctx["digests"]), ctx["lanes_real"]))
    for w in ("par-jobs", "fleet"):
        for trace in (0, 1):
            if digests[(w, trace)] != digests[("seq-derived", trace)]:
                problems.append("%s trace %d: digest differs from seq-derived's" % (w, trace))
    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
