#!/usr/bin/env python3
"""Build and run the ITUA benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_fig3 --seed 20030622 \
        --seconds 20 --trace 0

Builds perfbench/itua_bench.exe from source with dune, runs it with the
given arguments on one OCaml domain, and passes its output through. The
last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}. A traced run (--trace 1) also writes its spans to
.bench_out/spans-<workload>-<seed>.jsonl. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "itua_bench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20030622)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found in {ROOT}: run from a checkout of the repository")

    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/itua_bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode not in (0, 1):
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("the benchmark's last line is not a result object")
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
