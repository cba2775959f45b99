#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        Build, then run one workload once; the last line of standard
        output is the JSON result (see README.md).

    python3 perfbench/run.py --repeat K [--workload W|all] [--seed N]
                             [--seconds S] [--trace 0|1]
        Run each workload K times with seeds N, N+1, ... and print every
        metric's median, quartiles and spread (quartile distance over
        the median), plus the share of failed operations per run.

The build uses dune from the repository root that holds this directory,
into $CARGO_TARGET_DIR when set (default _build), with dune's shared
cache off so nothing is written outside the checkout.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper-fig6", "serve-diurnal", "graph-resident"]


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "./perfbench/bench.exe"]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return None
    if rc != 0:
        return None
    return os.path.join(ROOT, build_dir, "default", "perfbench", "bench.exe")


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def repeat(exe, argv):
    k = int(option(argv, "--repeat", "5"))
    workload = option(argv, "--workload", "all")
    seed = int(option(argv, "--seed", "1"))
    workloads = WORKLOADS if workload == "all" else [workload]
    status = 0
    for w in workloads:
        values, failed = {}, []
        for i in range(k):
            cmd = [exe, "--workload", w, "--seed", str(seed + i)] + argv
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed + i}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(last)
            if not result["correct"]:
                status = 1
            failed.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"{w}: {len(failed)} runs, failed share per run {sorted(set(failed))}")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {unit}")
        sys.stdout.flush()
    return status


def main():
    argv = sys.argv[1:]
    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if "--repeat" in argv:
        return repeat(exe, argv)
    return subprocess.run([exe] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
