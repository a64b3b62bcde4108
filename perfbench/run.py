#!/usr/bin/env python3
"""Build and run the Garnet facade benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Repeat mode: k runs per workload with seeds seed, seed+1, ..., then per
metric the median, the quartiles and the spread (Q3 - Q1) / median.
With --sets 2 a second set of k runs follows on fresh seeds, and each
metric's second median is compared with the first against the bound
in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 --sets 2 --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); runs write only under .perfbench_work/, where
repeat mode also appends every run's output lines to repeat.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["fanin_dup", "fanout_fifo", "fanout_threaded", "durable_control"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(REPO, "crates", "core", "Cargo.toml")):
        fail("the Garnet crates are not beside this benchmark (no crates/core)", 3)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(REPO, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, cwd=REPO, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (stdout, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s", 4)
    if p.returncode != 0:
        fail(f"{workload} seed {seed} exited with {p.returncode}", p.returncode)
    lines = p.stdout.strip().splitlines()
    return p.stdout, (json.loads(lines[-1]) if lines else None)


def bounds():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def repeat(binary, args):
    defs = bounds()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    report = {}
    ok = True
    os.makedirs(os.path.join(REPO, ".perfbench_work"), exist_ok=True)
    raw = open(os.path.join(REPO, ".perfbench_work", "repeat.jsonl"), "a")
    for w in workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.repeat):
                seed = args.seed + s * args.repeat + i
                out, res = run_once(binary, w, seed, args.seconds, args.trace)
                raw.write(json.dumps({"workload": w, "set": s + 1, "seed": seed,
                                      "lines": out.strip().splitlines()}) + "\n")
                raw.flush()
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        report[w] = {}
        print(f"\n== {w} ({args.repeat} runs x {args.sets} sets, {args.seconds} s, trace {args.trace})")
        print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}  verdict")
        for name in sets[0]:
            d = defs.get(name, {})
            bound = d.get("bound")
            row = {}
            for s, values in enumerate(sets):
                med, q1, q3, spread = summary(values[name])
                row[f"set{s + 1}"] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
                verdict = ""
                if bound is not None and name != "setup_s" and spread > bound:
                    verdict = "SPREAD>BOUND"
                    ok = False
                elif bound is not None and name != "setup_s" and spread > bound / 3:
                    verdict = "spread>bound/3"
                if s == 1 and bound is not None:
                    first = row["set1"]["median"]
                    worse = (med - first) / first if d["better"] == "lower" else (first - med) / first
                    row["second_worse_by"] = worse
                    if worse > bound:
                        verdict += " SETS-DISAGREE"
                        ok = False
                bs = "" if bound is None else f"{bound:.2f}"
                print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bs:>6s}  {verdict}")
            report[w][name] = row
    raw.close()
    print(json.dumps({"ok": ok, "report": report}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--repeat", type=int, default=0, help="runs per set (repeat mode)")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}")
    if args.repeat == 0 and args.workload == "all":
        fail("--workload all needs --repeat")
    binary = build()
    if args.repeat:
        if args.repeat < 2:
            fail("--repeat needs at least 2 runs for quartiles")
        sys.exit(repeat(binary, args))
    out, res = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        fail("no result", 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
