#!/usr/bin/env python3
"""Run the benchmark repeatedly and compare sets of runs against its bounds.

Run from the root of the repository:

  python3 perfbench/aa.py collect --runs 10 --first-seed 1 --out a.jsonl
  python3 perfbench/aa.py collect --runs 10 --first-seed 101 --out b.jsonl
  python3 perfbench/aa.py compare a.jsonl b.jsonl
  python3 perfbench/aa.py aa --runs 10        # both collects, then compare

`collect` appends one JSON line per run (workload, seed, the result line
and the run's first failure, if any).
`spread FILE` prints, per workload and end-to-end metric, the median and
the distance between the first and third quartile as a share of the
median. `compare A B` also prints how far B's median is from A's in the
worse direction. A pair passes when every spread except setup_s is within
the metric's bound from BENCHMARK.json and no median got worse by more
than the bound; the exit status is 1 otherwise. Comparing two sets of runs
of one commit (an A/A compare) must pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def collect(args, bench, out, first_seed):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "a") as f:
        for i in range(args.runs):
            for name in names:
                seed = first_seed + i
                cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                res = json.loads(lines[-1])
                failure = next((l for l in lines if l.startswith("# first failure")), None)
                rec = {"workload": name, "seed": seed, "result": res, "first_failure": failure}
                f.write(json.dumps(rec) + "\n")
                f.flush()
                flag = "" if res["correct"] and res["failed"] == 0 else "  FAILED"
                print(f"{name} seed {seed}: {res['attempted']} ops, {res['failed']} failed{flag}", flush=True)


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summary(results, metric):
    vals = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
    if len(vals) < 2:
        return None
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, spread, len(vals)


def worse_by(base, new, better):
    """How much worse new is than base, as a share of base (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    d = (new - base) / base
    return d if better == "lower" else -d


def report(bench, a, b=None):
    ok, rows = True, 0
    print(f"{'workload':14s} {'metric':14s} {'bound':>6s} {'median':>12s} {'spread':>7s}"
          + (f" {'median B':>12s} {'spread B':>8s} {'worse':>7s}" if b else "") + "  verdict")
    gated = [w["name"] for w in bench["workloads"]]
    for w in gated + sorted(set(a) - set(gated)):
        if w not in a or (b is not None and w not in b):
            continue
        bad_runs = [r for r in a[w] + (b[w] if b else []) if not r["correct"] or r["failed"]]
        if bad_runs:
            ok = False
            print(f"{w:14s} {len(bad_runs)} run(s) incorrect or with failed operations")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = summary(a[w], name)
            if sa is None:
                continue
            notes = []
            spreads = [sa[1]]
            line = f"{w:14s} {name:14s} {bound:6.2f} {sa[0]:12.6g} {sa[1]:7.3f}"
            if b is not None:
                sb = summary(b[w], name)
                if sb is None:
                    continue
                spreads.append(sb[1])
                dw = worse_by(sa[0], sb[0], m["better"])
                line += f" {sb[0]:12.6g} {sb[1]:8.3f} {dw:+7.3f}"
                if dw > bound:
                    notes.append("REGRESSION")
            if name != "setup_s" and max(spreads) > bound:
                notes.append("SPREAD>BOUND")
            elif max(spreads) > bound / 3:
                notes.append("spread>bound/3")
            if any(n.isupper() for n in notes):
                ok = False
            rows += 1
            print(line + "  " + (" ".join(notes) or "ok"))
    if rows == 0:
        print("no end-to-end metric to compare")
    return ok and rows > 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("collect", "aa"):
        p = sub.add_parser(name)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--workloads", default="", help="comma-separated; default all")
        if name == "collect":
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--dir", default=".bench_build/aa")
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    bench = load_bench()

    if args.cmd == "collect":
        collect(args, bench, args.out, args.first_seed)
        return
    if args.cmd == "aa":
        a, b = os.path.join(args.dir, "a.jsonl"), os.path.join(args.dir, "b.jsonl")
        for path in (a, b):
            if os.path.exists(path):
                os.remove(path)
        collect(args, bench, a, 1)
        collect(args, bench, b, 1001)
        ok = report(bench, read_runs(a), read_runs(b))
    elif args.cmd == "spread":
        ok = report(bench, read_runs(args.file))
    else:
        ok = report(bench, read_runs(args.a), read_runs(args.b))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
