#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs one workload several times, each with another seed, and prints each
metric's median, quartiles and spread (interquartile distance as a share
of the median) against the metric's bound. Two saved sets of runs can be
compared the way a regression check compares a parent and a change.

    python3 perfbench/steady.py run --workload serve_read --seeds 1-10 \
        --out set1.json
    python3 perfbench/steady.py compare set1.json set2.json

`pair` runs two sets of the same code with their runs interleaved (one
run of the first set, one of the second, and so on), so that a drift of
the machine over the minutes they take falls on both sets alike:

    python3 perfbench/steady.py pair --workload serve_read \
        --seeds 1-10 --seeds2 11-20 --out set1.json --out2 set2.json

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    t = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.time() - t
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: answers failed their checks")
    print(f"  seed {seed}: {elapsed:.1f} s, attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr)
    return result


def summarize(runs, metrics):
    """Per metric: (median, q1, q3, spread)."""
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        out[m["name"]] = (med, q1, q3, spread)
    return out


def print_summary(summary, metrics):
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in metrics:
        med, q1, q3, spread = summary[m["name"]]
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:<28} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6} {flag}")


def report_set(args, runs, metrics, out):
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed shares {sorted(shares)}")
    print_summary(summarize(runs, metrics), metrics)
    if out:
        with open(out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, f)


def cmd_run(args):
    bench = load_benchmark()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(bench, args.workload, seed, seconds, args.trace))
    report_set(args, runs, metrics, args.out)


def cmd_pair(args):
    bench = load_benchmark()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    seeds, seeds2 = parse_seeds(args.seeds), parse_seeds(args.seeds2)
    if len(seeds) != len(seeds2):
        sys.exit("the two seed lists differ in length")
    runs, runs2 = [], []
    for s1, s2 in zip(seeds, seeds2):
        runs.append(run_once(bench, args.workload, s1, seconds, args.trace))
        runs2.append(run_once(bench, args.workload, s2, seconds, args.trace))
    report_set(args, runs, metrics, args.out)
    report_set(args, runs2, metrics, args.out2)


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    if a["workload"] != b["workload"]:
        sys.exit("the two sets ran different workloads")
    metrics = bench["end_to_end"]
    sa, sb = summarize(a["runs"], metrics), summarize(b["runs"], metrics)
    ok = True
    # Same code on both sides, so the sets must agree in either order:
    # "2 vs 1" is how much worse the second median is than the first,
    # "1 vs 2" the same with the sets swapped. Spreads (except setup_s's)
    # must be within the bound in both sets.
    print(f"{'metric':<28} {'median 1':>14} {'median 2':>14} {'2 vs 1':>8} {'1 vs 2':>8} "
          f"{'spread 1':>8} {'spread 2':>8} {'bound':>6}")
    for m in metrics:
        (m1, *_, s1), (m2, *_, s2) = sa[m["name"]], sb[m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        worse21 = sign * (m2 - m1) / m1
        worse12 = sign * (m1 - m2) / m2
        checks = [worse21, worse12]
        if m["name"] != "setup_s":
            checks += [s1, s2]
        verdict = "ok" if max(checks) <= m["bound"] else "FAIL"
        ok &= verdict == "ok"
        print(f"{m['name']:<28} {m1:>14.4f} {m2:>14.4f} {worse21:>+8.4f} {worse12:>+8.4f} "
              f"{s1:>8.4f} {s2:>8.4f} {m['bound']:>6} {verdict}")
    share = lambda s: sorted({r["failed"] / r["attempted"] for r in s["runs"]})
    if share(a) != share(b):
        ok = False
        print(f"failed shares differ: {share(a)} vs {share(b)}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload once per seed and summarize")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    r.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    r.add_argument("--trace", action="store_true", help="summarize the per-layer metrics")
    r.add_argument("--out", help="save the runs as JSON for compare")
    r.set_defaults(func=cmd_run)
    q = sub.add_parser("pair", help="run two sets of one workload, interleaved")
    q.add_argument("--workload", required=True)
    q.add_argument("--seeds", default="1-10", help="seeds of the first set")
    q.add_argument("--seeds2", default="11-20", help="seeds of the second set")
    q.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    q.add_argument("--trace", action="store_true", help="summarize the per-layer metrics")
    q.add_argument("--out", required=True, help="where to save the first set")
    q.add_argument("--out2", required=True, help="where to save the second set")
    q.set_defaults(func=cmd_pair)
    c = sub.add_parser("compare", help="compare two saved sets against the bounds")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
