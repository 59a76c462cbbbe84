#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload (or those named with --workload) --runs times, each
time with another seed, and prints for each end-to-end metric its
median, first and third quartiles and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json. A spread
above a third of the bound is flagged. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 > spread.md
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    print("| workload | metric | median | q1 | q3 | spread | bound | runs |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True)
            last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            if res.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(res.stderr)
                sys.exit("%s seed %d failed (exit %d)" % (name, seed, res.returncode))
            out = json.loads(last)
            if not out["correct"] or out["failed"]:
                ok = False
                sys.stderr.write(res.stderr)
                sys.stderr.write("%s seed %d: correct=%s failed=%d\n" % (name, seed, out["correct"], out["failed"]))
            for m, v in out["metrics"].items():
                values[m].append(v["value"])
            sys.stderr.write("%s seed %d: %s\n" % (name, seed, json.dumps({k: round(v["value"], 4) for k, v in out["metrics"].items()})))
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else " !"
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f%s | %.2f | %d |" % (
                name, m["name"], med, q1, q3, spread, flag, m["bound"], len(vs)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
