#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mcf-jf400 --seed 1 --seconds 15 --trace 0

Everything the build and the run write goes under .bench_build/ in the
repository root (Go build cache, binary, traces), so the benchmark reads
and writes nothing outside the checkout. The program prints the result
JSON as the last line of standard output; this script passes it through
and exits with the program's exit code.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # build or the benchmark before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    for need in ("go.mod", os.path.join("perfbench", "go.mod"), os.path.join("expt", "testdata")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit("perfbench: %s not found: run from the root of a dctopo checkout" % need)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # go build's work directories and any temporary file the program
        # makes stay inside the checkout too.
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    binary = os.path.join(out, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        cmd += ["-trace-out", os.path.join(out, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
