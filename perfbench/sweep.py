#!/usr/bin/env python3
"""Run the benchmark over several seeds into one result set, then summarise it.

    python3 perfbench/sweep.py --out perfbench/results/base --seeds 1-10
    python3 perfbench/sweep.py --out DIR --seeds 1-5 --workloads chain-backward --trace 1

Each run is `BENCHMARK.json`'s command with --workload, --seed, --seconds
(its run_seconds) and --trace, one after another.  The summary is
`compare.py DIR`; compare two sets with `compare.py BASE NEW`.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"),
                    help="inclusive range such as 1-10 (default: 1-10)")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    out = args.out.resolve()
    status = 0
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:100]}",
                  flush=True)
            status = status or proc.returncode
    return compare.summarise(out) or status


if __name__ == "__main__":
    sys.exit(main())
