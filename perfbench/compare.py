#!/usr/bin/env python3
"""Summarise one result set, or compare two, metric by metric.

    python3 perfbench/compare.py SET            # median and spread per metric
    python3 perfbench/compare.py BASE NEW       # one verdict per metric

A result set is a directory of results saved by run.py (`--out`), any
number of seeds per workload.  The spread of a metric is the distance
between the first and third quartile of its values, as a share of their
median.  Bounds and directions come from BENCHMARK.json.  A comparison
row reads:

  better              every NEW run beats every BASE run, or the NEW median
                      beats BASE by more than the BASE spread and NEW wins
                      at least nine tenths of the BASE x NEW pairs
  worse beyond bound  the NEW median is worse than BASE by more than the bound
  within bound        neither of the above
  unresolved          the spread of either set is wider than the bound

Per-layer metrics have no bound; their rows are judged against the wider
of the two spreads instead (worse, better, or within spread).
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = dict(m)
    for m in spec["per_layer"]:
        out[m["name"]] = dict(m, bound=None)
    return out


def load_set(directory):
    """Values per (workload, metric), and failed/attempted per workload."""
    values = defaultdict(list)
    outcomes = defaultdict(lambda: [0, 0])
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        for name, m in result["metrics"].items():
            values[(result["workload"], name)].append(m["value"])
        outcomes[result["workload"]][0] += result["failed"]
        outcomes[result["workload"]][1] += result["attempted"]
    return values, outcomes


def print_failed_share(outcomes, label=""):
    for workload, (failed, attempted) in sorted(outcomes.items()):
        print(f"{workload:15} {'failed_share':30} {label}{failed / attempted:g} ratio "
              f"({failed} of {attempted} attempted)")


def spread(values):
    """Interquartile distance as a share of the median; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base, new, spec):
    sign = 1 if spec["better"] == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = sign * (mn - mb) / abs(mb)
    wide = max(spread(base), spread(new))
    pairs = [sign * (n - b) for b in base for n in new]
    if all(p < 0 for p in pairs):
        return "better"
    bound = spec["bound"]
    if bound is None:
        if worse_by > wide:
            return "worse"
        if -worse_by > wide:
            return "better"
        return "within spread"
    if wide > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse beyond bound"
    wins = sum(1 for p in pairs if p < 0) / len(pairs)
    if -worse_by > spread(base) and wins >= 0.9:
        return "better"
    return "within bound"


def _rows(values, specs):
    order = {name: i for i, name in enumerate(specs)}
    return sorted(values, key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))


def summarise(directory):
    specs = metric_specs()
    values, outcomes = load_set(directory)
    print(f"{'workload':15} {'metric':30} {'n':>3} {'median':>12} {'unit':8} "
          f"{'spread':>7} {'bound':>6}")
    for key in _rows(values, specs):
        workload, name = key
        spec = specs.get(name, {"unit": "?", "bound": None})
        vals = values[key]
        s = spread(vals)
        bound = spec["bound"]
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "WIDE")
        print(f"{workload:15} {name:30} {len(vals):3} {statistics.median(vals):12.6g} "
              f"{spec['unit']:8} {s:7.3f} {bound if bound is not None else '':>6} {flag}")
    print_failed_share(outcomes)
    return 1 if any(failed for failed, _ in outcomes.values()) else 0


def compare(base_dir, new_dir):
    specs = metric_specs()
    base, base_outcomes = load_set(base_dir)
    new, new_outcomes = load_set(new_dir)
    print(f"{'workload':15} {'metric':30} {'base':>12} {'new':>12} {'unit':8} "
          f"{'change':>8}  verdict")
    for key in _rows(base, specs):
        if key not in new or key[1] not in specs:
            continue
        spec = specs[key[1]]
        mb, mn = statistics.median(base[key]), statistics.median(new[key])
        change = (mn - mb) / abs(mb)
        print(f"{key[0]:15} {key[1]:30} {mb:12.6g} {mn:12.6g} {spec['unit']:8} "
              f"{change:+8.3f}  {verdict(base[key], new[key], spec)}")
    print_failed_share(base_outcomes, "base ")
    print_failed_share(new_outcomes, "new ")
    return 1 if any(failed for failed, _ in new_outcomes.values()) else 0


def main(argv):
    if len(argv) == 1:
        return summarise(argv[0])
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
