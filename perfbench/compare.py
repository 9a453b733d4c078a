"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are files holding the standard output of one or more runs of
perfbench/run.py (concatenate the outputs of repeated runs into one file
per side).  Each run's "perfbench-record" line is read.

For each workload and each end-to-end metric of BENCHMARK.json, one row is
printed with both medians, the wider of the two sides' quartile spreads as
a share of their medians, the change, and a verdict:

* unresolved: either side's spread is wider than the metric's bound, unless
  every head run reads better than every base run (then better);
* worse: the head median is worse than the base median by more than the
  bound;
* better: the head median is better by more than the wider spread;
* unchanged: otherwise.

Per-layer metrics of traced runs are listed with their change and no
verdict, since they carry no bound.  Exit code 1 if any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RECORD_PREFIX = "perfbench-record "


def read_records(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.startswith(RECORD_PREFIX):
            records.append(json.loads(line[len(RECORD_PREFIX):]))
    return records


def group(records):
    """(workload, metric) -> list of values over runs."""
    out = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(float(m["value"]))
    return out


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(med)


def verdict(base, head, better, bound):
    """Classify head against base; `better` is "higher" or "lower"."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    # positive change = worse
    change = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    wider = max(spread(base), spread(head))
    if bound is None:
        return None, change, wider
    all_better = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
    if wider > bound:
        return ("better" if all_better else "unresolved"), change, wider
    if change > bound:
        return "worse", change, wider
    if -change > wider:
        return "better", change, wider
    return "unchanged", change, wider


def compare(base_records, head_records, spec):
    rows = []
    base, head = group(base_records), group(head_records)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    declared.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    for key in sorted(set(base) & set(head)):
        workload, name = key
        if name not in declared:
            continue
        meta = declared[name]
        v, change, wider = verdict(base[key], head[key], meta["better"], meta.get("bound"))
        rows.append({
            "workload": workload, "metric": name, "unit": meta["unit"],
            "base": statistics.median(base[key]), "head": statistics.median(head[key]),
            "n_base": len(base[key]), "n_head": len(head[key]),
            "spread": wider, "change": change, "bound": meta.get("bound"),
            "verdict": v or "info",
        })
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                              / "BENCHMARK.json"))
    args = p.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    rows = compare(read_records(args.base), read_records(args.head), spec)
    if not rows:
        print("no metric present in both inputs", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':34s} {'base':>12s} {'head':>12s} "
          f"{'runs':>7s} {'spread':>7s} {'worse by':>9s} {'bound':>6s}  verdict")
    for r in rows:
        bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
        print(f"{r['workload']:16s} {r['metric']:34s} {r['base']:12.6g} {r['head']:12.6g} "
              f"{r['n_base']:>3d}/{r['n_head']:<3d} {r['spread']:7.3f} {r['change']:+9.3f} "
              f"{bound:>6s}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
