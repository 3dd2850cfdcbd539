"""Median and quartiles of every metric over the recorded runs.

    python3 perfbench/summarize.py [--trace 0|1]

Reads perfbench/results/*.json (one file per workload, seed and trace
setting; a later run with the same ones replaces the file) and prints,
per workload and metric, the median of the runs, the first and third
quartile as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs = defaultdict(list)
    for path in sorted(RESULTS.glob(f"*-trace{args.trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    for workload, records in sorted(runs.items()):
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in records}
        print(f"{workload}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, failed shares {sorted(shares)}, "
              f"all correct: {all(r['result']['correct'] for r in records)}")
        values = defaultdict(list)
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values[name].append(m["value"])
            values["host.ref_loop_ms"].append(statistics.median(r["ref_loop_ms"]))
            values["timed_s"].append(r["timed_s"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            print(f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {(q3 - q1) / med:7.3f}")


if __name__ == "__main__":
    main()
