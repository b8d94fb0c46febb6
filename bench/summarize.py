"""Fold the run records under .bench_work/results into one bench-trajectory entry.

Usage (from the root of a checkout, after a set of runs):

    python3 bench/summarize.py LABEL

Writes bench/results/BENCH_<LABEL>.json: per workload, the median and
quartiles of every end-to-end metric over the untraced runs, with their
seeds and provenance, and the per-layer metrics of each traced run.  It
refuses records of more than one commit or --seconds value, so clear
.bench_work/results before the runs of a new entry.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from pipeline import BENCH_DIR, ROOT


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None, "values": values}


def main(label: str) -> int:
    records = [json.loads(path.read_text())
               for path in sorted((ROOT / ".bench_work" / "results").glob("*.json"))]
    origins = {(r["provenance"]["git_commit"], r["seconds"]) for r in records}
    if len(origins) != 1:
        print(f"summarize: need the records of one (commit, --seconds) pair, found "
              f"{sorted(origins, key=str)}", file=sys.stderr)
        return 1
    (commit, seconds), = origins
    runs = defaultdict(lambda: {"untraced": [], "traced": []})
    for record in records:
        runs[record["workload"]]["traced" if record["trace"] else "untraced"].append(record)
    entry = {"label": label, "git_commit": commit, "seconds": seconds, "workloads": {}}
    for name, by_kind in sorted(runs.items()):
        untraced, traced = by_kind["untraced"], by_kind["traced"]
        metrics = sorted({k for r in untraced for k in r["metrics"]})
        entry["workloads"][name] = {
            "seeds": [r["seed"] for r in untraced],
            "failed": sum(r["failed"] for r in untraced + traced),
            "attempted": sum(r["attempted"] for r in untraced + traced),
            "end_to_end": {k: spread([r["metrics"][k] for r in untraced]) for k in metrics},
            "traced": [{"seed": r["seed"], "metrics": r["metrics"],
                        "untraced_pipeline_s": r["samples"]["untraced_pipeline_s"],
                        "traced_pipeline_s": r["samples"]["traced_pipeline_s"]}
                       for r in traced],
            "provenance": [r["provenance"] for r in untraced + traced],
        }
    out = BENCH_DIR / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
