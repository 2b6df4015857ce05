"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base .perfbench_work/base/*.json --new .perfbench_work/results/*.json

Each file is one run's result as written under `.perfbench_work/results/`.
For every workload and metric it prints the median of each side, the
change as a share of the base median, and the bound from BENCHMARK.json;
it lists the runs whose output digests changed for the same seed.
It warns when the runs' environment fingerprints differ, because then the
numbers were not measured under the same conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            out.append(json.load(f))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}

    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) > 1:
        print("WARNING: the runs' environment fingerprints differ; comparisons may not hold:")
        for fp in sorted(prints):
            print("  " + fp)

    base_digests = {(r["workload"], r["seed"]): r.get("digests") for r in base}
    for r in new:
        before = base_digests.get((r["workload"], r["seed"]))
        if before and r.get("digests") and before != r["digests"]:
            changed = sorted(k for k in r["digests"] if before.get(k) != r["digests"][k])
            print(f"output bytes changed: {r['workload']} seed {r['seed']}: {', '.join(changed)}")

    regressions = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace and r["metrics"]]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace and r["metrics"]]
            if not b or not n:
                continue
            print(f"{workload} trace={trace} (base n={len(b)}, new n={len(n)})")
            for name in b[0]["metrics"]:
                mb = statistics.median(r["metrics"][name]["value"] for r in b)
                mn = statistics.median(r["metrics"][name]["value"] for r in n)
                better, bound = bounds.get(name, ("lower", None))
                change = (mn - mb) / mb if mb else 0.0
                worse = change if better == "lower" else -change
                verdict = ""
                if bound is not None:
                    verdict = "REGRESSION" if worse > bound else "ok"
                    regressions += worse > bound
                unit = b[0]["metrics"][name]["unit"]
                print(f"  {name:<36} {mb:12.6g} -> {mn:12.6g} {unit:<8} {change:+8.2%} "
                      f"(bound {bound if bound is not None else '-'}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
