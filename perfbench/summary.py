"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/summary.py                      # two sets of seeds 1-10
    python3 perfbench/summary.py --seeds 1 --trace 1  # per-layer metrics

Each run is `perfbench/run.py` with BENCHMARK.json's run length, on
every workload BENCHMARK.json names.  Untraced, the seeds are run in two
sets, one after the other, and for each end-to-end metric the table
gives, per set, the median and the spread over the seeds (quartile
distance over median, `statistics.quantiles(n=4)`), then how much worse
the second set's median is than the first's, as a share of it, next to
the metric's bound.  Traced, one set is run and the table gives the
median and quartiles of each per-layer metric.  All run results are
also written to perfbench/out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return q1, med, q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    sets = 1 if args.trace else 2
    # results[set][workload] = one result per seed
    results: list[dict[str, list[dict]]] = [{} for _ in range(sets)]
    for n in range(sets):
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in args.seeds:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                results[n].setdefault(workload, []).append({"seed": seed, **result})
                print(f"set {n + 1} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ), file=sys.stderr)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "summary.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    def values(runs, name):
        return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]

    if args.trace:
        print(f"{'workload':18} {'metric':28} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12}")
    else:
        print(f"{'workload':18} {'metric':14} {'unit':6} {'median 1':>10} {'spread 1':>8} "
              f"{'median 2':>10} {'spread 2':>8} {'worse':>8} {'bound':>6}")
    for workload in results[0]:
        for m in metrics:
            per_set = [values(r[workload], m["name"]) for r in results]
            if not all(per_set):
                print(f"{workload:18} {m['name']:28} {m['unit']:8} {'missing':>12}")
            elif args.trace:
                q1, med, q3 = _quartiles(per_set[0])
                print(f"{workload:18} {m['name']:28} {m['unit']:8} {med:12.6g} {q1:12.6g} {q3:12.6g}")
            else:
                med1, med2 = (statistics.median(v) for v in per_set)
                worse = (med2 - med1) / med1 * (1 if m["better"] == "lower" else -1)
                print(f"{workload:18} {m['name']:14} {m['unit']:6} {med1:10.6g} {_spread(per_set[0]):8.4f} "
                      f"{med2:10.6g} {_spread(per_set[1]):8.4f} {worse:8.4f} {m['bound']:6.3f}")
        shares = {r["failed"] / r["attempted"] for s in results for r in s[workload]}
        print(f"{workload:18} {'failed share':14} {', '.join(str(f) for f in sorted(shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
