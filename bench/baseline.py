"""Record a baseline: run.py on several seeds per workload, plus traced
runs on the first TRACED_SEEDS of them, summarised as medians and
quartile spreads.

    python3 bench/baseline.py --seeds 1-10 [--out FILE]

Runs one after another, never in parallel, each for BENCHMARK.json's
run_seconds. Writes every run's metrics, then per workload and metric
the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (third minus first quartile, over the median).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TRACED_SEEDS = 3


def _run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    detail, result = json.loads(out[-2]), json.loads(out[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": detail}


def _summary(runs, names):
    summary = {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive range FIRST-LAST")
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    report = {"seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in range(first, last + 1):
            runs.append(_run(workload, seed, 0))
            runs[-1]["metrics"]["raw_wall_s"] = (
                runs[-1]["detail"]["quartiles"]["raw_wall_s"][1])
            print(workload, seed, runs[-1]["metrics"], flush=True)
        traced = [_run(workload, seed, 1)
                  for seed in range(first, first + TRACED_SEEDS)]
        names = [m["name"] for m in SPEC["end_to_end"]] + ["raw_wall_s"]
        summary = _summary(runs, names)
        report["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "traced_summary": _summary(
                traced, [m["name"] for m in SPEC["per_layer"]]),
            "traced": traced}
        for name, row in summary.items():
            print(f"{workload} {name}: median {row['median']:.6g} "
                  f"spread {row['spread']:.3f}", flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
