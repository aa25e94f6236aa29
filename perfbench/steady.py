"""Steadiness check: run the benchmark over many seeds and compare spreads with bounds.

    python3 perfbench/steady.py [--workloads build ingest query] [--seeds 10]
                                [--first-seed 1] [--sets 1] [--traced]

For each workload it runs ``run.py`` once per seed and reports, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  A spread must stay within the metric's bound from
BENCHMARK.json (``setup_s`` excepted), and this check asks for a third of it.
With ``--sets 2`` every seed runs twice: the second median may not be worse
than the first by more than the bound, and the exact counts of each seed
(descriptors, patches, rows scored, KIDX bytes, artifact hashes) must repeat.
``--traced`` adds one traced run per workload and set, whose count metrics
(em_iterations, rasters, rows_scored, kidx_bytes, ...) must also repeat.
Exits 1 if any check fails.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "B")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    report = {}
    for workload in args.workloads:
        values = [{name: [] for name in metrics} for _ in range(args.sets)]
        counts = [{} for _ in range(args.sets)]
        traced = []
        for s in range(args.sets):
            for seed in seeds:
                detail, result = run_once(workload, seed, spec["run_seconds"], 0)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: failed operations {detail['errors']}")
                    ok = False
                for name in metrics:
                    values[s][name].append(result["metrics"][name]["value"])
                counts[s][seed] = detail["counts"]
            if args.traced:
                _, result = run_once(workload, args.first_seed, spec["run_seconds"], 1)
                traced.append({
                    k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS
                })
        rows = {}
        for name, metric in metrics.items():
            row = {}
            for s in range(args.sets):
                median, share = spread(values[s][name])
                row[f"median{s + 1}"] = median
                row[f"spread{s + 1}"] = share
                if name != "setup_s" and share > metric["bound"] / 3:
                    ok = False
                    row["fail"] = f"spread above a third of the bound {metric['bound']}"
            if args.sets == 2:
                row["worse"] = worse_by(row["median1"], row["median2"], metric["better"])
                if row["worse"] > metric["bound"]:
                    ok = False
                    row["fail"] = f"second median worse by more than {metric['bound']}"
            rows[name] = row
            print(workload, name, json.dumps({k: round(v, 4) if isinstance(v, float) else v
                                              for k, v in row.items()}))
        if args.sets == 2:
            for seed in seeds:
                if counts[0][seed] != counts[1][seed]:
                    ok = False
                    print(f"{workload} seed {seed}: counts differ {counts[0][seed]} {counts[1][seed]}")
            if args.traced and traced[0] != traced[1]:
                ok = False
                diff = {k: (traced[0][k], traced[1][k]) for k in traced[0] if traced[0][k] != traced[1][k]}
                print(f"{workload}: traced counts differ {diff}")
        report[workload] = {"metrics": rows, "values": values, "counts": counts, "traced": traced}
    out = Path(".perfbench") / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady", f"(details in {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
