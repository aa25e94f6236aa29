"""patchkernel benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload build|ingest|query --seed N
                             --seconds S --trace 0|1 [--size default|tiny]

Run from the root of a source checkout.  Every step runs in a fresh Python
process with ``src`` on the path and ``KCNN_THREADS`` unset, so the program
resolves its own worker count: the seeded inputs (untimed), four set-up
probes, and the measured process.  The last line of standard output is the
result; the line before it carries the details (environment, counts, tail
percentile, sample count), which are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("build", "ingest", "query")
PROBES = 4


def workload_names(workload: str, values: dict) -> dict:
    """The generic metrics under the names they carry on one workload."""
    if workload == "build":
        return {"build_s": values["op_p50_ms"] / 1000.0, "map": values["map"]}
    if workload == "ingest":
        return {
            "ingest_p50_ms": values["op_p50_ms"], "ingest_tail_ms": values["op_tail_ms"],
            "ingest_images_per_s": values["ops_per_s"], "map": values["map"],
        }
    return {
        "search_p50_ms": values["op_p50_ms"], "search_tail_ms": values["op_tail_ms"],
        "search_qps": values["ops_per_s"],
    }


def child(role: str, args, work: Path, env: dict, timeout: float, **extra) -> dict:
    """Run one workloads.py role in a fresh process; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), role,
        "--workload", args.workload, "--work", str(work), "--size", args.size,
        "--seed", str(args.seed),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", repr(value)]
    if role != "inputs":
        cmd += ["--t0", repr(time.monotonic())]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{role} step exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_digest(src: Path) -> str:
    """sha256 over the names and bytes of a package's Python files."""
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_facts(root: Path) -> dict:
    src = root / "src" / "patchkernel"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_sha256": source_digest(src), "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="patchkernel benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "patchkernel" / "__init__.py").is_file():
        print(f"perfbench: no src/patchkernel under {root}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("KCNN_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    state = root / ".perfbench"
    name = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    work = state / "work" / f"{name}-{os.getpid()}"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        child("inputs", args, work, env, timeout=600)
        setups = [child("probe", args, work, env, timeout=120)["setup_s"] for _ in range(PROBES)]
        run = child("measure", args, work, env, timeout=600,
                    seconds=args.seconds, trace=args.trace)
        if args.trace:
            shutil.copy(work / "spans.jsonl", results / f"{name}-spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(run["setup_s"])
    attempted, failed = run["attempted"], run["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted,
        "op_p50_ms": run["p50_ms"],
        "op_tail_ms": run["tail_ms"],
        "ops_per_s": run["ops_per_s"],
        "map": run["map"],
    }
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed, measured = (
        (spec["per_layer"], run["layers"]) if args.trace else (spec["end_to_end"], values)
    )
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}

    environment = dict(run["environment"], **source_facts(root))
    environment["kcnn_threads_forced_unset"] = True
    detail = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "setup_samples_s": setups,
        "passes": run["passes"],
        "timed_s": run["timed_s"],
        "tail_percentile": run["tail_percentile"],
        "samples": run["samples"],
        "error_rate": failed / attempted,
        "errors": run["errors"],
        "counts": run["counts"],
        "end_to_end": values,
        "by_workload_name": workload_names(args.workload, values),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{name}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
