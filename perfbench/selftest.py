"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs every workload untraced
and traced through run.py and checks that the last line has the contract's
keys and every metric BENCHMARK.json names, with its unit, and that the
tracer produces exactly the per-layer names listed there.  Then it plants
faults in-process (a wrong ranking, a non-unit Fisher vector, an exception)
and checks that each is counted as exactly one failed operation while the
loop carries on.  Exits 1 on the first set of problems.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def check_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            tag = f"{workload} trace={trace}"
            expect(done.returncode == 0, f"{tag}: exit code {done.returncode}")
            if done.returncode != 0:
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: {result['attempted']} attempted, {result['failed']} failed")
            units = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{tag}: metric names/units differ: "
                   f"{sorted(set(got.items()) ^ set(units.items()))}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float)), f"{tag}: {name} is not a number")
                if trace == 0:
                    expect(value > 0, f"{tag}: end-to-end {name} reads {value}")


def check_layer_names(spec: dict) -> None:
    import tracing

    names = set(tracing.layer_metrics([], 0.0, 0.0))
    listed = {m["name"] for m in spec["per_layer"]}
    expect(names == listed, f"per-layer names differ from BENCHMARK.json: {sorted(names ^ listed)}")


def planted_faults() -> None:
    import workloads
    from patchkernel import encode, index, raster

    work = ROOT / ".perfbench" / "selftest"
    size = workloads.SIZES["tiny"]

    def measure(name, module, attr, fault):
        """Run one pass of a workload with module.attr replaced by fault(original)."""
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = workloads.WORKLOADS[name]()
        workload.inputs(work, 5, size)
        original = getattr(module, attr)
        setattr(module, attr, fault(original))
        try:
            return workloads.measure(workload, work, 0.0, False, 0.0, size)
        finally:
            setattr(module, attr, original)
            shutil.rmtree(work, ignore_errors=True)

    def first_call_only(change):
        def fault(original):
            calls = itertools.count()

            def planted(*args, **kwargs):
                first = next(calls) == 0  # atomic: aggregate runs in the thread pool
                result = original(*args, **kwargs)
                return change(result) if first else result
            return planted
        return fault

    def non_unit(fv):
        return encode.FisherVector(values=fv.values * 2.0, normalized=fv.normalized)

    def swap_first_two(ranked):
        return [ranked[1], ranked[0]] + ranked[2:]

    def raise_on_first(original):
        calls = itertools.count()

        def planted(*args, **kwargs):
            if next(calls) == 0:
                raise OSError("planted read failure")
            return original(*args, **kwargs)
        return planted

    images = size["ingest_scenes"] * 5
    ingest_ops = (images + 1) * workloads.Ingest.min_passes
    cases = [
        ("query", index, "search", first_call_only(swap_first_two),
         size["queries"] * workloads.Query.min_passes),
        ("ingest", encode, "aggregate", first_call_only(non_unit), ingest_ops),
        ("ingest", raster, "read_pgm", raise_on_first, ingest_ops),
        ("build", encode, "aggregate", first_call_only(non_unit), workloads.Build.min_passes),
    ]
    for name, module, attr, fault, attempted in cases:
        out = measure(name, module, attr, fault)
        tag = f"planted fault in {module.__name__}.{attr} on {name}"
        expect(out["failed"] == 1, f"{tag}: {out['failed']} failed, want 1 ({out['errors']})")
        expect(out["attempted"] == attempted, f"{tag}: {out['attempted']} attempted, want {attempted}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_result_lines(spec)
    check_layer_names(spec)
    planted_faults()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
