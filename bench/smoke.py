"""Smoke self-test of the benchmark; takes seconds, not a full run.

    python3 bench/smoke.py

Runs every workload (those in BENCHMARK.json and lexicon-scale) at a tiny
size, once untraced and twice traced. Fails unless every run is correct and
reports exactly the end-to-end or per-layer metrics that BENCHMARK.json names,
with their units, and the work counts of the two traced runs are identical. Last, it checks that the
benchmark refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
from workloads import WORKLOADS  # noqa: E402

#: Units of per-layer metrics that count work or outcomes rather than time.
COUNT_UNITS = ("count", "ratio", "bytes", "MB")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def metrics(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} --trace {trace} failed:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads: {listed - set(WORKLOADS)}"
    for workload in WORKLOADS:
        got = metrics(workload, 0)
        assert {n: u for n, (_, u) in got.items()} == end_to_end, f"{workload}: end-to-end metrics {sorted(got)}"
        first, second = metrics(workload, 1), metrics(workload, 1)
        assert {n: u for n, (_, u) in first.items()} == per_layer, f"{workload}: per-layer metrics {sorted(first)}"
        for name, unit in per_layer.items():
            if unit in COUNT_UNITS:
                assert first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}"
        print(f"ok {workload}: {len(got)} end-to-end and {len(first)} per-layer metrics; counts repeat")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "the benchmark ran without the program"
    print("ok: refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
