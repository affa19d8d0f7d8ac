"""Smoke self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks, for every workload, that a run prints every end-to-end metric
(``--trace 0``) and every per-layer metric (``--trace 1``) of
BENCHMARK.json with its unit; that the counts of two traced runs with the
same seed repeat exactly; that a deliberately corrupted output is counted
as failed; and that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark itself.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(ROOT, ".bench_out", "bare")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# Per-layer values that are timings; everything else is a count or ratio and
# must repeat exactly between runs of the same inputs.
TIMED_UNITS = ("s", "ms")

problems: list[str] = []


def bench(workload: str, *extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict | None:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    doc = json.loads(proc.stdout.splitlines()[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{what}: result keys {sorted(doc)}")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        problems.append(f"{what}: attempted {doc['attempted']!r}")
    return doc


def expect_metrics(doc: dict, specs: list[dict], what: str) -> None:
    got = doc["metrics"]
    if sorted(got) != sorted(m["name"] for m in specs):
        missing = {m["name"] for m in specs} ^ set(got)
        problems.append(f"{what}: metric names differ from BENCHMARK.json: {sorted(missing)}")
    for m in specs:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{what}: {m['name']} is {entry!r}, wanted a number in {m['unit']}")


def main() -> int:
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for w in workloads.WORKLOADS:
        doc = result_of(bench(w), f"{w} --trace 0")
        if doc:
            expect_metrics(doc, BENCH["end_to_end"], f"{w} --trace 0")
            if not doc["correct"] or doc["failed"]:
                problems.append(f"{w}: clean run reports {doc['failed']} failed items")

        traced = [result_of(bench(w, "--trace", "1"), f"{w} --trace 1") for _ in range(2)]
        if all(traced):
            expect_metrics(traced[0], BENCH["per_layer"], f"{w} --trace 1")
            for name, unit in units.items():
                if unit in TIMED_UNITS:
                    continue
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    problems.append(f"{w}: count {name} differs between runs: {a} != {b}")

        doc = result_of(bench(w, "--corrupt"), f"{w} --corrupt")
        if doc:
            rate = doc["metrics"]["success_rate"]["value"]
            if doc["correct"] or doc["failed"] == 0 or rate >= 1:
                problems.append(f"{w}: a corrupted output was not counted as failed")

    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
        shutil.copytree(HERE, os.path.join(BARE, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("scan", cwd=BARE)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran, or printed a result, without the program")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
