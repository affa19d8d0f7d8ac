"""Benchmark for cuspdim, standard library only.

    python3 bench/run.py --workload scan --seed 0 --seconds 28 --trace 0

Run from the root of a checkout.  A run makes the workload's inputs from the
seed (workloads.py), then starts one fresh interpreter per pass (child.py):
each pass imports ``cuspdim`` from ``src`` and calls ``cuspdim.cli.main`` on
every item in turn, one caller in a closed loop.  Passes repeat until the
time given by ``--seconds`` is used, one at a time.  Outputs are checked
afterwards by the benchmark's own reference code (reference.py) and, for
seed 0, against the digests recorded in digests.json.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A trace run
alternates untraced and traced passes; the per-layer numbers come from the
traced passes (spans.py) and ``trace.overhead_s`` is the difference between
the two kinds of pass in wall time.  End-to-end numbers never come from a
traced pass.

Timings are in reference seconds: each child also times a small fixed
block of reference work on a timer all through the pass (child.py), and
the time of the import and of each item is scaled by REFERENCE_S over the
mean reference time measured during it.  A slow spell of a shared host
slows the reference as much as the program, so it drops out.  An item's
latency is then the median over the run's passes, which all run the same
items from the same cold start.  ``setup_s`` is the median over many
import-only children spread across the run.

Exits with status 2, printing no result, when the checkout has no
``src/cuspdim`` or a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import child
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0
# Import-only interpreters started before every pass, so that setup_s is a
# median over set-ups spread across the whole run.
SETUP_PROBES_PER_PASS = 3
# The time of child.reference_block on the host the figures are scaled to,
# about its mean time on the 2-vCPU Xeon guest the bounds were set on when
# that host was not busy, so that the figures read close to seconds there.
REFERENCE_S = 0.3e-3
PASS_TIMEOUT_S = 100


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_pass(items, *, trace_path=None, corrupt=False) -> dict:
    spec = {
        "src": SRC,
        "out_dir": os.path.join(OUT, "outputs"),
        "items": [{"argv": item["argv"]} for item in items],
        "trace": trace_path is not None,
        "trace_path": trace_path,
        "corrupt": corrupt,
    }
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
            env=_child_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"a pass failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _passes(items, seconds, trace, corrupt):
    """Run passes until `seconds` are used, each after a few import-only
    children; a trace run alternates an untraced and a traced pass.  A pass
    is started only when the median round so far says it ends in time, and
    at least one round runs.  Returns the plain passes, the traced passes
    with their span files, and the set-up times of every child."""
    plain, traced, setups, durations = [], [], [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probes = [run_pass([]) for _ in range(SETUP_PROBES_PER_PASS)]
        plain.append(run_pass(items, corrupt=corrupt))
        setups += [p["setup_s"] * REFERENCE_S / p["setup_ref_s"] for p in probes + plain[-1:]]
        if trace:
            path = os.path.join(OUT, f"trace-{len(traced)}")
            traced.append((run_pass(items, trace_path=path, corrupt=corrupt), path))
        durations.append(time.perf_counter() - t0)
        used = time.perf_counter() - begin
        if used + statistics.median(durations) > seconds:
            return plain, traced, setups


def _load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def _verdict(check, item, got, expected_digest) -> str | None:
    """None when an item's run is right, else the reason it failed."""
    if any(code != 0 for code in got["codes"]):
        return f"exit codes {got['codes']}"
    if expected_digest is not None and got["digest"] != expected_digest:
        return "stdout differs from the recorded digest"
    with open(os.path.join(OUT, "outputs", got["digest"]), encoding="utf-8") as fh:
        outputs = fh.read().split(child.SEPARATOR)
    try:
        return check(item, outputs)
    except (LookupError, TypeError, ValueError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _judge(workload, items, passes, expected) -> int:
    """Failed units of work over all passes.  Each distinct (item, exit
    codes, output) is judged once; the same bytes get the same verdict."""
    check = reference.CHECKS[workload]
    verdicts: dict[tuple, str | None] = {}
    failed = 0
    for result in passes:
        for k, (item, got) in enumerate(zip(items, result["items"])):
            key = (k, str(got["codes"]), got["digest"])
            if key not in verdicts:
                verdicts[key] = _verdict(check, item, got, expected[k] if expected else None)
                if verdicts[key] is not None:
                    print(f"item {k} {item['argv']}: {verdicts[key]}", file=sys.stderr)
            if verdicts[key] is not None:
                failed += item.get("count", 1)
    return failed


def _item_latencies(passes, scaled=True) -> list[float]:
    """Each item's latency, the median over the passes, in reference seconds
    (or in seconds as measured when not `scaled`)."""
    per_pass = (
        [it["latency_s"] * (REFERENCE_S / it["ref_s"] if scaled else 1.0) for it in p["items"]]
        for p in passes
    )
    return [statistics.median(lat) for lat in zip(*per_pass)]


def _end_to_end(items, passes, setups) -> dict:
    count = sum(item.get("count", 1) for item in items)
    latencies = _item_latencies(passes)
    wall = sum(latencies)
    if len(items) == 1:
        # All units of work (the levels of a scan) come out of one call, so
        # the latency of one is not observable from outside: both
        # percentiles are the mean time per unit.
        p50 = p90 = wall / count * 1e3
    else:
        lat = sorted(x * 1e3 for x in latencies)
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": count / wall,
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def _per_layer(names, plain, traced) -> dict:
    run_wide = {
        "trace.overhead_s": sum(_item_latencies([p for p, _ in traced]))
        - sum(_item_latencies(plain)),
        "host.reference_ms": statistics.median(p["pass_ref_s"] for p in plain) * 1e3,
        "host.unscaled_wall_s": sum(_item_latencies(plain, scaled=False)),
    }
    summaries = [(spans.summarize(path), REFERENCE_S / p["pass_ref_s"]) for p, path in traced]
    values = {}
    for name in names:
        if name in run_wide:
            values[name] = run_wide[name]
            continue
        values[name] = statistics.median_low(_layer_value(name, *s) for s in summaries)
    return values


def _layer_value(name: str, s: dict, scale: float) -> float:
    func, _, stat = name.rpartition(".")
    if name == "trace.spans":
        return s["spans"]
    if name == "cli.stdout_bytes":
        return s["stdout_bytes"]
    if name in spans.COMPUTED:
        return s["computed"].get(name, 0)
    if func.startswith("classify.rule."):
        return s["rules"].get(func[len("classify.rule."):], 0)
    if stat == "hit_ratio":
        info = s["caches"][func]
        total = info["hits"] + info["misses"]
        return info["hits"] / total if total else 0.0
    if stat == "calls":
        return s["functions"].get(func, {"calls": 0})["calls"]
    if stat == "self_s":
        return s["functions"].get(func, {"self_s": 0.0})["self_s"] * scale
    raise KeyError(f"no rule to compute the per-layer metric {name}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="truncate the first item's output (self-test of the checks)")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's stdout digests as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cuspdim", "cli.py")):
        raise BenchError(f"no cuspdim sources under {SRC}")
    items = workloads.build(args.workload, args.seed, args.size)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "outputs"))
    try:
        plain, traced, setups = _passes(items, args.seconds, args.trace, args.corrupt)

        key = f"{args.workload}/{args.size}"
        digests = _load_digests()
        checks_digests = args.seed == DEFAULT_SEED and not args.record_digests
        expected = digests.get(key) if checks_digests else None
        if expected is not None and len(expected) != len(items):
            raise BenchError(f"digests.json holds {len(expected)} items for {key}, "
                             f"the workload has {len(items)}; record them again")
        every = plain + [p for p, _ in traced]
        failed = _judge(args.workload, items, every, expected)
    finally:
        shutil.rmtree(os.path.join(OUT, "outputs"), ignore_errors=True)
    attempted = len(every) * sum(item.get("count", 1) for item in items)
    with open(os.path.join(OUT, "passes.json"), "w") as fh:
        json.dump({"setups": setups, "plain": plain, "traced": [p for p, _ in traced]}, fh)

    if args.record_digests:
        if args.seed != DEFAULT_SEED or failed:
            raise BenchError("digests are recorded only from a clean run at the default seed")
        digests[key] = [it["digest"] for it in plain[0]["items"]]
        with open(DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.trace:
        specs = bench["per_layer"]
        values = _per_layer([m["name"] for m in specs], plain, traced)
    else:
        specs = bench["end_to_end"]
        values = _end_to_end(items, plain, setups)
        values["success_rate"] = 1 - failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
