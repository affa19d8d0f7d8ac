"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin, imports ``cuspdim`` from the checkout's ``src``
(timing the import), then calls ``cuspdim.cli.main(argv)`` for every command
of every item in turn, capturing stdout.  Each item's latency covers its
calls only; between items the pass hashes the captured output and, the
first time a digest appears, stores the output under ``out_dir`` for the
parent's checks.  The last line on the real stdout is a JSON summary.

With ``trace`` set, the public functions are wrapped first (see spans.py)
and the spans and counters are written to ``trace_path`` at the end.

From before the import to the end, a ``HostSampler`` times a small fixed
block of reference work every ``SAMPLE_PERIOD_S`` seconds, from a timer
signal, so the samples fall evenly in time, inside long calls too.  For the
import and for every item the summary gives the time net of the samples
taken inside it and the mean reference time over those samples (or over
the nearest ones when none fell inside).  The parent divides the first by
the second, so that a shared host's slow spells, which slow the reference
as much as the program, drop out of the figures.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction

SEPARATOR = "\n\x00\n"
SAMPLE_PERIOD_S = 0.02


def reference_block() -> str:
    """Fixed work of the kinds cuspdim spends its time on: Fraction sums,
    integer arithmetic, dict building and JSON text; about 0.3 ms."""
    table = {}
    total = Fraction(0)
    for i in range(60):
        total += Fraction(i % 7 + 1, i % 13 + 1)
        table[i] = i * i % 97
    return json.dumps(table) + str(total)


class HostSampler:
    """Times ``reference_block`` on every tick of an interval timer."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_block()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, begin: float, end: float) -> tuple[float, float]:
        """(net, reference) for the span [begin, end]: its duration less the
        samples taken inside it, and their mean time (the mean of the last
        sample before and the first after when none fell inside)."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_right(self.ends, end)
        inside = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        net = end - begin - sum(inside)
        if not inside:
            inside = [self.ends[k] - self.starts[k] for k in (lo - 1, lo) if 0 <= k < len(self.starts)]
        return net, sum(inside) / len(inside)


def _call(main, argv) -> tuple[str, object]:
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an item that raises is counted, not fatal
        code = f"{type(exc).__name__}: {exc}"
    return out.getvalue(), code


def run(spec: dict, sampler: HostSampler) -> dict:
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import cuspdim  # noqa: F401
    import cuspdim.cli

    t1 = time.perf_counter()
    # Wait for a sample after the import, so that an import no tick hit has
    # a sample on either side.
    while len(sampler.starts) == 0 or sampler.starts[-1] < t1:
        time.sleep(SAMPLE_PERIOD_S / 4)
    setup_s, setup_ref_s = sampler.interval(t0, t1)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "items": []}
    if not spec["items"]:
        return result

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()

    main = cuspdim.cli.main
    out_dir = spec["out_dir"]
    stdout_bytes = 0
    spans_of_items = []
    pass_start = time.perf_counter()
    for k, item in enumerate(spec["items"]):
        outputs, codes = [], []
        start = time.perf_counter()
        for argv in item["argv"]:
            text, code = _call(main, argv)
            outputs.append(text)
            codes.append(code)
        spans_of_items.append((start, time.perf_counter()))
        stdout_bytes += sum(len(text.encode()) for text in outputs)
        blob = SEPARATOR.join(outputs)
        if spec.get("corrupt") and k == 0:
            blob = blob[: len(blob) // 2]
        data = blob.encode()
        digest = hashlib.sha256(data).hexdigest()
        path = os.path.join(out_dir, digest)
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(data)
        result["items"].append({"codes": codes, "digest": digest})
    pass_end = time.perf_counter()
    while sampler.starts[-1] < pass_end:
        time.sleep(SAMPLE_PERIOD_S / 4)
    sampler.stop()

    for entry, (start, end) in zip(result["items"], spans_of_items):
        entry["latency_s"], entry["ref_s"] = sampler.interval(start, end)
    result["pass_ref_s"] = sampler.interval(pass_start, pass_end)[1]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(spec["trace_path"], stdout_bytes)
    return result


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    sampler = HostSampler()
    sampler.start()
    summary = run(spec, sampler)
    sampler.stop()
    sys.stdout.write(json.dumps(summary) + "\n")
