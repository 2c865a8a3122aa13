"""One workload in one fresh process: set up, run whole passes, check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Run from the root of a source checkout (``src/interlace`` is imported from
there).  Modes:

* ``setup``: time ``import interlace`` plus building the inputs, then exit;
* ``measure``: untraced passes for at least ``--seconds``;
* ``trace``: one untraced pass, then traced passes for the rest of the time.

The last line of standard output is one JSON object for ``run.py``.

Times are corrected for the speed of the host.  On a shared two-core machine
the speed of pure-Python code drifts by +-25 % over tens of seconds, which no
amount of averaging inside one run removes.  A fixed calibration loop
(exact Fraction and big-integer arithmetic, like the library's own) is timed
before every operation and after the last one; each operation's wall time is
scaled by ``CAL_REF_S`` over the mean of the two calibrations around it.  The
result reads as seconds on a host where the loop takes ``CAL_REF_S``.  The
uncorrected times are reported too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path("perfbench") / "out"

# median time of one calibration loop on the reference host (a 2.1 GHz Xeon
# VM with two cores, Python 3.11)
CAL_REF_S = 0.006
_CAL_POLY = [(-1) ** k * (3**60 + 7 * k) for k in range(30)]


def calibrate() -> float:
    """Wall time of a fixed loop in three parts, one for each kind of work the
    workloads do: Horner evaluation of a 96-bit polynomial at Fractions,
    big-integer modular steps, and a recursive walk over the 3^8 open words of
    a four-letter alphabet, tallied by ascents."""
    t0 = time.perf_counter()
    for k in range(1, 17):
        t, v = Fraction(-k, 2**40 + k), 0
        for c in reversed(_CAL_POLY):
            v = v * t + c
    x = 7**200
    for i in range(3000):
        x = (x * 3 + i) % 5**180
    counts = [0] * 9

    def walk(pos, last, asc):
        if pos == 8:
            counts[asc] += 1
            return
        for c in range(4):
            if c != last:
                walk(pos + 1, c, asc + 1 if last < c else asc)
    walk(0, 0, 0)
    return time.perf_counter() - t0


def run_pass(ops, cache, tracer=None):
    """Each operation cold and alone: the interleaves cache cleared and a full
    collection done before it, outside the timed call."""
    clear = getattr(cache, "cache_clear", None)
    info = getattr(cache, "cache_info", None)
    results, walls, cals = {}, [], []
    for k, op in enumerate(ops):
        if clear:
            clear()
        gc.collect()
        cals.append(calibrate())
        if tracer:
            tracer.op_id = k
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:  # a raising operation counts as failed
            res = exc
        walls.append(time.perf_counter() - t0)
        if tracer and info:
            tracer.counts["realroots.interleaves_cache_hits"] += info().hits
        results[op.name] = res
    cals.append(calibrate())
    corrected = sum(w * 2 * CAL_REF_S / (a + b) for w, a, b in zip(walls, cals, cals[1:]))
    return Pass(corrected, sum(walls), statistics.median(cals)), results


class Pass(NamedTuple):
    wall: float  # corrected for host speed
    raw: float  # as measured
    cal: float  # median calibration time during the pass


def verify(ops, results):
    """Names of the operations that failed, and faults found in outputs."""
    failed, faults = [], []
    for op in ops:
        res = results[op.name]
        if isinstance(res, Exception):
            failed.append(f"{op.name}: {type(res).__name__}: {res}")
            continue
        reason = op.deliver(res) if op.deliver else None
        if reason:
            failed.append(f"{op.name}: {reason}")
        try:
            fault = op.check(res, results)
        except Exception as exc:  # a malformed output the checker cannot read
            fault = f"unreadable output ({type(exc).__name__}: {exc})"
        if fault:
            faults.append(f"{op.name}: {fault}")
    return failed, faults


class Tally:
    def __init__(self, ops, observe):
        self.ops, self.observe = ops, observe
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.faults: list[str] = []
        self.observed: dict | None = None

    def add(self, results):
        failed, faults = verify(self.ops, results)
        self.attempted += len(self.ops)
        self.failed += len(failed)
        self.failures = self.failures or failed
        self.faults += faults
        seen = self.observe(results)
        if self.observed is None:
            self.observed = seen
        elif seen != self.observed:
            self.faults.append(f"observed values changed between passes: {seen} != {self.observed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path("src").resolve()))
    workdir = OUT_DIR / f"{args.workload}-inputs"

    calibrate()  # warm the loop before the calibrations that count
    c0 = calibrate()
    t0 = time.perf_counter()
    ix = importlib.import_module("interlace")
    work = workloads.WORKLOADS[args.workload](ix, args.seed, workdir)
    setup_raw = time.perf_counter() - t0
    setup_s = setup_raw * 2 * CAL_REF_S / (c0 + calibrate())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    cache = getattr(ix, "interleaves", None)
    tally = Tally(work.ops, work.observe)
    wrong_accepted = checks.self_test()
    start = time.perf_counter()
    tracer, untraced, passes, layer = None, None, [], []
    if args.mode == "trace":
        import tracing
        untraced, results = run_pass(work.ops, cache)
        tally.add(results)
        tracer = tracing.Tracer()
        tracer.install(ix)
    while True:
        mark = tracer.mark() if tracer else None
        one, results = run_pass(work.ops, cache, tracer)
        passes.append(one)
        if tracer:
            layer.append(tracer.metrics(mark))
        tally.add(results)
        if time.perf_counter() - start >= args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "walls": [p.wall for p in passes],
        "raw_walls": [p.raw for p in passes],
        "cals": [p.cal for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "faults": tally.faults[:20] + [f"checker accepted a wrong answer: {n}" for n in wrong_accepted],
        "observed": tally.observed,
    }
    if tracer:
        per_layer = {m: statistics.median(p[m] for p in layer) for m in layer[0]}
        per_layer["trace.wall_s"] = statistics.median(p.wall for p in passes)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - untraced.wall
        report["per_layer"] = per_layer
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        report["spans_file"] = str(spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
