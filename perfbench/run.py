"""Benchmark for interlace: one workload per call, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh worker
processes, one at a time: several that only set up (import ``interlace`` and
build the seeded inputs) and one that then runs whole passes over the
workload's operations for at least S seconds.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``wall_s`` (median pass), ``setup_s``
(median set-up) and ``peak_rss_mb`` (the measuring worker's peak resident
memory).  With ``--trace 1`` they are the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, mignotte_coeffs  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170


def _child(argv, timeout):
    """Run a worker to completion and return its JSON report."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + argv,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sympy_real_roots(coeffs):
    """Number of distinct real roots, from sympy (used outside timed regions only)."""
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(sum(c * x**k for k, c in enumerate(coeffs)), x).count_roots()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not Path("src/interlace/__init__.py").is_file():
        print("error: run from the root of an interlace checkout (no src/interlace here)",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [_child(base + ["--mode", "setup"], 60) for _ in range(SETUP_PROBES)]
    mode = "trace" if args.trace else "measure"
    left = DEADLINE_S - (time.monotonic() - began)
    rep = _child(base + ["--mode", mode, "--seconds", str(args.seconds)], left)
    probes.append(rep)
    print(f"uncorrected: pass {statistics.median(rep['raw_walls']):.4f} s over "
          f"{len(rep['walls'])} passes, set-up {statistics.median(p['setup_raw_s'] for p in probes):.4f} s; "
          f"calibration loop {statistics.median(rep['cals']) * 1e3:.3f} ms", file=sys.stderr)

    faults = list(rep["faults"])
    if args.workload == "adversarial-roots":
        try:
            want = _sympy_real_roots(mignotte_coeffs())
        except ImportError:
            want = "unknown (sympy is not installed)"
        got = (rep["observed"] or {}).get("mignotte_real_roots")
        if got is not None and got != want:
            faults.append(f"Mignotte polynomial: {got} real roots certified, sympy counts {want}")
    for line in rep["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in faults:
        print(f"incorrect: {line}", file=sys.stderr)

    if args.trace:
        per_layer = rep["per_layer"]
        names = list(METRICS) + ["trace.wall_s", "trace.overhead_s"]
        metrics = {m: {"value": per_layer[m], "unit": _unit(m)} for m in names}
        print(f"spans written to {rep['spans_file']}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rep["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not faults, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "bits" if metric.endswith("_bits") else "count"


if __name__ == "__main__":
    raise SystemExit(main())
