"""One workload in one fresh process: set up, measure, check, report.

Started by run.py from the root of a geodisc checkout, with ``src`` on
PYTHONPATH.  ``--t0`` is the parent's perf_counter() just before the
process was started (the clock is system-wide), so the reported set-up
time covers interpreter start, imports, domain loading and warm-up.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import geodisc.cli
import geodisc.continuation
import geodisc.disc
import geodisc.domain
import geodisc.metrics
import geodisc.stationary

import layers
import tracer as tracing
from workloads import WORKLOADS

MODULES = {
    "cli": geodisc.cli,
    "continuation": geodisc.continuation,
    "disc": geodisc.disc,
    "domain": geodisc.domain,
    "metrics": geodisc.metrics,
    "stationary": geodisc.stationary,
}


def measure(wl, seconds, tracer):
    """Closed loop over whole rounds until ``seconds`` of operation time.

    In a traced run every other operation is traced, alternating between
    rounds, and the loop runs at least two rounds: each operation of the
    round is then traced once and run untraced once, close in time, so a
    drift of the host's speed does not enter the tracing overhead.
    """
    out = {"times": [], "traced_times": [], "attempted": 0, "failed": 0,
           "certified": 0, "reasons": [], "failures": [], "artifact_bytes": 0}
    spent, i, installed = 0.0, 0, False
    while spent < seconds or (tracer is not None and i < 2):
        ops = wl.round(i)
        for k, op in enumerate(ops):
            traced = tracer is not None and (i + k) % 2 == 1
            if traced != installed:
                if traced:
                    tracing.install(tracer, MODULES)
                else:
                    tracer.unwrap_all()
                installed = traced
            wl.clear()
            t0 = tracer.begin_op(f"{i}.{k}") if traced else time.perf_counter()
            ok = True
            try:
                wl.run(op)
            except Exception as e:  # a failed operation is counted, not fatal
                ok = False
                out["failures"].append(f"round {i} op {k} ({op.kind}): {type(e).__name__}: {e}")
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_op(t0, not ok)
            out["traced_times" if traced else "times"].append(dt)
            out["attempted"] += 1
            spent += dt
            if not ok:
                out["failed"] += 1
                continue
            if traced:
                out["artifact_bytes"] += wl.artifact_bytes()
            n, reasons = wl.check(op)
            if not traced:
                out["certified"] += n
            out["reasons"] += reasons
        out["reasons"] += wl.check_round(ops)
        i += 1
    if tracer is not None:
        tracer.unwrap_all()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out, SimpleNamespace(**MODULES))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, MODULES)
    wl.setup()
    if tracer is not None:
        tracer.unwrap_all()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = measure(wl, args.seconds, tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        overhead = statistics.median(out["traced_times"]) - statistics.median(out["times"])
        out["per_layer"] = layers.derive(
            tracer.spans, len(out["traced_times"]), out["artifact_bytes"], overhead
        )
        tracer.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
