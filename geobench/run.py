"""geodisc benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 geobench/run.py --workload quadric --seed 1 --seconds 10 --trace 0

Run from the root of a geodisc checkout.  Each workload runs in fresh
worker processes (worker.py) as a closed loop from one single-threaded
client: each operation starts after the previous one ends.  Set-up is
measured in several processes and reported as their median; the last of
them goes on to measure.  The thread settings are left as a user gets
them.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
goes to geobench/out/BENCH_<workload>[_trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("quadric", "near-boundary", "quartic", "table")
# set-up processes per run; the last one goes on to measure
SETUPS = {"quadric": 5, "table": 5, "near-boundary": 2, "quartic": 2}
# the whole run, set-up processes included, must end within this
DEADLINE_S = 170.0


def worker(args, root, out_dir, deadline, setup_only):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=root, stdout=subprocess.PIPE,
        timeout=max(deadline - t0, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geodisc", "__init__.py")):
        print("error: run from the root of a geodisc checkout (src/geodisc is missing)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)

    setups = []
    if not args.trace:
        for _ in range(SETUPS[args.workload] - 1):
            setups.append(worker(args, root, out_dir, deadline, True)["setup_s"])
    rec = worker(args, root, out_dir, deadline, False)
    setups.append(rec["setup_s"])

    if args.trace:
        metrics = {name: {"value": rec["per_layer"][name], "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": statistics.median(rec["times"]), "unit": "s"},
            "certified_per_s": {"value": rec["certified"] / sum(rec["times"]), "unit": "1/s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not rec["reasons"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setups_s=setups, op_times=rec["times"], traced_op_times=rec["traced_times"],
                  reasons=rec["reasons"][:20], failures=rec["failures"][:20])
    suffix = "_trace" if args.trace else ""
    with open(os.path.join(HERE, "out", f"BENCH_{args.workload}{suffix}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
