"""Run a workload on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload enhance_short --seeds 1-10 \
        --seconds 10 [--trace 0]

Runs ``bench/run.py`` once per seed, one at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``), and the
spread: the distance between the quartiles as a share of the median.  The
spread of an end-to-end metric should stay below a third of its bound in
``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    fail_shares = set()
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    print(f"failed shares: {sorted(fail_shares)}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for k, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
