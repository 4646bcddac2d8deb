"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train_c7 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
are written to ``bench/out/``.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
every run also appends a record with the machine and the thread settings
to ``bench/out/results.jsonl``.  Neither ``OPENBLAS_NUM_THREADS`` nor
``MOSE_THREADS`` is set here: both are recorded as found.
"""

from time import perf_counter

_T_IMPORT = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MOSE_THREADS")


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time.

    Falls back to the time since this module was first executed.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    if not 0.0 < age < 3600.0:
        age = perf_counter() - _T_IMPORT
    return age


def machine_record() -> dict:
    import numpy as np
    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = {k: blas.get(k) for k in ("name", "version",
                                                "openblas configuration")}
    except (TypeError, KeyError):
        rec["blas"] = None
    return rec


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mose", "__init__.py")):
        print(f"bench: no mose sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import UNITS
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), process_age_s)
    os.makedirs(OUT, exist_ok=True)

    values, units = (out.per_layer, UNITS) if args.trace \
        else (out.metrics, workloads.END_TO_END)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": not out.errors, "attempted": out.attempted,
              "failed": 0, "metrics": metrics}
    if out.tracer is not None:
        out.tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "errors": out.errors,
              "extra": out.extra, "result": result}
    with open(os.path.join(OUT, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for err in out.errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
