"""Benchmark of seaqt: one workload per run, end-to-end times from untraced
rounds, per-layer figures from traced rounds, and independent checks of
every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-scenarios DIR --seed N   # CLI scenario files

Run from anywhere; the program is imported from ``src`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it record the BLAS library, its thread count and the platform, and
every check with its tolerance and measured margin.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import BENCH, SRC, run_child

SETUP_SAMPLES = 5


def blas_record() -> dict:
    """BLAS library, its thread count as the library reports it, and the platform."""
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform(), "cpus": os.cpu_count()}


def import_scipy_seconds(out_dir: Path) -> float:
    """Part of ``import seaqt`` spent importing scipy, from ``-X importtime``."""
    log = out_dir / "importtime.txt"
    _, code = run_child([sys.executable, "-X", "importtime", "-c", "import seaqt"], log)
    if code != 0:
        raise RuntimeError(f"import seaqt failed, see {log}")
    entries = []
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # entries are printed children first; walk them parents first so that
    # only the outermost scipy import under each non-scipy parent is summed
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s[1] for s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total / 1e6


def setup_seconds(name: str, seed: int, out_dir: Path) -> list[float]:
    """Fresh-process set-up times: interpreter start, import, models, states."""
    if name == "cli_scenarios":
        argv = [sys.executable, "-c", "import seaqt"]
    else:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(seed), "--setup-only"]
    samples = []
    for i in range(SETUP_SAMPLES):
        wall, code = run_child(argv, out_dir / f"setup{i}.txt")
        if code != 0:
            raise RuntimeError(f"set-up process failed, see {out_dir / f'setup{i}.txt'}")
        samples.append(wall)
    return samples


def summarize_checks(checks) -> tuple[bool, list]:
    """One row per check name: tolerance, worst measured value and margin."""
    table: dict[str, dict] = {}
    for c in checks:
        row = table.setdefault(c.name, {"check": c.name, "tolerance": c.tolerance,
                                        "worst": c.measured, "n": 0, "failed": 0})
        row["worst"] = max(row["worst"], c.measured)
        row["n"] += 1
        row["failed"] += not c.passed
    rows = sorted(table.values(), key=lambda r: r["check"])
    for r in rows:
        r["margin"] = r["tolerance"] - r["worst"]
    return all(r["failed"] == 0 for r in rows), rows


def measure(args, out_dir: Path) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    trace = bool(args.trace)
    setup = [] if trace else setup_seconds(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer() if trace else None
    # in-process workloads run one round first to fill caches and finish
    # lazy set-up; it is checked and counted, but its timings are left out
    warm_up = [wl.run_round(None)] if wl.WARM_UP else []
    plain, traced_rounds = [], []
    start = perf_counter()
    while True:
        plain.append(wl.run_round(None))
        if trace:
            traced_rounds.append(wl.run_round(tracer))
        if perf_counter() - start >= args.seconds:
            break
    rounds = warm_up + plain + traced_rounds
    correct, check_rows = summarize_checks(c for r in rounds for c in r.checks)
    _, failed_op_rows = summarize_checks(c for r in rounds for c in r.failed_checks)
    attempted = sum(o.count for r in rounds for o in r.ops)
    failed = sum(o.count for r in rounds for o in r.ops if o.failed)
    errors = sorted({o.error for r in rounds for o in r.ops if o.failed})
    if trace:
        stats = tracing.merge([tracer.stats()] +
                              [s for r in traced_rounds for s in r.child_stats])
        metrics = tracing.layer_metrics(stats, len(traced_rounds))
        med = statistics.median
        metrics["ensemble.pure_ops_s"] = (
            med([r.extra.get("pure_ops_s", 0.0) for r in plain]), "s")
        for sub in workloads.SUBCOMMANDS:
            metrics[f"cli.{sub}_s"] = (
                med([r.extra.get(f"cli.{sub}_s", 0.0) for r in plain]), "s")
        metrics["cli.import_scipy_s"] = (import_scipy_seconds(out_dir), "s")
        metrics["trace.overhead"] = (
            med([r.wall_s for r in traced_rounds]) / med([r.wall_s for r in plain]) - 1.0,
            "share")
    else:
        # for cli_scenarios the largest child: every subcommand outgrows the
        # set-up children, which only import seaqt
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli_scenarios"
               else resource.RUSAGE_SELF)
        rss = resource.getrusage(who).ru_maxrss / 1024.0
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
                   "peak_rss_mb": (rss, "MB")}
    info = {"workload": args.workload, "seed": args.seed, "trace": int(trace),
            "rounds": len(plain), "traced_rounds": len(traced_rounds),
            "wall_s_rounds": [r.wall_s for r in plain], "setup_s_samples": setup,
            "failed_operations": errors, "env": blas_record()}
    return {"info": info, "checks": check_rows, "checks_of_failed_operations": failed_op_rows,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's models and states, then exit")
    parser.add_argument("--write-scenarios", metavar="DIR",
                        help="write the CLI scenario files for --seed to DIR")
    args = parser.parse_args(argv)
    if not (SRC / "seaqt" / "__init__.py").is_file():
        print(f"error: seaqt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_scenarios:
        _, paths = workloads.write_scenarios(args.seed, Path(args.write_scenarios))
        print("\n".join(str(p) for p in paths.values()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, None)
        return 0
    # turn a termination request into an exception, so that running child
    # processes are stopped and the output directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = BENCH / "_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        report = measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # fails while another run still uses it
    print(json.dumps({"info": report["info"]}))
    print(json.dumps({"checks": report["checks"],
                      "checks_of_failed_operations": report["checks_of_failed_operations"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
