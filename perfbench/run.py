"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and nowhere else. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report. The
command exits 1 when any operation or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def use_checkout_source() -> None:
    """Import postasr from this checkout's src/, failing if it is absent."""
    if not (SRC / "postasr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'postasr'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import postasr
    if Path(postasr.__file__).resolve().parent != SRC / "postasr":
        raise SystemExit(f"perfbench: imported postasr from {postasr.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (outcome, metrics) with metrics as name -> (value, unit)."""
    import layers
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        w = WORKLOADS[workload](seed, work, SRC)
        if trace:
            outcome, values = w.measure_traced(
                seconds, OUT / f"trace-{workload}-seed{seed}.npz")
            wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
            units = layers.UNITS
        else:
            outcome = w.measure(seconds)
            values = outcome.metrics
            wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            units = wanted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(wanted) - set(values))
    if missing and not outcome.failed:  # a failed run may lack samples for some
        raise RuntimeError(f"metrics not measured: {missing}")
    if any(units[n] != u for n, u in wanted.items()):
        raise RuntimeError("metric units differ from BENCHMARK.json")
    return outcome, {n: (float(values[n]), units[n]) for n in wanted if n in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "correct", "data-decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Pin BLAS/OpenMP threads before numpy is first imported; one thread
    # matches the baselines in ROADMAP.md and stays below nproc.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_source()
    print("# env " + json.dumps(environment(args)), flush=True)
    outcome, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in outcome.report.items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    if outcome.failed > len(outcome.problems):
        print(f"# FAILED: {outcome.failed - len(outcome.problems)} more operations")
    ok = outcome.failed == 0
    print(json.dumps({
        "correct": ok, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
