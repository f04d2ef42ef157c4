"""Benchmark entry point: one workload at one seed, one JSON result line.

    python3 coseg_bench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. `--trace 0` prints the end-to-end
metrics; `--trace 1` traces the second of two passes and prints the per-layer
metrics. The line before the result carries the run's metadata. See
NOTES.md for the workloads and metrics.
"""

import os
import sys

# BLAS and OpenMP pinned to one thread before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SOURCES = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("train-toy", "eval-wide")


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def metadata(run) -> dict:
    import numpy as np

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.tracer is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "host.yardstick_ms": statistics.median(run.yardstick_ms),
        "episodes_timed": len(run.episode_s),
        "episodes_traced": len(run.traced_episode_s),
        "setups_timed": len(run.setup_s),
        "outputs": run.outputs,
        "failures": sorted(set(run.failures)),
    }


def result_line(run) -> dict:
    metrics = run.per_layer() if run.tracer is not None else run.end_to_end()
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SOURCES / "pcseg" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no pcseg sources at {SOURCES}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SOURCES))
    import workloads

    run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.tracer is not None:
        traces = BENCH_DIR / "traces"
        traces.mkdir(exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({"meta": metadata(run)}))
    print(json.dumps(result_line(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
