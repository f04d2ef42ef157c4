"""Self-test of the benchmark: every workload at a tiny size.

    python3 coseg_bench/selftest.py

Each workload runs untraced and then traced twice, in this process. The
test checks that every run is correct, that its metrics are exactly
those BENCHMARK.json names, with their units, that every span nests
inside its parent and that the traced counts repeat exactly. Exits 1 on
the first failure.
"""

import json
import sys

import run as bench  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(bench.SOURCES))
import workloads  # noqa: E402

COUNTS = ("tensor.nodes", "tensor.closures", "sampling.cap_points.calls", "sampling.cap_points.used_ratio")


def units(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_run(name, trace, spec):
    run = workloads.run(name, seed=1, seconds=1, trace=trace, small=True)
    line = bench.result_line(run)
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        raise AssertionError(f"{name}: run not correct: {bench.metadata(run)['failures']}")
    got = {metric: value["unit"] for metric, value in line["metrics"].items()}
    want = units(spec, "per_layer" if trace else "end_to_end")
    if got != want:
        raise AssertionError(f"{name}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json, "
                             f"or their units do: {got} vs {want}")
    if trace:
        errors = run.tracer.nesting_errors()
        if errors:
            raise AssertionError(f"{name}: spans do not nest: {errors[:5]}")
    return line["metrics"]


def main() -> int:
    spec = json.loads((bench.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOAD_NAMES):
        raise AssertionError("BENCHMARK.json workloads differ from run.py's")
    for name in bench.WORKLOAD_NAMES:
        check_run(name, False, spec)
        first, second = (check_run(name, True, spec) for _ in range(2))
        for count in COUNTS:
            if first[count]["value"] != second[count]["value"]:
                raise AssertionError(f"{name}: {count} differs between two traced runs")
        print(f"selftest: {name} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
