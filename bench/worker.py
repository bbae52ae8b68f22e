"""Child process of the benchmark: set up latsim, run one pass, print JSON.

    python3 bench/worker.py --role setup|pass --workload NAME --seed N
                            --trace 0|1

Both roles first time the set-up: ``import latsim`` (with its ``cli`` and
``verify`` modules) from the checkout's ``src/``, plus the sieve build the
workload needs. ``setup`` then prints that time and exits. ``pass`` goes on
to run one pass of the workload; with ``--trace 1`` every function in
``tracer.LAYERS`` is traced, and for ``census`` the well-rounded pairs at
each height of the ladder are drained after the pass. One pass per process
keeps anything a pass leaves in memory from speeding up the next one.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Largest sieve each workload uses: `latsim count` at the top of the census
# ladder, and verify_euler's max(nmax, bmax). The classify pipeline uses none.
SIEVE_BOUND = {"census": 1600, "classify": None, "verify": 10_000}


def setup(workload: str) -> dict:
    if not (SRC / "latsim" / "__init__.py").is_file():
        raise SystemExit(f"no latsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import latsim
    import latsim.cli
    import latsim.verify
    t1 = time.perf_counter()
    if SIEVE_BOUND[workload]:
        latsim.build_sieve(SIEVE_BOUND[workload])
    t2 = time.perf_counter()
    if not Path(latsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"latsim was imported from {latsim.__file__}")
    return {"setup_s": t2 - t0, "import_s": t1 - t0, "build_sieve_s": t2 - t1}


def _pass_record(wall: float, tally) -> dict:
    return {"wall_s": wall, "attempted": tally.attempted,
            "failed": tally.failed, "j_mismatches": tally.j_mismatches,
            "unexpected": tally.unexpected, "step_s": tally.step_s}


def run_untraced(run_pass, seed: int) -> dict:
    t0 = time.perf_counter()
    tally = run_pass(seed)
    return _pass_record(time.perf_counter() - t0, tally)


def run_traced(workload: str, run_pass, seed: int) -> tuple[dict, Tracer]:
    from latsim.census import ClassSetId
    from workloads import CENSUS_HEIGHTS

    with Tracer() as tracer:
        with tracer.span("bench.pass"):
            t0 = time.perf_counter()
            tally = run_pass(seed)
            wall = time.perf_counter() - t0
        if workload == "census":
            # Pair generation inside count_fast is private, so it is timed
            # here by draining the public well-rounded enumeration, untraced.
            enumerate_classes = tracer.originals["census.enumerate_classes"]
            with tracer.span("census.pairs"):
                tracer.items["census.pairs"] = sum(
                    1 for T in CENSUS_HEIGHTS
                    for _ in enumerate_classes(ClassSetId.WELL_ROUNDED, T))
    return _pass_record(wall, tally), tracer


def per_layer_metrics(tracer: Tracer, setup_times: dict,
                      j_mismatches: int) -> dict:
    """Every per-layer metric the traced child reports, zero where a layer
    did no work. Times come from one traced pass."""
    from workloads import CENSUS_HEIGHTS, CENSUS_SETS

    summary = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def total(span, key):
        values = [v[key] for k, v in summary.items()
                  if k == span or k.startswith(span + ".")]
        return sum(values, 0.0 if key in ("s", "self_s") else 0)

    for span, _, _ in LAYERS:
        put(f"{span}.s", total(span, "s"), "s")
        put(f"{span}.self_s", total(span, "self_s"), "s")
        put(f"{span}.calls", total(span, "calls"), "count")
        if span == "census.enumerate_classes":
            put(f"{span}.items", total(span, "items"), "count")
    for T in CENSUS_HEIGHTS:
        for s in CENSUS_SETS:
            put(f"census.count_fast.{s}.T{T}.s",
                total(f"census.count_fast.{s}.T{T}", "s"), "s")
    put("census.pairs.s", total("census.pairs", "s"), "s")
    put("census.pairs.items", total("census.pairs", "items"), "count")
    put("modular.classify_by_j.mismatches", j_mismatches, "count")
    put("bench.pass.self_s", total("bench.pass", "self_s"), "s")
    put("setup.import_s", setup_times["import_s"], "s")
    put("setup.build_sieve_s", setup_times["build_sieve_s"], "s")
    put("trace.spans", len(tracer.span_name), "count")
    put("trace.traced_wall_s", total("bench.pass", "s"), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "pass"), required=True)
    parser.add_argument("--workload", choices=sorted(SIEVE_BOUND),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = {"setup": setup(args.workload)}
    if args.role == "pass":
        from workloads import WORKLOADS
        run_pass = WORKLOADS[args.workload]
        if args.trace:
            result["pass"], tracer = run_traced(args.workload, run_pass,
                                                args.seed)
            result["per_layer"] = per_layer_metrics(
                tracer, result["setup"], result["pass"]["j_mismatches"])
        else:
            result["pass"] = run_untraced(run_pass, args.seed)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
