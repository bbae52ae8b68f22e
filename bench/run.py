"""Benchmark of latsim: end-to-end and per-layer timings with checked outputs.

    python3 bench/run.py --workload census|classify|verify|all --seed N
                         --seconds S --trace 0|1 [--out FILE]

Run from anywhere; the library is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is missing.

Workloads (see ``workloads.py``; BENCHMARK.json says why each was chosen):

- ``census``: ``latsim count --set S --max-height T`` in-process for
  S in {all, semistable, wr} and T in {400, 800, 1600}; counts are checked
  against exact values.
- ``classify``: the per-class pipeline over the 41,825 classes of height
  <= 30 and the two near-arc classes of a known classify_by_j defect.
- ``verify``: the Tier-1 acceptance suites, seeded suites with ``--seed``.

Each pass of a workload runs in a fresh child process (``worker.py``), one
at a time, with one thread. With ``--trace 0`` the benchmark starts passes
until one more would overrun ``--seconds`` (always at least one), and
reports, per workload:

- ``setup_s``: ``import latsim`` plus the sieve build the workload needs,
  median over the pass children and a few setup-only children.
- ``wall_s``: wall time of one pass after set-up, median over the passes.
- ``ops_per_s``: operations per second of a pass, median over the passes;
  an operation is one count, one class or one verify check.
- ``step_p99_ms``: 99th percentile latency of one step, where a step is one
  count command, one class through the pipeline or one suite, and its
  latency the lowest over the passes.
- ``peak_rss_mb``: peak resident set of a pass child, median over passes.

With ``--trace 1`` it runs one untraced pass and one traced pass (see
``tracer.py``) and reports the per-layer metrics: per traced function its
inclusive time (``.s``), self time (``.self_s``) and calls, plus the
tracing overhead, which is the traced pass's wall time minus the untraced
one's.

Every operation's output is checked. Failed operations, known defects
included, are counted in ``failed``; ``correct`` is false when any failure
is not a known defect. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
``--workload all`` runs every workload and prefixes each metric with its
workload's name. ``--out FILE`` appends the full record of the run, with the
machine and code it ran on, to FILE as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("census", "classify", "verify")
SETUP_SAMPLES = 4          # setup-only children, besides the pass children
DEADLINE_S = 170.0         # one workload must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child(role: str, workload: str, seed: int, trace: int,
          deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    cmd = [sys.executable, str(WORKER), "--role", role, "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining,
                              env={**os.environ, **SINGLE_THREAD})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {role} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role} child exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    """The machine and code a result was measured on."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _totals(passes: list[dict]) -> tuple[int, int, list[str]]:
    return (sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes),
            [u for p in passes for u in p["unexpected"]])


def end_to_end_metrics(setups: list[dict], runs: list[dict]) -> dict:
    """The end-to-end metrics from setup-only children and pass children.

    A step's latency is its lowest over the passes, which run the same
    inputs in separate processes; that filters out the stalls other tenants
    of the machine cause, without letting one pass warm up another.
    """
    passes = [r["pass"] for r in runs]
    steps = [min(times) for times in zip(*(p["step_s"] for p in passes))]
    return {
        "setup_s": _metric(statistics.median(
            s["setup_s"] for s in setups + [r["setup"] for r in runs]), "s"),
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes),
                          "s"),
        "ops_per_s": _metric(statistics.median(
            p["attempted"] / p["wall_s"] for p in passes), "1/s"),
        "step_p99_ms": _metric(1e3 * statistics.quantiles(
            steps, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": _metric(statistics.median(
            r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer_metrics(base: dict, traced: dict) -> dict:
    """The traced child's per-layer metrics plus the tracing overhead
    against the untraced child, and the failed share of both."""
    metrics = dict(traced["per_layer"])
    untraced = base["pass"]["wall_s"]
    overhead = traced["pass"]["wall_s"] - untraced
    attempted, failed, _ = _totals([base["pass"], traced["pass"]])
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_share"] = _metric(overhead / untraced, "ratio")
    metrics["failed_share"] = _metric(failed / attempted, "ratio")
    return metrics


def _without_steps(one_pass: dict) -> dict:
    return {**{k: v for k, v in one_pass.items() if k != "step_s"},
            "steps": len(one_pass["step_s"])}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        base = child("pass", workload, seed, 0, deadline)
        traced = child("pass", workload, seed, 1, deadline)
        return {"passes": [_without_steps(base["pass"]),
                           _without_steps(traced["pass"])],
                "metrics": per_layer_metrics(base, traced)}
    setups = [child("setup", workload, seed, 0, deadline)["setup"]
              for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(child("pass", workload, seed, 0, deadline))
        last = runs[-1]["pass"]["wall_s"]
        if time.monotonic() - start + last > seconds:
            break
    return {"passes": [_without_steps(r["pass"]) for r in runs],
            "setups": setups + [r["setup"] for r in runs],
            "metrics": end_to_end_metrics(setups, runs)}


def report(workload: str, result: dict) -> None:
    attempted, failed, unexpected = _totals(result["passes"])
    print(f"== {workload}: {len(result['passes'])} pass(es), "
          f"{attempted} operations, {failed} failed "
          f"(failed_share {failed / attempted:.6g}), "
          f"{len(unexpected)} not known defects")
    for label in unexpected[:20]:
        print(f"   UNEXPECTED FAILURE {label}")
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full record of the run to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latsim" / "__init__.py").is_file():
        print(f"error: no latsim package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    info = machine()
    print("machine: " + json.dumps(info))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    correct = True
    metrics = {}
    for name, result in results.items():
        n_attempted, n_failed, unexpected = _totals(result["passes"])
        attempted += n_attempted
        failed += n_failed
        correct = correct and not unexpected
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "machine": info,
                "results": results}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
