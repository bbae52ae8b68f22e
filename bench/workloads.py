"""The benchmark's workloads and the checks on their outputs.

Each workload function runs one pass on inputs made from ``seed`` through
latsim's public functions with default options, and returns a ``Tally``:
operations attempted and failed, the latency of each timed step, and the
failures that are not known defects. An operation is one count (census), one
class (classify) or one verify check (verify).

Known defects, listed below from the ROADMAP, the README and runs of this
benchmark, count as failed operations like any other failure; they are never
filtered out. They only
keep the pass "correct": a pass is correct when every failure in it is a
known defect, so a new failure, or a known one that changes form, makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import time
from dataclasses import dataclass, field

from latsim import census, classes, cli, lattice, modular, verify
from latsim.census import ClassSetId

CENSUS_SETS = ("all", "semistable", "wr")
CENSUS_HEIGHTS = (400, 800, 1600)
# Exact counts (all / semistable / wr); the moebius and prefix_tables
# kernels agree on them.
CENSUS_EXPECTED = {
    (400, "all"): 1283275469, (400, "semistable"): 98477289,
    (400, "wr"): 24340,
    (800, "all"): 20542882284, (800, "semistable"): 1579003660,
    (800, "wr"): 97376,
    (1600, "all"): 328049970981, (1600, "semistable"): 25227058954,
    (1600, "wr"): 389117,
}

CLASSIFY_HEIGHT = 30
MAX_WORD = 10
# Classes within 4e-7 of the unit arc that classify_by_j calls well-rounded
# although they are not (known defect: its fixed tolerance is 1e-6).
NEAR_ARC = ((19, 149, 121, 123), (27, 166, 184, 189))

KNOWN_FAILING_CHECKS = frozenset({
    # Criterion 4 fails by design: the deviations from the main terms
    # oscillate at T = 50, 100, 200, 400 (README, "Testing").
    "N1 relative deviation strictly decreases",
    "N2 relative deviation strictly decreases",
    "N1 deviation within log(T)/T envelope",
    # Fails for some seeds: 12 of the seeds 0..299 (22, 37, 105, ...) give
    # |j(-1/tau) - j(tau)| up to 2.6e-8 on verify_modular's random points.
    "inversion j(-1/tau) = j(tau) within 1e-8 on 100 points",
})


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    j_mismatches: int = 0
    unexpected: list[str] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)

    def record(self, ok: bool, label: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_defect:
                self.unexpected.append(label)


def run_census(seed: int, heights=CENSUS_HEIGHTS) -> Tally:
    """`latsim count --set S --max-height T` in-process; the seed orders the
    counts. A step is one count command."""
    jobs = [(T, s) for T in heights for s in CENSUS_SETS]
    random.Random(seed).shuffle(jobs)
    tally = Tally()
    for T, s in jobs:
        label = f"count --set {s} --max-height {T}"
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(["count", "--set", s, "--max-height", str(T)])
        except Exception as exc:
            tally.step_s.append(time.perf_counter() - t0)
            tally.record(False, f"{label}: {exc!r}")
            continue
        tally.step_s.append(time.perf_counter() - t0)
        got = out.getvalue().strip()
        tally.record(rc == 0 and got == str(CENSUS_EXPECTED[T, s]),
                     f"{label}: exit {rc}, printed {got!r}, "
                     f"expected {CENSUS_EXPECTED[T, s]}")
    return tally


_LETTERS = (lattice.UnimodularMatrix.inversion(),
            lattice.UnimodularMatrix.translation(1),
            lattice.UnimodularMatrix.translation(-1))


def _random_word(rng: random.Random) -> lattice.UnimodularMatrix:
    g = lattice.UnimodularMatrix.identity()
    for _ in range(rng.randint(0, MAX_WORD)):
        g = rng.choice(_LETTERS) @ g
    return g


def run_classify(seed: int, height: int = CLASSIFY_HEIGHT) -> Tally:
    """The per-class pipeline over every class of height <= `height` plus
    the near-arc classes. A step is one class through the pipeline.

    For each class q: classify it, move q.tau by a seeded random word in
    S, T, T^-1, recover the class exactly from the moved lattice, check the
    geometric predicates on the moved lattice against classify, and take the
    j-based verdict and the Weil-height bound.
    """
    rng = random.Random(seed)
    tally = Tally()
    WR = classes.ClassKind.WELL_ROUNDED
    NOT_SS = classes.ClassKind.NOT_SEMISTABLE
    stream = itertools.chain(
        census.enumerate_classes(ClassSetId.ALL, height),
        (classes.TauQuadruple(*t) for t in NEAR_ARC))
    for q in stream:
        g = _random_word(rng)
        key = (q.a, q.b, q.c, q.d)
        t0 = time.perf_counter()
        try:
            kind = classes.classify(q)
            tau = q.tau
            form = lattice.tau_gram(lattice.modular_act(g, tau))
            back = lattice.canonical_tau(form)
            wr = lattice.is_well_rounded(form)
            ss = lattice.is_semistable(form)
            by_j = modular.classify_by_j(q)
            bound = classes.weil_height_bound(q)
        except Exception as exc:
            tally.step_s.append(time.perf_counter() - t0)
            tally.record(False, f"class {key}: {exc!r}")
            continue
        tally.step_s.append(time.perf_counter() - t0)
        exact_ok = ((back.re, back.im_sq) == (tau.re, tau.im_sq)
                    and wr == (kind is WR) and ss == (kind is not NOT_SS)
                    and bound <= classes.weil_height_ceiling(q) + 1e-9)
        j_ok = by_j == (kind is WR)
        if not j_ok:
            tally.j_mismatches += 1
        tally.record(exact_ok and j_ok,
                     f"class {key}: kind {kind}, round trip to "
                     f"({back.re}, {back.im_sq}), wr={wr}, ss={ss}, "
                     f"classify_by_j={by_j}, weil bound {bound:.6g}",
                     known_defect=exact_ok and key in NEAR_ARC)
    return tally


def verify_calls(seed: int):
    """The Tier-1 acceptance calls, with the seed passed to seeded suites."""
    return (
        ("counts", lambda: verify.verify_counts(40)),
        ("asymptotics", lambda: verify.verify_asymptotics()),
        ("euler", lambda: verify.verify_euler(seed=seed)),
        ("haar", lambda: verify.verify_haar()),
        ("modular", lambda: verify.verify_modular(seed=seed)),
        ("geometry", lambda: verify.verify_geometry(20)),
        ("reduction_invariance",
         lambda: verify.verify_reduction_invariance(1000, seed=seed)),
        ("heights", lambda: verify.verify_heights(50, 200)),
    )


def run_verify(seed: int, suites=None) -> Tally:
    """The acceptance suites. A step is one suite call; an operation is one
    check. `suites` restricts the run to the named suites."""
    tally = Tally()
    for name, call in verify_calls(seed):
        if suites is not None and name not in suites:
            continue
        t0 = time.perf_counter()
        try:
            checks = call()
        except Exception as exc:
            tally.step_s.append(time.perf_counter() - t0)
            tally.record(False, f"{name}: {exc!r}")
            continue
        tally.step_s.append(time.perf_counter() - t0)
        for check, passed, detail in checks:
            tally.record(passed, f"{name}: {check} ({detail})",
                         known_defect=check in KNOWN_FAILING_CHECKS)
    return tally


WORKLOADS = {"census": run_census, "classify": run_classify,
             "verify": run_verify}
