import json
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from latsim import census, classes, lattice, modular, verify
from latsim.classes import TauQuadruple
from latsim.cli import SET_IDS, main
from test_lattice import random_lattice

FORMATS = ("jsonl", "csv", "plain")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def class_record(item) -> dict:
    """The record of one streamed class, built object by object: the oracle
    of latsim enumerate's column path. A WrPair prints as its quadruple with
    the pair height b, a TauQuadruple with its height max(b, c, d)."""
    if isinstance(item, classes.WrPair):
        q = classes.wr_pair_to_quadruple(item)
        height = item.b
    else:
        q = item
        height = classes.max_height(q)
    return {"a": q.a, "b": q.b, "c": q.c, "d": q.d,
            "kind": str(classes.classify(q)), "height": height}


def record_text(items, fmt: str) -> str:
    """The text latsim enumerate --format fmt prints for these classes."""
    lines = []
    for rec in map(class_record, items):
        if fmt == "jsonl":
            lines.append(json.dumps(rec))
        elif fmt == "csv":
            lines.append("{a},{b},{c},{d},{kind},{height}".format(**rec))
        else:
            lines.append("({a},{b},{c},{d}) {kind} height={height}"
                         .format(**rec))
    return "".join(line + "\n" for line in lines)


class TestCount:
    def test_fast(self, capsys):
        code, out, _ = run(capsys, "count", "--set", "all", "--max-height", "2")
        assert code == 0 and out.strip() == "4"

    def test_wr_height_beyond_the_sieve_bound_is_a_usage_error(self, capsys):
        # refused before the sieve's tables are allocated
        code, out, err = run(capsys, "count", "--set", "wr",
                             "--max-height", "1000000000")
        assert code == 2 and out == ""
        assert err.strip() == "error: sieve bound 1000000000 exceeds 10000000"

    def test_height_below_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "--set", "wr",
                             "--max-height", "0")
        assert code == 2 and out == ""
        assert err.strip() == "error: T must be >= 1"

    def test_out_of_memory_is_an_error_not_a_traceback(self, capsys,
                                                        monkeypatch):
        def no_memory(set_id, T):
            raise MemoryError("Unable to allocate 4.66 GiB")

        monkeypatch.setattr(census, "count_fast", no_memory)
        code, out, err = run(capsys, "count", "--set", "all",
                             "--max-height", "100000")
        assert code == 2 and out == ""
        assert err.strip() == "error: Unable to allocate 4.66 GiB"


class TestEnumerate:
    def test_jsonl_roundtrip_through_classify(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--set", "all",
                           "--max-height", "2", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        for rec in records:
            tau = f"{rec['a']},{rec['b']},{rec['c']},{rec['d']}"
            code2, out2, _ = run(capsys, "classify", "--tau", tau)
            assert code2 == 0
            assert out2.split()[0] == rec["kind"]

    def test_wr_heights_use_pair_convention(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--set", "wr",
                        "--max-height", "3", "--format", "jsonl")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["a"], r["b"], r["height"]) for r in records] == \
            [(0, 1, 1), (1, 2, 2), (1, 3, 3)]

    @pytest.mark.parametrize("set_name, fmt, lines", [
        ("all", "csv", ["0,1,1,1,WellRounded,1",
                        "0,1,2,1,NotSemiStable,2",
                        "1,2,1,1,SemiStableNotWR,2",
                        "1,2,2,1,NotSemiStable,2"]),
        ("all", "plain", ["(0,1,1,1) WellRounded height=1",
                          "(0,1,2,1) NotSemiStable height=2",
                          "(1,2,1,1) SemiStableNotWR height=2",
                          "(1,2,2,1) NotSemiStable height=2"]),
        # WR pairs print as their quadruples, with the pair height
        ("wr", "csv", ["0,1,1,1,WellRounded,1",
                       "1,2,3,4,WellRounded,2"]),
        ("wr", "plain", ["(0,1,1,1) WellRounded height=1",
                         "(1,2,3,4) WellRounded height=2"]),
    ])
    def test_text_formats(self, capsys, set_name, fmt, lines):
        code, out, _ = run(capsys, "enumerate", "--set", set_name,
                           "--max-height", "2", "--format", fmt)
        assert code == 0 and out.splitlines() == lines

    @pytest.mark.parametrize("set_name", sorted(SET_IDS))
    def test_equals_per_object_records(self, capsys, set_name):
        for T in range(1, 13):
            items = list(census.enumerate_classes(SET_IDS[set_name], T))
            for fmt in FORMATS:
                code, out, _ = run(capsys, "enumerate", "--set", set_name,
                                   "--max-height", str(T), "--format", fmt)
                assert code == 0 and out == record_text(items, fmt), (T, fmt)

    @pytest.mark.parametrize("set_name", sorted(SET_IDS))
    def test_head_at_250_equals_per_object_records(self, capsys, monkeypatch,
                                                   set_name):
        # the CLI prints the first three blocks of height 250, where the
        # (0, 1) columns of the set all span two of them; the oracle takes
        # as many classes off the object stream
        set_id, class_blocks = SET_IDS[set_name], census._class_blocks
        n = sum(blk[2].size for blk in islice(class_blocks(set_id, 250), 3))
        items = list(islice(census.enumerate_classes(set_id, 250), n))
        monkeypatch.setattr(census, "_class_blocks",
                            lambda s, T: islice(class_blocks(s, T), 3))
        for fmt in FORMATS:
            code, out, _ = run(capsys, "enumerate", "--set", set_name,
                               "--max-height", "250", "--format", fmt)
            assert code == 0 and out == record_text(items, fmt), fmt
        if set_id is census.ClassSetId.ALL:
            assert n > census._LIST_SLICE
            assert out.count("(0,1,") > census._LIST_SLICE

    def test_reader_closing_the_pipe_exits_quietly(self):
        # 129,872 rows overflow the pipe's buffer, so the writes after the
        # reader has gone fail
        env = dict(os.environ,
                   PYTHONPATH=str(Path(census.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "latsim.cli", "enumerate", "--set", "all",
             "--max-height", "40", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"0,1,1,1,WellRounded,1\n"
        assert err == b""


class TestClassify:
    def test_wr_prints_both_heights(self, capsys):
        code, out, _ = run(capsys, "classify", "--tau", "1,2,3,4")
        assert code == 0
        assert out.strip() == "WellRounded height_quadruple=4 height_pair=2"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--tau", "2,4,1,1"])
        assert exc.value.code == 2


class TestClassifyBasis:
    def test_square_lattice(self, capsys):
        # a negative first entry needs the "=": argparse reads
        # "--basis -1,0,0,1" as two options
        for argv in (("--basis", "1,0,5,1"), ("--basis=-1,0,0,1",)):
            code, out, _ = run(capsys, "classify", *argv)
            assert code == 0 and out.splitlines() == [
                "tau=0,1,1,1", "WellRounded height_quadruple=1 height_pair=1"]

    def test_fractional_basis(self, capsys):
        code, out, _ = run(capsys, "classify", "--basis", "1,0,1/2,3/2")
        assert code == 0
        assert out.splitlines() == ["tau=1,2,9,4",
                                    "NotSemiStable height_quadruple=9"]

    @pytest.mark.parametrize("argv", [
        ("--basis", "1,2,2,4"),
        ("--basis", "1,0,0"),
        ("--tau", "1,2,3,4", "--basis", "1,0,0,1"),
        (),
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["classify", *argv])
        assert exc.value.code == 2

    def test_equals_the_lattice_layer(self, capsys):
        # the facts the basis names: its class quadruple is the canonical
        # tau of its Gram form, and its kind is the form's predicates'
        rng = random.Random(59)
        kinds = set()
        for _ in range(500):
            basis = random_lattice(rng)
            form = lattice.gram(basis)
            tau = lattice.canonical_tau(form)
            text = ",".join(str(x) for v in (basis.v1, basis.v2) for x in v)
            code, out, _ = run(capsys, "classify", f"--basis={text}")
            first, line = out.splitlines()
            assert code == 0
            assert first == "tau={},{},{},{}".format(
                tau.re.numerator, tau.re.denominator,
                tau.im_sq.numerator, tau.im_sq.denominator), text
            kind = classes.ClassKind(line.split()[0])
            assert (kind is classes.ClassKind.WELL_ROUNDED) is \
                lattice.is_well_rounded(form), text
            assert (kind is not classes.ClassKind.NOT_SEMISTABLE) is \
                lattice.is_semistable(form), text
            kinds.add(kind)
        assert kinds == set(classes.ClassKind)

    def test_one_reduction_per_call(self, capsys, monkeypatch):
        calls = []
        lagrange = lattice._lagrange

        def counted(a, b, c):
            calls.append((a, b, c))
            return lagrange(a, b, c)

        monkeypatch.setattr(lattice, "_lagrange", counted)
        code, out, _ = run(capsys, "classify", "--basis", "1,0,1/2,3/2")
        assert code == 0 and out.startswith("tau=1,2,9,4\n")
        assert len(calls) == 1


class TestJAndHeight:
    def test_j_of_square_class(self, capsys):
        code, out, _ = run(capsys, "j", "--tau", "0,1,1,1")
        assert code == 0 and out.startswith("j=1728")

    def test_j_normalized(self, capsys):
        # j(rho) = 0, so the normalized value prints as a tiny real
        code, out, _ = run(capsys, "j", "--tau", "1,2,3,4", "--normalized")
        assert code == 0 and out.startswith("j=")
        assert "e-" in out.split()[0]

    def test_j_at_large_im(self, capsys):
        code, out, _ = run(capsys, "j", "--tau", "1,2,47,1")
        assert code == 0 and out.startswith("j=")

    def test_j_of_163_within_printed_error(self, capsys):
        code, out, _ = run(capsys, "j", "--tau", "1,2,163,4")
        assert code == 0
        fields = dict(f.split("=") for f in out.split())
        value = complex(fields["j"].replace("i", "j"))
        assert abs(value - (-640320 ** 3)) <= float(fields["est_error"])

    def test_j_prints_the_computed_error_bound(self, capsys):
        # the printed bound parses back to the computed double, so it is
        # never rounded below it
        tau = modular.tau_of_quadruple(TauQuadruple(1, 2, 163, 4))
        for flags, fn in (((), modular.j_invariant),
                          (("--normalized",), modular.j_normalized)):
            code, out, _ = run(capsys, "j", "--tau", "1,2,163,4", *flags)
            assert code == 0
            fields = dict(f.split("=") for f in out.split())
            assert float(fields["est_error"]) == fn(tau).est_error, flags

    def test_height(self, capsys):
        code, out, _ = run(capsys, "height", "--tau", "1,2,3,4")
        assert code == 0
        assert "weil_height_bound=4" in out
        assert "ceiling=8.9442719099991592" in out

    @pytest.mark.parametrize("tau", ["0,1,2,1", "1,2,3,4", "3,7,41,40"])
    def test_height_parses_back_to_the_doubles(self, capsys, tau):
        # 12 digits printed 1.41421356237 for the bound 1.4142135623730951
        q = TauQuadruple(*(int(x) for x in tau.split(",")))
        code, out, _ = run(capsys, "height", "--tau", tau)
        assert code == 0
        fields = dict(f.split("=") for f in out.split())
        assert float(fields["weil_height_bound"]) == \
            classes.weil_height_bound(q)
        assert float(fields["ceiling"]) == classes.weil_height_ceiling(q)


class TestVerify:
    def test_haar_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "haar")
        assert code == 0
        assert "0.04507034144" in out
        assert all(line.startswith("[PASS]")
                   for line in out.strip().splitlines())

    def test_verify_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "haar")
        _, out2, _ = run(capsys, "verify", "--suite", "haar")
        assert out1 == out2

    @pytest.mark.parametrize("suite", ["geometry", "reduction_invariance",
                                       "heights"])
    def test_acceptance_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("[PASS]") for line in lines)

    def test_seed_reaches_suite(self, capsys, monkeypatch):
        seen = []

        def fake_reduction_invariance(n_points=1000,
                                      seed=verify.DEFAULT_SEED):
            seen.append(seed)
            return [("fake", True, "")]

        monkeypatch.setitem(verify.SUITES, "reduction_invariance",
                            fake_reduction_invariance)
        code, _, _ = run(capsys, "verify", "--suite", "reduction_invariance",
                         "--seed", "7")
        assert code == 0 and seen == [7]
