import hashlib
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhowe import cli
from skewhowe.cli import run
from skewhowe.ensembles import measure_table, unnormalized_weight
from skewhowe.exact import QLaurent
from skewhowe.partitions import Partition, enumerate_in_box


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_mult_prints_value_and_poly(capsys):
    code, out = _capture(capsys, ["mult", "--series", "A", "--n", "1",
                                  "--k", "4", "--lambda", "2"])
    assert code == 0
    assert "multiplicity at q=1: 6" in out
    assert "q-polynomial" in out


def test_mult_json_and_q_at(capsys):
    code, out = _capture(capsys, ["mult", "--series", "BC", "--n", "1", "--k", "1",
                                  "--p", "0", "--lambda", "", "--json",
                                  "--q-at", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 1
    assert payload["q_at"]["q"] == "2"


def test_verify_exit_codes(capsys):
    code, out = _capture(capsys, ["verify", "--series", "A", "--n", "2", "--k", "2"])
    assert code == 0
    assert "all identities hold" in out
    for argv in (["--series", "D", "--n", "2", "--k", "2", "--p", "1"],
                 ["--series", "BC", "--n", "0", "--k", "1", "--p", "1"],
                 ["--series", "D", "--n", "0", "--k", "1"]):
        code, out = _capture(capsys, ["verify"] + argv + ["--oracle"])
        assert code == 0
        assert "crystal oracle: ok" in out


def test_measure_json(capsys):
    code, out = _capture(capsys, ["measure", "--pair", "GL", "--n", "2", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    total = sum(Fraction(int(e["num"]), int(e["den"])) for e in payload["entries"])
    assert total == 1
    assert payload["most_probable"] == "1"
    # byte-identical golden behaviour
    _, again = _capture(capsys, ["measure", "--pair", "GL", "--n", "2", "--k", "2"])
    assert again == out


def test_sample_deterministic_output(capsys):
    argv = ["sample", "--pair", "GL", "--n", "2", "--k", "3",
            "--count", "4", "--seed", "11"]
    code1, out1 = _capture(capsys, argv)
    code2, out2 = _capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(lines) == 4
    for i, entry in enumerate(lines):
        assert entry["stream"] == i
        Partition.parse(entry["partition"])


def test_shape_csv(capsys):
    code, out = _capture(capsys, ["shape", "--c", "3.0", "--series", "GL",
                                  "--grid", "8", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,f,rho"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 1.0) < 1e-9


def test_compare_json(capsys):
    code, out = _capture(capsys, ["compare", "--pair", "GL", "--n", "10",
                                  "--k", "30", "--count", "5", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10 and payload["count"] == 5
    assert 0.0 <= payload["sup_distance"] < 1.0


def test_tiling_json(capsys):
    code, out = _capture(capsys, ["tiling", "--n", "2", "--k", "3",
                                  "--lambda", "2,1", "--index", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["domain"]["boundary"] == "2,1"
    assert payload["tilings"] == 8
    kinds = {t[2] for t in payload["tiles"]}
    assert kinds <= {"R", "G", "B"}


def test_usage_error_exit_2(capsys):
    code = run(["mult", "--series", "A", "--n", "1", "--k", "2",
                "--lambda", "5"])  # out of box
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err
    assert run(["tiling", "--n", "0", "--k", "0"]) == 2  # no GT pattern
    assert capsys.readouterr().err.startswith("error: ")
    for n, k in (("0", "5"), ("5", "0")):
        assert run(["compare", "--pair", "GL", "--n", n, "--k", k,
                    "--count", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: compare needs a nonempty box, not {n}x{k}"]


def test_outfile(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code = run(["measure", "--pair", "SP", "--n", "1", "--k", "1",
                "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["pair"] == "SP"


def measure_payload(pair: str, n: int, k: int) -> dict:
    """The measure JSON as a dict, the form the table gave before the CLI
    streamed it: the entries in sorted-parts order, each int weight w as
    the reduced Fraction(w, 2^N), then the most probable diagram, the
    heaviest brute-force weight over the box, ties to the smallest parts."""
    table = measure_table(pair, n, k)
    entries = []
    for parts, w in sorted(table.entries.items()):
        prob = Fraction(w, 2 ** table.exponent)
        entries.append({"partition": str(Partition(parts)),
                        "num": str(prob.numerator), "den": str(prob.denominator)})
    mode = min(enumerate_in_box(n, k),
               key=lambda lam: (-unnormalized_weight(pair, n, k, lam), lam.parts))
    return {"pair": pair, "n": n, "k": k, "entries": entries,
            "most_probable": str(mode)}


@pytest.mark.parametrize("flag", ["GL", "SO-PIN", "SP", "O-SO"])
@pytest.mark.parametrize("n, k", [(0, 3), (3, 0), (1, 1), (2, 3), (3, 4), (4, 5)])
def test_measure_stream_matches_dict_oracle(flag, n, k):
    code, out, err = _exit(["measure", "--pair", flag, "--n", str(n), "--k", str(k)])
    assert code == 0, err
    assert out == json.dumps(measure_payload(cli._PAIR_NAMES[flag], n, k),
                             indent=2) + "\n"


def test_measure_out_file_matches_dict_oracle(tmp_path):
    path = tmp_path / "table.json"
    code, out, err = _exit(["measure", "--pair", "O-SO", "--n", "3", "--k", "4",
                            "--out", str(path)])
    assert (code, out, err) == (0, "", "")
    assert path.read_text() == json.dumps(measure_payload("O_SO", 3, 4),
                                          indent=2) + "\n"


def test_measure_out_opened_after_the_table(tmp_path):
    path = tmp_path / "F"
    code, out, err = _exit(["measure", "--pair", "SP", "--n", "20", "--k", "20",
                            "--out", str(path)])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: the 20x20 box holds more partitions than the budget of 10000000"]
    assert not path.exists()
    missing = tmp_path / "missing" / "x"
    code, out, err = _exit(["measure", "--pair", "SP", "--n", "2", "--k", "2",
                            "--out", str(missing)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(missing) in err


def test_falsified_identity_exit_1(capsys, monkeypatch):
    from skewhowe import multiplicity
    from skewhowe.exact import ExactDivisionError

    def falsified(*args):
        raise ExactDivisionError("remainder 1 in a Bareiss step")

    # mult takes one Bareiss determinant; verify reads every determinant
    # of the box off one path table
    monkeypatch.setattr(multiplicity, "qlaurent_determinant", falsified)
    monkeypatch.setattr(multiplicity.PathTable, "determinant", falsified)
    for argv, prefix in (
            (["mult", "--series", "A", "--n", "2", "--k", "2"], ""),
            # verify names the stage and the (first enumerated) weight
            (["verify", "--series", "A", "--n", "2", "--k", "2"],
             "det at weight (): ")):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {prefix}remainder 1 in a Bareiss step"]


@pytest.mark.parametrize("argv", [
    "verify --series A --n 2 --k 2 --oracle",
    "verify --series BC --p 1 --n 2 --k 2 --oracle"])
def test_verify_oracle_reads_the_reported_multiplicities(argv, monkeypatch):
    from skewhowe import multiplicity

    def refused(matrix):
        raise AssertionError("a Bareiss determinant")

    monkeypatch.setattr(multiplicity, "qlaurent_determinant", refused)
    code, out, err = _exit(argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("series", ["A", "BC", "D"])
def test_verify_names_stage_and_weight_of_failed_division(series, monkeypatch):
    from skewhowe import exact

    def failing(self):
        raise exact.ExactDivisionError("a stride left a remainder")

    # a failing q-product kernel: the first determinant entry that is not
    # the constant 1 fails, at the first weight
    monkeypatch.setattr(exact.QProduct, "expand", failing)
    monkeypatch.setattr(exact, "_qbinom_cache", {})
    code, out, err = _exit(["verify", "--series", series, "--n", "2",
                            "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (): a stride left a remainder"]


@pytest.mark.parametrize("name, stage", [("mult_prod_BC_q", "prod"),
                                         ("qdim", "dual")])
def test_verify_names_prod_and_dual_stages(name, stage, monkeypatch):
    from skewhowe import multiplicity
    from skewhowe.exact import ExactDivisionError

    calls = []

    def failing_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ExactDivisionError("remainder 1")
        return real(*args)

    # BC p=0 calls each once per weight; the weights run (), (2), (1)
    real = getattr(multiplicity, name)
    monkeypatch.setattr(multiplicity, name, failing_second_call)
    code, out, err = _exit(["verify", "--series", "BC", "--n", "1", "--k", "2"])
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {stage} at weight (2): remainder 1"]


def test_verify_prints_each_violation(monkeypatch):
    from dataclasses import replace
    from skewhowe import multiplicity

    # a C_2 q-dimension on the dual side of A: a polynomial, but the wrong one
    row = multiplicity.VERIFY_ROWS["A", 0]
    monkeypatch.setitem(multiplicity.VERIFY_ROWS, ("A", 0),
                        replace(row, g2=multiplicity.Side(multiplicity.TYPE_C)))
    code, out, err = _exit(["verify", "--series", "A", "--n", "2", "--k", "2"])
    assert code == 1 and err == ""
    assert out == "\n".join([
        "checked 6 weights in the 2x2 box",
        "dimension total 16 (expected 16)",
        "VIOLATION  [det=qdim]: q^2 != q^2 + q^3 + 2*q^4 + 2*q^5 + 2*q^6"
        " + 2*q^7 + 2*q^8 + q^9 + q^10",
        "VIOLATION 2 [det=qdim]: 1 != 1 + q + q^2 + q^3 + q^4",
        "VIOLATION 2,1 [det=qdim]: 1 + q != 1 + q + q^2 + q^3",
        "VIOLATION 1 [det=qdim]: q + q^2 != q + 2*q^2 + 2*q^3 + 3*q^4"
        " + 3*q^5 + 2*q^6 + 2*q^7 + q^8",
        "VIOLATION 1,1 [det=qdim]: q + q^2 + q^3 != q + q^2 + 2*q^3 + 2*q^4"
        " + 2*q^5 + q^6 + q^7",
        "identity violations found", ""])


def _exit(argv):
    """(exit code, stdout, stderr) of one in-process run, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- boundary: each of these exited 1 with a traceback, or 0 with junk ------------


def test_measure_unknown_pair_exit_2():
    code, out, err = _exit(["measure", "--pair", "XX", "--n", "2", "--k", "2"])
    assert code == 2 and out == ""
    assert "invalid choice: 'XX'" in err and "Traceback" not in err


def test_verify_oracle_budget_exit_2():
    code, out, err = _exit(["verify", "--series", "A", "--n", "4", "--k", "6",
                            "--oracle"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: 16^6 words exceeds the budget of 10000000"]


def test_verify_thin_boxes_exit_0():
    # 41 and 1 weights: the chart's memo grows with the weights, not with
    # the 2^41 and 2^25 column subsets of the table
    for argv, weights in ((["--series", "A", "--n", "40", "--k", "1"], 41),
                          (["--series", "BC", "--n", "25", "--k", "0"], 1)):
        start = time.perf_counter()
        code, out, err = _exit(["verify", *argv])
        assert time.perf_counter() - start < 2
        assert code == 0 and err == ""
        assert out.startswith(f"checked {weights} weights")
        assert out.endswith("all identities hold\n")


@pytest.mark.parametrize("series", ["A", "BC", "D"])
def test_verify_non_unit_pivot_exit_1(series, monkeypatch):
    from skewhowe import multiplicity

    # doubling every path count to the full box's last end leaves one
    # diagonal entry of the pivot block 2, not 1
    _, pivots = multiplicity.lgv_endpoints(series, Partition((3, 3)), 2, 3, 0)
    real = multiplicity._path_count

    def doubled(series, start, end):
        count = real(series, start, end)
        return count + count if end == pivots[-1] else count

    monkeypatch.setattr(multiplicity, "_path_count", doubled)
    code, out, err = _exit(["verify", "--series", series, "--n", "2",
                            "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (): the full box's pivot block has 2 at (1, 1), "
        "not 1"]


def test_verify_non_triangular_pivot_exit_1(monkeypatch):
    from skewhowe import multiplicity

    # A's pivot block is lower triangular; a path count above its
    # diagonal makes it neither lower nor upper
    starts, pivots = multiplicity.lgv_endpoints("A", Partition((3, 3)), 2, 3, 0)
    real = multiplicity._path_count

    def filled(series, start, end):
        if (start, end) == (starts[0], pivots[1]):
            return QLaurent.one()
        return real(series, start, end)

    monkeypatch.setattr(multiplicity, "_path_count", filled)
    code, out, err = _exit(["verify", "--series", "A", "--n", "2", "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (): the full box's pivot block is not triangular"]


def test_verify_over_box_budget_exit_2(monkeypatch):
    from skewhowe import multiplicity

    def never(*args):
        raise AssertionError("checked a weight before the budget was checked")

    monkeypatch.setattr(multiplicity, "_check_one", never)
    code, out, err = _exit(["verify", "--series", "A", "--n", "20", "--k", "20"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: the 20x20 box holds more partitions than the budget of 10000000"]


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_shape_non_finite_c_exit_2(c):
    code, out, err = _exit(["shape", "--c", c, "--grid", "4"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: c must be positive and finite"]


@pytest.mark.parametrize("c", ["nan", "inf", "0", "-1"])
def test_compare_bad_c_exit_2(c, monkeypatch):
    def never(*args):
        raise AssertionError("sampled before c was checked")

    monkeypatch.setattr(cli, "draw_samples", never)
    code, out, err = _exit(["compare", "--pair", "GL", "--n", "2", "--k", "2",
                            "--count", "3", "--c", c])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: c must be positive and finite"]


_LAST_TILING = ["tiling", "--n", "10", "--k", "12", "--lambda", "10,10,10,10,10"]


def test_tiling_last_index_by_rank():
    code, out, err = _exit(_LAST_TILING + ["--index", "24648355308799871"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["tilings"] == 24648355308799872
    rows = payload["gt_pattern"]
    assert rows[-1] == [10] * 5 + [0] * 7
    for lower, upper in zip(rows, rows[1:]):
        assert lower == upper[1:]  # the last pattern: every row minimal


def test_tiling_index_builds_one_engine(monkeypatch):
    from skewhowe import patterns
    built = []

    class Counted(patterns._Interlacing):
        def __init__(self, plan):
            built.append(plan)
            super().__init__(plan)

    monkeypatch.setattr(patterns, "_Interlacing", Counted)
    code, out, err = _exit(_LAST_TILING + ["--index", "7"])
    assert code == 0, err
    assert json.loads(out)["tilings"] == 24648355308799872
    assert len(built) == 1


def test_tiling_index_past_count_exit_2():
    code, out, err = _exit(_LAST_TILING + ["--index", "24648355308799872"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: index 24648355308799872 out of range (count 24648355308799872)"]


def test_tiling_count_over_pattern_budget_exit_2():
    code, out, err = _exit(["tiling", "--count-only", "--n", "16", "--k", "16",
                            "--lambda", ",".join(["16"] * 8)])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: the patterns take more rows than the budget of 1000000"]


@pytest.mark.parametrize("option", ["--n", "--k", "--count"])
def test_sample_negative_sizes_exit_2(option):
    argv = {"--n": "2", "--k": "3", "--count": "2"}
    argv[option] = "-3"
    code, out, err = _exit(["sample"] + [t for kv in argv.items() for t in kv])
    assert code == 2 and out == ""
    assert f"argument {option}: -3 is below 0" in err


def test_compare_count_0_exit_2(monkeypatch):
    def never(*args):
        raise AssertionError("sampled with no count")

    monkeypatch.setattr(cli, "draw_samples", never)
    code, out, err = _exit(["compare", "--pair", "GL", "--n", "2", "--k", "3",
                            "--count", "0"])
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith("usage: skewhowe compare ")
    assert err.splitlines()[-1].endswith("argument --count: 0 is below 1")


@pytest.mark.parametrize("command", ["sample", "compare"])
def test_gl_sample_over_bit_budget_exit_2(command, monkeypatch):
    from skewhowe import ensembles

    def never(*args):
        raise AssertionError("drew words before the budget was checked")

    monkeypatch.setattr(ensembles, "_mix64", never)
    code, out, err = _exit([command, "--pair", "GL", "--n", "100000",
                            "--k", "100000", "--count", "1"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: a 100000x100000 GL sample needs 10000000000 bits, over the "
        "budget of 1000000"]


def test_verify_threads_unrecognized_exit_2():
    code, out, err = _exit(["verify", "--series", "A", "--n", "2", "--k", "2",
                            "--threads", "2"])
    assert code == 2 and out == ""
    assert "error: unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--pair", "GL", "--n", "2", "--k", "2"],
    ["verify", "--series", "A", "--n", "2", "--k", "2"]])
def test_unwritable_out_exit_2(tmp_path, argv):
    path = tmp_path / "missing" / "x"
    code, out, err = _exit(argv + ["--out", str(path)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err and "Traceback" not in err


def test_compare_rejects_pair_before_sampling(monkeypatch):
    def never(*args):
        raise AssertionError("sampled before the pair was checked")

    monkeypatch.setattr(cli, "draw_samples", never)
    code, out, err = _exit(["compare", "--pair", "SP", "--n", "2", "--k", "2",
                            "--count", "3"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: compare currently supports the GL pair"]


@pytest.mark.parametrize("q", ["1/0", "abc", "nan", ""])
def test_mult_bad_q_at_exit_2_before_the_determinant(q, monkeypatch):
    def never(*args):
        raise AssertionError("computed before --q-at was checked")

    monkeypatch.setattr(cli, "DualitySpec", never)
    code, out, err = _exit(["mult", "--series", "BC", "--n", "8", "--k", "8",
                            "--lambda", "3,2,1", "--q-at", q])
    assert code == 2 and out == ""
    assert err.startswith("usage: ")
    assert f"error: argument --q-at: {q!r} is not a rational" in err


# -- golden stdout, each recorded at the commit before the code it guards was
# replaced: the dual-pair table, (the 30x70 GL sample) the bitmask dual RSK,
# and (the 4x4 BC and D verify runs) the q-product kernel.
# The compare and shape pins print limit_f; they were re-pinned when the closed
# form replaced the quadrature (their floats moved by about 1e-11, checked
# token by token against the quadrature's stdout further below).  The shape
# pin was re-pinned again when rho was summed from sqrt(c) -+ x: three of its
# rho values moved in the last digit, checked the same way --

GOLDEN = {
    "measure --pair GL --n 2 --k 3":
        "f3130e4aa07b18f40b4b294765a9443b45bd48d0112dec57fe89b3d0f7670d98",
    "measure --pair SO-PIN --n 2 --k 3":
        "4377fa42b0d8dd49c485b10368dd9c7924b301e9a7f4e6f8c84efaba64a94741",
    "measure --pair SP --n 2 --k 3":
        "572d87e729669c7c7ae6d78e8c8e61dc818d8898af5c5f83f67528cb839bc487",
    "measure --pair O-SO --n 2 --k 3":
        "14dc55ed87e566bcb42c55a94309d67f32582364c647cf0473ef327f14ab2969",
    # recorded before the tables were walked one box at a time from the
    # empty diagram; the GL pin is the measure-gl benchmark digest
    "measure --pair GL --n 6 --k 12":
        "eb831cffea6d41202d4334b7447c235cc676a2a77df6533d8c22f66e3a9fb3cb",
    "measure --pair O-SO --n 4 --k 5":
        "bdded1daced0ebe3ca2750efbfa106607c8f0f2857a8943b1be6304c890c2686",
    "measure --pair SO-PIN --n 4 --k 5":
        "3a1950080106672acd645e4e6536ae6e19118a6f2851f3be411c677e6b3b2d8d",
    "sample --pair SP --n 5 --k 6 --count 50 --seed 11":
        "0502606e24012ffe4db3bde45fb5d411e6a80423598d7c37aebcae9baab3360f",
    "verify --series A --n 2 --k 2 --oracle":
        "368ef64bbc246ec64c3df4daa55211fdb90524f268bbc7f10ded9a9bd85a4687",
    "verify --series BC --p 0 --n 2 --k 2 --oracle":
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
    "verify --series BC --p 1 --n 2 --k 2 --oracle":
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
    "verify --series D --p 0 --n 2 --k 2 --oracle":
        "7c75421fa168d6dca69acf025a6f534892504c07b201c8fd60d3afc79385b045",
    "verify --series D --p 1 --n 2 --k 2 --oracle":
        "2f9aeb0b5d6ba399eee360727f1a9b90cd7a0e782d46ab4f043ac8ae9b766452",
    "verify --series BC --n 4 --k 4":
        "45451f1d6d0206959db7956493a46240021746e28b5a52debe95bdaa474d9bd0",
    "verify --series D --n 4 --k 4 --p 0":
        "45451f1d6d0206959db7956493a46240021746e28b5a52debe95bdaa474d9bd0",
    "verify --series D --n 4 --k 4 --p 1":
        "008eb1cdbba5f3263b1c67f70a7fbb5fd2523812c1349eb6d3650f44d523b926",
    "sample --pair SO-PIN --n 2 --k 3 --count 20 --seed 7":
        "14b9a0e349d3dec510706587b70b4cea2620912265b6b39ee036dc3215d8b216",
    "sample --pair SP --n 2 --k 3 --count 20 --seed 7":
        "5b81c56b079ad23ced100784e97d9adf20668f7be0f9dddf44bb72ebf54216c8",
    "sample --pair O-SO --n 2 --k 3 --count 20 --seed 7":
        "fba94a9b290ab14066a4b879a958a3b034c3b9847a31bab57ba643c557ac0757",
    "sample --pair GL --n 30 --k 70 --count 10 --seed 5":
        "0bb416fbd99dc011df9a38ba1a6d61cc2591da87a9f826bc16b9dcb52f89b925",
    "compare --pair GL --n 4 --k 8 --count 5 --seed 3":
        "32de91647dfbcde9ba76ba582e109f517df9ce22b2b208dd0ef263d21e8708bf",
    # the mean boundary is an fsum: the builtin sum printed
    # 0.04217955006508567 here on Python 3.11, and the compensated
    # sum of Python 3.12 rounds it as fsum does, to ...085225
    "compare --pair GL --n 5 --k 10 --count 50 --seed 3":
        "9662aedba5a9dc73bbef7fcba2012c0fa91e108e345a013dbb0c0e7fcd37e9d2",
    "shape --series HALF --c 3 --grid 8":
        "539505889bf2bf87b6d552566f3ded3e4180ccdf9641497ee806f66ea02999e0",
    # recorded before the A, BC and D determinants were read off one table of
    # lattice-path endpoints
    "mult --series A --n 3 --k 4 --lambda 2,1 --json":
        "a0ac497dd4ed93e11dae588790151b37d81a7dbb563cc6cae4273f7086e6be93",
    "mult --series BC --p 1 --n 3 --k 3 --lambda 2,1 --json":
        "e8590f3a96326708b899c1d14bee650383a9567d8ddfb9db346c11c510b4d06e",
    "mult --series D --n 3 --k 3 --lambda 2,1,-1 --json":
        "c706b78a0b54b9dcf0d6c6bb8353135e6963b443c12a4450d636aeaf82e2a180",
    "mult --series D --p 1 --n 2 --k 3 --lambda 1 --json":
        "1ad6ae61144d312a13a56bd9666fc3b7290a2d624995bbb33dcd23750c7236e5",
    # recorded before GL samples were drawn a batch of lanes at a time; these
    # cross the batch boundary, and the compare pin is the compare-gl argv
    "sample --pair GL --n 7 --k 9 --count 150 --seed 5":
        "da2107c7bf121a939996497fdb3498ff15e3922d6d23c8afa5dcca420ba27028",
    "sample --pair GL --n 1 --k 200 --count 130 --seed 2":
        "72cb51e0f4654fa239bf3b5e17825870709fa5a0ac593194ddca29d8fb21aff5",
    "compare --pair GL --n 50 --k 150 --count 200 --seed 3":
        "76375d7ce20ea492530a2cdb16b406c808aabb5901aede512b4f3683d4a3192f",
    # the hill climb printed the local max 8,6,4,2
    "measure --pair GL --n 4 --k 11":
        "6259831f5028afafbd8487db47f8251192bc1befe6e3761619bb5c6a5f5d58b3",
    # a rank-0 D weight is the empty partition: the stdout that
    # `mult --series A --n 0 --k 1` and `--series BC` printed before D did too
    "mult --series D --n 0 --k 1":
        "7510814a1a56b7d8d0217373ef2daecb3d25b1b911f1949c3aa0086d5830b6be",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_stdout(argv):
    code, out, err = _exit(argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]



# -- tiling: a sweep of small boxes, pinned before `tiling` took its pattern
# by rank instead of by enumeration; exit code and stderr are pinned too --


def _tiling_sweep():
    for n in range(4):
        for k in range(4):
            for lam in enumerate_in_box(k, n):
                base = ["tiling", "--n", str(n), "--k", str(k),
                        "--lambda", str(lam)]
                for index in (*range(12), -1, 10**6):
                    yield base + ["--index", str(index)]
                yield base + ["--count-only"]


def test_tiling_sweep_golden():
    digest = hashlib.sha256()
    runs = 0
    for argv in _tiling_sweep():
        code, out, err = _exit(argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())
        runs += 1
    assert runs == 1035
    assert digest.hexdigest() == (
        "21bb141a0be6399dac9d61de89b12f55d7af051d6732a914fc3ba5845abf3ec2")

# -- the two pins that print limit_f: stdout recorded at the commit before the
# closed-form antiderivative replaced the quadrature; the floats may move by
# float noise only, every other byte stays --

QUADRATURE_STDOUT = {
    "compare --pair GL --n 4 --k 8 --count 5 --seed 3": (
        '{\n  "sup_distance": 0.13654194860266933,\n  "n": 4,\n  "k": 8,\n'
        '  "count": 5,\n  "seed": 3,\n  "c": 2.0\n}\n'),
    "shape --series HALF --c 3 --grid 8": (
        "x,f,rho\n"
        "0.0,1.0,0.33333333333333337\n"
        "0.25,1.0835745145683169,0.3318786094010839\n"
        "0.5,1.1686434451219554,0.3272726091240387\n"
        "0.75,1.2569629791190946,0.31866625328586273\n"
        "1.0,1.3509593121831025,0.3040867239846963\n"
        "1.25,1.4546307986101894,0.2787219191497988\n"
        "1.5,1.5763679858666064,0.227185525828505\n"
        "1.75,1.7500000000001001,0.0\n"
        "2.0,2.0000000000001004,0.0\n"),
}

_FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?)")


@pytest.mark.parametrize("argv", sorted(QUADRATURE_STDOUT))
def test_limit_shape_pins_move_by_float_noise_only(argv):
    code, out, err = _exit(argv.split())
    assert code == 0, err
    new = _FLOAT.split(out)
    old = _FLOAT.split(QUADRATURE_STDOUT[argv])
    assert len(new) == len(old)
    assert new[0::2] == old[0::2]  # every non-float token, byte for byte
    for a, b in zip(new[1::2], old[1::2]):
        assert abs(float(a) - float(b)) <= 1e-9


# -- argv fuzz: exit codes stay in {0, 1, 2} and nothing prints a traceback ------

_BAD = st.sampled_from(["nan", "XX", "1,x", "1/0", "abc"])
_SMALL = st.integers(-3, 6).map(str)
_VALUES = {
    "--series": st.sampled_from(["A", "BC", "D", "GL"]),
    "--pair": st.sampled_from(["GL", "SO-PIN", "SP", "O-SO"]),
    "--p": st.integers(-1, 2).map(str),
    # boxes stay small so that every drawn run is quick
    "--n": st.integers(-3, 2).map(str),
    "--k": st.integers(-3, 2).map(str),
    "--lambda": st.sampled_from(["", "1", "2,1", "-1", "5"]),
}
_SHAPE_VALUES = {
    "--series": st.sampled_from(["GL", "HALF", "A"]),
    "--format": st.sampled_from(["json", "csv"]),
}
_OPTIONS = {
    "mult": ["--series", "--n", "--k", "--p", "--lambda", "--q-at", "--json"],
    "verify": ["--series", "--n", "--k", "--p", "--oracle"],
    "measure": ["--pair", "--n", "--k"],
    "sample": ["--pair", "--n", "--k", "--count", "--seed"],
    "shape": ["--c", "--series", "--grid", "--format"],
    "compare": ["--pair", "--n", "--k", "--count", "--seed", "--c"],
    "tiling": ["--n", "--k", "--lambda", "--index", "--count-only"],
}
_FLAGS = {"--json", "--oracle", "--count-only"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    values = _SHAPE_VALUES if command == "shape" else _VALUES
    argv = [command]
    for option in _OPTIONS[command]:
        if not draw(st.integers(0, 7)):
            continue  # sometimes leave a (maybe required) option out
        argv.append(option)
        if option not in _FLAGS:
            bad = not draw(st.integers(0, 7))
            argv.append(draw(_BAD if bad else values.get(option, _SMALL)))
    return argv


@given(_argvs())
@settings(max_examples=120, deadline=None)
def test_argv_fuzz_exit_codes(argv):
    code, _, err = _exit(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
