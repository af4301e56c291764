import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import golden
from boxes import enumerate_in_box, lgv_determinant, parse_partition
from skewhowe import cli, ensembles
from skewhowe.cli import run
from skewhowe.ensembles import measure_table, unnormalized_weight
from skewhowe.exact import QLaurent
from skewhowe.multiplicity import VERIFY_ROWS
from skewhowe.partitions import Partition


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


def test_d_weight_sign_is_read_by_the_cli(capsys):
    # a D weight may be signed in its n-th entry; the label echoes the signed
    # entries padded to n, and the multiplicity is that of |lambda|
    reports = {}
    for text in ("2,1,-1", "2,1,1", ""):
        code, out = _capture(capsys, ["mult", "--series", "D", "--n", "3",
                                      "--k", "3", f"--lambda={text}", "--json"])
        assert code == 0
        reports[text] = json.loads(out)
    assert reports["2,1,-1"]["lambda"] == "2,1,-1"
    assert reports["2,1,-1"]["q_poly"] == reports["2,1,1"]["q_poly"]
    assert reports[""]["lambda"] == "0,0,0"
    for bad in ("1,2", "1,-2", "-1,0", "2,-1,1", "1,1,1,1"):
        argv = ["mult", "--series", "D", "--n", "2", "--k", "3", f"--lambda={bad}"]
        assert _capture(capsys, argv) == (2, "")


def test_d_weight_names_its_rank_past_entry_n():
    # entries past the n-th must be 0 (golden.ROWS pins 1,-1,0 and 1,1,0,0,
    # whose zeros are dropped); a nonzero one is one error line
    for text in ("1,1,1,1", "1,1,0,-1"):
        assert _exit(["mult", "--series", "D", "--n", "3", "--k", "2",
                      f"--lambda={text}"]) == (
            2, "", f"error: --lambda {text}: a D weight of rank 3 has no "
            "nonzero entry past entry 3\n")


def test_mult_refusal_names_the_lambda_typed():
    # a weight that is not dominant or does not fit the box is named as
    # typed: not with its zeros dropped, nor as the partition |lambda|; so
    # is an entry that is not an optional - and ASCII digits, under mult
    # and tiling alike, and a tiling boundary that does not fit its domain
    lists = "is not a comma-separated list of integers"
    for argv, message in (
            ("mult --series A --n 1 --k 2 --lambda 3,0",
             "3,0 does not fit in a 1x2 box"),
            ("mult --series A --n 2 --k 2 --lambda 1,2",
             "1,2 is not a dominant weight"),
            ("mult --series BC --n 2 --k 2 --p 1 --lambda 3",
             "3 does not fit in a 2x2 box"),
            ("mult --series BC --n 2 --k 2 --lambda=-1",
             "-1 is not a dominant weight"),
            ("mult --series D --n 2 --k 1 --lambda 2,-2",
             "2,-2 does not fit in a 2x1 box"),
            ("mult --series D --n 3 --k 3 --lambda 1,2,-1",
             "1,2,-1 is not a dominant weight"),
            ("mult --series D --n 0 --k 1 --lambda 1",
             "1 does not fit in a 0x1 box"),
            ("mult --series A --n 3 --k 3 --lambda x", f"x {lists}"),
            ("tiling --n 3 --k 3 --lambda 1.5", f"1.5 {lists}"),
            ("tiling --n 3 --k 3 --lambda ,", f", {lists}"),
            ("tiling --n 3 --k 3 --lambda 1,2", "1,2 is not a partition"),
            ("mult --series A --n 1 --k 20 --lambda 1_0", f"1_0 {lists}"),
            ("tiling --n 2 --k 3 --lambda +2,1", f"+2,1 {lists}"),
            ("mult --series A --n 2 --k 3 --lambda \u0662,\u0661",
             f"\u0662,\u0661 {lists}"),
            ("tiling --n 2 --k 3 --lambda 5 --count-only",
             "5 does not fit in a 3x2 box: at most k = 3 parts, none above "
             "n = 2"),
            ("tiling --n 2 --k 3 --lambda 1,1,1,1",
             "1,1,1,1 does not fit in a 3x2 box: at most k = 3 parts, none "
             "above n = 2")):
        assert _exit(argv.split()) == (
            2, "", f"error: --lambda {message}\n"), argv


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
        parse_partition(entry["partition"])


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

    # mult checks its product against one Bareiss determinant at q = 1;
    # verify reads every determinant of the box off one path table.  Both
    # name the stage and the (first enumerated) weight
    monkeypatch.setattr(multiplicity, "qlaurent_determinant", falsified)
    monkeypatch.setattr(multiplicity.PathTable, "packed", falsified)
    for command in ("mult", "verify"):
        code = run([command, "--series", "A", "--n", "2", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: det at weight (): remainder 1 in a Bareiss step"]


def test_mult_exit_1_when_a_bareiss_division_leaves_a_remainder(monkeypatch):
    from skewhowe.exact import QLaurent

    real = QLaurent.divide_exact

    def off_by_one(self, other):
        # the numerator moved by 1: a division of the q = 1 determinant
        # by a pivot other than 1 leaves the remainder 1, named by the
        # stage and the weight
        return real(self + 1, other)

    monkeypatch.setattr(QLaurent, "divide_exact", off_by_one)
    code, out, err = _exit(["mult", "--series", "BC", "--n", "4", "--k", "4",
                            "--lambda", "2,1"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (2,1): 13595 is not divisible by 14"]


def test_mult_exit_1_when_the_product_is_falsified(monkeypatch):
    from skewhowe import multiplicity

    real = multiplicity.mult_prod_BC_q

    def doubled(*args):
        product = real(*args)
        product.const *= 2
        return product

    monkeypatch.setattr(multiplicity, "mult_prod_BC_q", doubled)
    code, out, err = _exit(["mult", "--series", "BC", "--n", "3", "--k", "3",
                            "--lambda", "2,1"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: det at weight (2,1): the product is 210 at q = 1, the LGV "
        "determinant 105"]


def test_mult_exit_1_when_a_path_count_is_falsified(monkeypatch):
    from skewhowe import multiplicity

    real = multiplicity._path_count_at_one
    calls = []

    def off_by_one(*args):
        # the first path count, the (0, 0) entry, moved by 1 at q = 1
        calls.append(args)
        return real(*args) + (len(calls) == 1)

    monkeypatch.setattr(multiplicity, "_path_count_at_one", off_by_one)
    code, out, err = _exit(["mult", "--series", "D", "--n", "3", "--k", "3",
                            "--lambda", "2,1,-1"])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: det at weight (2,1,-1): the product is 300 at q = 1, the LGV "
        "determinant 460"]


@st.composite
def _mult_weights(draw):
    """A (series, p), a box of at most 6 x 6 and a partition in it, with
    the --lambda text that names it: a D weight of rank n > 0 is drawn
    with either sign in its n-th entry."""
    series, p = draw(st.sampled_from(sorted(VERIFY_ROWS)))
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    parts = sorted(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)),
                   reverse=True)
    signed = parts[:]
    if series == "D" and n and draw(st.booleans()):
        signed[-1] = -signed[-1]
    return series, p, n, k, Partition(tuple(parts)), ",".join(map(str, signed))


@given(_mult_weights())
@settings(max_examples=200, deadline=None)
def test_mult_q_poly_is_the_lgv_determinant(case):
    # mult prints the product formula's expansion, checked at q = 1 only:
    # in Z[q] it must be the Bareiss determinant of the path counts
    series, p, n, k, lam, text = case
    code, out, err = _exit(["mult", "--series", series, "--p", str(p),
                            "--n", str(n), "--k", str(k), f"--lambda={text}",
                            "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["lambda"] == (text if series == "D" and n else str(lam))
    assert payload["q_poly"] == lgv_determinant(series, lam, n, k, p).to_json()


def test_mult_budget_refuses_before_the_matrix(monkeypatch):
    from skewhowe import multiplicity

    def refused(*args):
        raise AssertionError("a path count or a product")

    # the estimate is closed form: no path count and no QProduct is built,
    # and a rank of 20,000 is refused as fast as 40
    monkeypatch.setattr(multiplicity, "_path_count", refused)
    monkeypatch.setattr(multiplicity, "_path_count_at_one", refused)
    monkeypatch.setattr(multiplicity, "_mult_prod", refused)
    for series, n, k, lam, cost in (
            ("BC", 40, 40, "1", 1658800992),
            ("A", 20000, 1, "", 213362053334066692000)):
        start = time.perf_counter()
        code, out, err = _exit(["mult", "--series", series, "--n", str(n),
                                "--k", str(k), "--lambda", lam])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: the {n}x{k} box's cost estimate {cost} exceeds the "
            f"budget of {cli.MULT_COST_BUDGET}"]
    # the largest box the budget's comment names as admitted
    assert multiplicity.mult_cost("BC", 30, 30, 0) <= cli.MULT_COST_BUDGET


@pytest.mark.parametrize("argv", [
    "verify --series A --n 2 --k 2 --oracle",
    "verify --series BC --p 1 --n 2 --k 2 --oracle"])
def test_verify_oracle_reads_the_reported_multiplicities(argv, monkeypatch):
    from skewhowe import multiplicity

    def refused(matrix):
        raise AssertionError("a Bareiss determinant")

    monkeypatch.setattr(multiplicity, "qlaurent_determinant", refused)
    row, = (row for row in golden.ROWS if row.argv == argv)
    assert golden.mismatch(row, *golden.run_row(argv)) is None


@pytest.mark.parametrize("series", ["A", "BC", "D"])
def test_verify_names_stage_and_weight_of_failed_division(series, monkeypatch):
    from skewhowe import exact

    def failing(self):
        raise exact.ExactDivisionError("a stride left a remainder")

    # a failing q-product kernel: the first determinant entry that is not
    # the constant 1 fails, at the first weight
    monkeypatch.setattr(exact.QProduct, "expand", failing)
    code, out, err = _exit(["verify", "--series", series, "--n", "2",
                            "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (): a stride left a remainder"]


def _fail_call(monkeypatch, owner, name: str, failing: int) -> None:
    """Make owner.name raise ExactDivisionError at its failing-th call."""
    from skewhowe.exact import ExactDivisionError

    calls = []
    real = getattr(owner, name)

    def failing_call(*args):
        calls.append(args)
        if len(calls) == failing:
            raise ExactDivisionError("remainder 1")
        return real(*args)

    monkeypatch.setattr(owner, name, failing_call)


@pytest.mark.parametrize("name, stage", [("mult_prod_BC_q", "prod"),
                                         ("qdim", "dual")])
def test_verify_names_prod_and_dual_stages(name, stage, monkeypatch):
    from skewhowe import multiplicity

    # name builds the side at the empty diagram, before any move; every
    # other weight copies the sides of the weight a box smaller and moves
    # each by one _times call, the product's first, then the dual side's.
    # Each move of the skewed side also divides it by [7]_q, so at the
    # next weight it is no polynomial: the weights run (), (2), (1)
    order = ("prod", "dual").index(stage)
    events = []
    real_formula, real_times = getattr(multiplicity, name), multiplicity._times

    def built(*args):
        events.append("built")
        return real_formula(*args)

    def skewed(product, ups, downs, *const):
        events.append("moved")
        skew = (events.count("moved") - 1) % 2 == order
        real_times(product, ups, [*downs, 7] if skew else downs, *const)

    monkeypatch.setattr(multiplicity, name, built)
    monkeypatch.setattr(multiplicity, "_times", skewed)
    code, out, err = _exit(["verify", "--series", "BC", "--n", "1", "--k", "2"])
    assert code == 1 and out == ""
    assert "built" in events and "built" not in events[events.index("moved"):]
    assert err.splitlines() == [
        f"error: {stage} at weight (2): not a polynomial: the division by "
        "1 - q^7 leaves a remainder"]


def test_verify_names_a_failed_division_in_the_dimension_total(monkeypatch):
    from skewhowe import multiplicity

    # the G1 dimension is one weyl_dimension at the empty diagram, then one
    # _side_ratio a box: (1), the first weight grown, takes the first call
    for name, weight in (("_side_ratio", "1"), ("weyl_dimension", "")):
        with monkeypatch.context() as patch:
            _fail_call(patch, multiplicity, name, 1)
            code, out, err = _exit(["verify", "--series", "BC", "--n", "1",
                                    "--k", "2"])
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: dim at weight ({weight}): remainder 1"]


def test_verify_exit_1_when_a_walked_factor_is_dropped(monkeypatch):
    from skewhowe import multiplicity

    # a mutation of the walk: the dual side's class q-integers, its
    # boundary columns L(after) / L(before), are dropped.  At D p=0, G1
    # and G2 are the same Side, so only the G2 steps, the ones with a
    # negative step, lose them; the product steps read the plain Weyl
    # side, and the G1 dimension steps by _side_ratio, whose total still
    # holds
    real = multiplicity._q_side_ratio

    def classless(side, coords, i, step):
        if step < 0:  # the plain Weyl side has the pairings alone
            side = multiplicity.Side(side.lie, side.spin)
        return real(side, coords, i, step)

    monkeypatch.setattr(multiplicity, "_q_side_ratio", classless)
    code, out, err = _exit(["verify", "--series", "D", "--n", "2", "--k", "2",
                            "--p", "0"])
    assert code == 1 and err == ""
    violations = [line for line in out.splitlines()
                  if line.startswith("VIOLATION ")]
    assert [line.split(" [")[0] for line in violations] == [
        "VIOLATION 2", "VIOLATION 2,2", "VIOLATION 2,1", "VIOLATION 1",
        "VIOLATION 1,1"]
    assert all("[det=qdim]" in line for line in violations)
    assert "dimension total 256 (expected 256)\n" in out
    assert out.endswith("identity violations found\n")


def test_measure_exit_1_when_the_walked_weights_are_falsified(monkeypatch):
    from skewhowe import ensembles

    # a one-box ratio 3/2 too large on each side leaves a remainder at the
    # second weight grown; a dimension off by one leaves every weight
    # exact, but four times too large, so only the sum check sees it
    real_ratio, real_dimension = ensembles._side_ratio, ensembles.weyl_dimension

    def skewed_ratio(*args):
        num, den = real_ratio(*args)
        return 3 * num, 2 * den

    for name, wrong, line in (
            ("_side_ratio", skewed_ratio,
             "measure at weight (2): the ratio 108/64 leaves a remainder"),
            ("weyl_dimension", lambda *args: real_dimension(*args) + 1,
             "measure for GL (2,2) sums to 4, not 1 in weights over 16")):
        with monkeypatch.context() as patch:
            patch.setattr(ensembles, name, wrong)
            code, out, err = _exit(["measure", "--pair", "GL", "--n", "2",
                                    "--k", "2"])
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {line}"]


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


def test_verify_oracle_budget_exit_2(monkeypatch):
    from skewhowe import crystals

    # the one step of A_20 builds 21 weakly decreasing prefixes at its
    # last coordinate: with the budget at 10 the list is refused at 11
    monkeypatch.setattr(crystals, "DEFAULT_BUDGET", 10)
    start = time.perf_counter()
    code, out, err = _exit(["verify", "--series", "A", "--n", "20", "--k", "1",
                            "--oracle"])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: 11 letters built in one step exceed the budget of 10"]


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


@pytest.mark.parametrize("series", ["A", "BC", "D"])
def test_verify_non_triangular_pivot_exit_1(series, monkeypatch):
    from skewhowe import multiplicity

    # every series' pivot block is lower triangular; a path count above
    # its diagonal makes it not triangular
    starts, pivots = multiplicity.lgv_endpoints(series, Partition((3, 3)),
                                                2, 3, 0)
    real = multiplicity._path_count

    def filled(series, start, end):
        if (start, end) == (starts[0], pivots[1]):
            return QLaurent.one()
        return real(series, start, end)

    monkeypatch.setattr(multiplicity, "_path_count", filled)
    code, out, err = _exit(["verify", "--series", series, "--n", "2",
                            "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: det at weight (): the full box's pivot block is not triangular"]


def test_verify_over_box_budget_exit_2(monkeypatch):
    from skewhowe import multiplicity

    def never(*args):
        raise AssertionError("walked the box before the budget was checked")

    monkeypatch.setattr(multiplicity, "_walk", never)
    monkeypatch.setattr(multiplicity, "PathTable", never)
    code, out, err = _exit(["verify", "--series", "A", "--n", "20", "--k", "20"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: the 20x20 box holds more partitions than the budget of 10000000"]


def test_verify_cost_budget_exit_2(monkeypatch):
    from skewhowe import multiplicity

    def never(*args):
        raise AssertionError("walked the box before the budget was checked")

    monkeypatch.setattr(multiplicity, "_walk", never)
    monkeypatch.setattr(multiplicity, "PathTable", never)
    # A 12x12 has 2,704,156 weights; BC 100x1 has 101, but filling its path
    # table ran past 60 s when the estimate counted per-weight work only.
    # The partition budget lets any n through at k = 0, and n near 10^7 at
    # k = 1: the estimate is a closed form, so these are refused at once too
    for series, n, k, p, cost in (
            ("A", 12, 12, 0, 224293750534), ("BC", 100, 1, 0, 2940073640),
            ("BC", 10**9, 0, 1, 266666666416666668000000000749999999900000000),
            ("D", 10**9, 0, 1, 266666666666666668000000000499999999900000000),
            ("BC", 9999999, 1, 0, 26666679999998666666733333324000000)):
        start = time.perf_counter()
        code, out, err = _exit(["verify", "--series", series, "--n", str(n),
                                "--k", str(k), "--p", str(p)])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: the {n}x{k} box's cost estimate {cost} exceeds the budget "
            f"of {cli.VERIFY_COST_BUDGET}"]
    # the budget admits the boxes of the verify targets
    for series, n, k, p in (("A", 8, 8, 0), ("BC", 7, 7, 0), ("D", 7, 7, 0),
                            ("A", 40, 2, 0), ("BC", 25, 0, 0)):
        spec = multiplicity.DualitySpec(series, n, k, p)
        assert multiplicity.verify_cost(spec) <= cli.VERIFY_COST_BUDGET


@pytest.mark.parametrize("c", ["nan", "inf", "1e300", "1e-13"])
def test_shape_non_finite_c_exit_2(c):
    code, out, err = _exit(["shape", "--c", c, "--grid", "4"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: c must lie in [1e-06, 1e+06]"]


@pytest.mark.parametrize("c", ["nan", "inf", "0", "-1", "1e-7", "1e7"])
def test_compare_bad_c_exit_2(c, monkeypatch):
    def never(*args):
        raise AssertionError("sampled before c was checked")

    monkeypatch.setattr(ensembles, "sample", never)
    code, out, err = _exit(["compare", "--pair", "GL", "--n", "2", "--k", "2",
                            "--count", "3", "--c", c])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: c must lie in [1e-06, 1e+06]"]


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
        def __init__(self):
            built.append(self)
            super().__init__()

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


def test_tiling_count_over_pattern_budget_exit_2(golden_pass):
    # a golden row: exit 2 and no stdout are checked with its pin
    _, results = golden_pass
    _, _, err = results["tiling --count-only --n 16 --k 16 "
                        "--lambda 16,16,16,16,16,16,16,16"]
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

    monkeypatch.setattr(ensembles, "sample", never)
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

    monkeypatch.setattr(ensembles, "sample", never)
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


@pytest.mark.parametrize("q", ["1e4201", "1e-10000000", "1e1_000_000",
                               "1" * 4201, "1/" + "7" * 4201])
def test_mult_huge_q_at_literal_exit_2_before_fraction(q, monkeypatch):
    def never(*args):
        raise AssertionError("built the literal before its budget")

    monkeypatch.setattr(cli, "Fraction", never)
    start = time.perf_counter()
    code, out, err = _exit(["mult", "--series", "BC", "--n", "6", "--k", "6",
                            "--lambda", "3,2,1", "--q-at", q])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        "error: argument --q-at: over the budget of 4200 digits and 4200 in "
        "the decimal exponent")


@pytest.mark.parametrize("q,code", [("1e1000", 2), ("2", 0), ("1e4200", 2),
                                    ("3/1000", 0)])
def test_mult_q_at_bit_budget(q, code):
    # deg 236 at BC 6x6 (3,2,1): 2 and 3/1000 fit in 14,000 bits, 10^1000
    # and 10^4200 do not
    got, out, err = _exit(["mult", "--series", "BC", "--n", "6", "--k", "6",
                           "--lambda", "3,2,1", "--q-at", q])
    assert got == code
    if code:
        assert out == "" and re.fullmatch(
            r"error: --q-at: the value would take up to \d+ bits, over the "
            r"budget of 14000\n", err)
    else:
        num, _, den = out.splitlines()[-1].rpartition(": ")[2].partition("/")
        assert err == "" and max(len(num), len(den)) < 4300


# -- golden stdout: every row of golden.ROWS, from the one profiled pass --


@pytest.mark.parametrize("row", golden.ROWS, ids=[row.argv for row in golden.ROWS])
def test_golden_stdout(row, golden_pass):
    _, results = golden_pass
    assert golden.mismatch(row, *results[row.argv]) is None


def test_bench_digests_are_golden_rows(monkeypatch):
    """bench/run.py checks its workloads' stdout against the pins here."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    pins = {row.argv: row.sha256 for row in golden.ROWS}
    digests = {name: (" ".join(w.argv), w.digest)
               for name, w in bench.WORKLOADS.items() if w.digest}
    assert sorted(digests) == ["measure-gl", "mult-bc8", "verify-a5x6"]
    for name, (argv, digest) in digests.items():
        assert pins.get(argv) == digest, name


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


# -- imports: a command loads only the modules it runs, in a fresh process --

#: the modules importing cli loads: the parser reads multiplicity's tables
_CLI_MODULES = ["cli", "exact", "multiplicity", "partitions"]

_LOADED_AFTER = """
import contextlib, io, json, sys
import skewhowe
argv = json.loads(sys.argv[1])
if argv is not None:
    from skewhowe.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
print(json.dumps(sorted(name.partition(".")[2] for name in sys.modules
                        if name.startswith("skewhowe."))))
"""


def _loaded_after(argv):
    """The skewhowe submodules a fresh interpreter holds after importing
    the package and, unless argv is None, running argv."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER,
                           json.dumps(argv)], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv, extra", [
    ("mult --series BC --n 2 --k 2 --lambda 1", []),
    ("mult --series D --n 2 --k 2 --lambda 1,-1 --json --q-at 2", []),
    ("verify --series A --n 2 --k 2", []),
    ("verify --series BC --n 2 --k 2 --p 1 --oracle", ["crystals"]),
    ("measure --pair GL --n 2 --k 2", ["ensembles"]),
    ("sample --pair SP --n 2 --k 2 --count 2", ["ensembles"]),
    ("shape --c 2 --grid 4", ["limitshape"]),
    ("compare --pair GL --n 2 --k 2 --count 2", ["ensembles", "limitshape"]),
    ("tiling --n 2 --k 3 --lambda 2,1", ["patterns"]),
    ("tiling --n 2 --k 3 --lambda 2,1 --count-only", ["patterns"]),
])
def test_each_command_loads_only_its_modules(argv, extra):
    assert _loaded_after(argv.split()) == sorted(_CLI_MODULES + extra)


def test_package_import_loads_no_module():
    assert _loaded_after(None) == []


def test_package_exports_resolve_on_access():
    import skewhowe

    assert skewhowe.__all__ == [
        "DualitySpec", "GTPattern", "LozengeTiling", "MeasureTable",
        "Partition", "QLaurent", "QProduct", "ShapeCurve",
        "catalan_triangle_q", "count_gt", "crystals", "diagram_boundary",
        "dual_rsk_shape", "dual_rsk_shapes", "ensembles", "exact",
        "gt_to_lozenge", "limit_f", "limitshape", "mean_boundary",
        "measure_table", "most_probable_diagram", "mult_prod_A_q",
        "mult_prod_BC_q", "mult_prod_D_q", "multiplicity",
        "multiplicity_oracle", "partitions", "patterns", "q_binomial", "qdim",
        "rho", "sample", "sup_distance", "verify_duality", "weyl_dimension"]
    for name in skewhowe.__all__:
        value = getattr(skewhowe, name)
        home = getattr(value, "__module__", None) or value.__name__
        assert home.startswith("skewhowe."), name
    with pytest.raises(AttributeError, match="no attribute 'lgv_matrix'"):
        skewhowe.lgv_matrix
