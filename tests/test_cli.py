import json
from fractions import Fraction

import pytest

from skewhowe.cli import run
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


def test_verify_exit_codes(capsys):
    code, out = _capture(capsys, ["verify", "--series", "A", "--n", "2", "--k", "2"])
    assert code == 0
    assert "all identities hold" in out
    code, out = _capture(capsys, ["verify", "--series", "D", "--n", "2",
                                  "--k", "2", "--p", "1", "--oracle"])
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


def test_outfile(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code = run(["measure", "--pair", "SP", "--n", "1", "--k", "1",
                "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["pair"] == "SP"


def test_falsified_identity_exit_1(capsys, monkeypatch):
    from skewhowe import multiplicity
    from skewhowe.exact import ExactDivisionError

    def falsified(matrix):
        raise ExactDivisionError("remainder 1 in a Bareiss step")

    monkeypatch.setattr(multiplicity, "qlaurent_determinant", falsified)
    for argv in (["mult", "--series", "A", "--n", "2", "--k", "2"],
                 ["verify", "--series", "A", "--n", "2", "--k", "2"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: remainder 1 in a Bareiss step"]
