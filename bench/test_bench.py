"""Self-test of the benchmark harness on tiny variants of its workloads.

    python3 -m pytest bench

Runs in seconds.  It checks that every metric BENCHMARK.json names is
reported with its unit, that the last line of output is the result object,
that a wrong pinned digest is counted as a failed run rather than a crash,
and that the harness refuses to run without the program's sources.
"""

import json
from pathlib import Path

import pytest

import run as bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same commands and checks as bench.WORKLOADS at sizes that take well under
# a second.  The compare box is too small to approach the limit shape, so
# its sup-distance bound is loose.
TINY = {
    "mult-bc8": bench.Workload(
        ("mult", "--series", "BC", "--n", "2", "--k", "2", "--json"),
        digest="2cd1459258b990a0384d931b8cfc737100156f3c941c12c69af0c0c33df07d0a"),
    "verify-a5x6": bench.Workload(
        ("verify", "--series", "A", "--n", "2", "--k", "2"),
        digest="445d045a31780659aeb1d34e68f518d943eae029b0688639b31d6037910f9349",
        contains="all identities hold"),
    "compare-gl": bench.Workload(
        ("compare", "--pair", "GL", "--n", "4", "--k", "8",
         "--count", "5", "--seed", "{seed}"),
        max_sup_distance=0.5),
    "measure-gl": bench.Workload(
        ("measure", "--pair", "GL", "--n", "2", "--k", "3"),
        digest="f3130e4aa07b18f40b4b294765a9443b45bd48d0112dec57fe89b3d0f7670d98"),
}


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_tiny_variants_cover_every_workload():
    assert set(TINY) == set(bench.WORKLOADS) == {
        w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(trace):
    expected = _units("per_layer" if trace else "end_to_end")
    for name, wl in TINY.items():
        result = bench.measure(name, wl, seed=3, seconds=0.01, trace=trace,
                               root=ROOT, setup_probes=2)
        assert result["correct"], bench.summary(name, result)
        assert result["failed"] == 0
        assert result["attempted"] >= 2
        got = {metric: m["unit"] for metric, m in result["metrics"].items()}
        assert got == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_last_line_is_the_result_object(monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.chdir(ROOT)
    assert bench.main(["--workload", "verify-a5x6", "--seed", "5",
                       "--seconds", "0.01", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("env: ")
    env = json.loads(lines[0][len("env: "):])
    for key in ("nproc", "cpu", "python", "commit", "seed"):
        assert key in env
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"]["exact.q_binomial.calls"]["value"] > 0
    assert any(line.startswith("verify-a5x6 failed_frac 0 frac")
               for line in lines)


def test_wrong_digest_is_a_failed_run_not_a_crash():
    wl = bench.Workload(TINY["mult-bc8"].argv, digest="0" * 64)
    result = bench.measure("mult-bc8", wl, seed=1, seconds=0.01, trace=False,
                           root=ROOT, setup_probes=1)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["wall_s"]["value"] > 0
    assert any("!= pinned 0000" in line
               for line in bench.summary("mult-bc8", result))


def test_failing_exit_is_a_failed_run():
    wl = bench.Workload(("mult", "--series", "X"))
    result = bench.measure("bad", wl, seed=1, seconds=0.01, trace=False,
                           root=ROOT, setup_probes=1)
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "mult-bc8", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
