"""Acceptance suite.

Each test prints one PASS line (pytest -s shows them); a failure of any
assertion is the corresponding FAIL.  Exact identities are checked with
no tolerance; the limit-shape comparisons use their stated tolerances.
"""

import math
import time
from collections import Counter
from itertools import product
from math import comb

import pytest

from skewhowe.crystals import multiplicity_oracle
from skewhowe.ensembles import (PAIR_GL, PAIR_O_SO, PAIR_SO_PIN, PAIR_SP, PAIRS,
                                dual_rsk_shapes, measure_table, sample)
from skewhowe.exact import QLaurent, catalan_triangle_q
from skewhowe.limitshape import (diagram_boundary, limit_f, mean_boundary, rho,
                                 rho_integral, sup_distance)
from skewhowe.multiplicity import (DualitySpec, SIDE_GL, Side, TYPE_B, TYPE_C,
                                   TYPE_D, qlaurent_determinant,
                                   verify_duality, weyl_dimension)
from skewhowe.partitions import Partition
from boxes import enumerate_in_box, lgv_determinant
from skewhowe.patterns import count_gt
from test_crystals import (crystal_dimension, doubled_weight_dimension,
                           word_scan_oracle)
from test_ensembles import (check_bc_specialization, check_binomialization,
                            pack, probabilities, q_measure_normalization)
from test_limitshape import first_row_prediction
from test_patterns import (count_proctor, nilp_count, plane_partition_count,
                           plane_partition_count_exhaustive)


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number:2d}: PASS  {text}")


def test_criterion_01_duality_identity_suite():
    start = time.time()
    checked = 0
    for n in range(1, 5):
        for k in range(1, 5):
            report = verify_duality(DualitySpec("A", n, k))
            assert report.ok, (n, k, report.violations[:3])
            checked += report.checked
    for series in ("BC", "D"):
        for n in range(1, 4):
            for k in range(1, 4):
                for p in (0, 1):
                    report = verify_duality(DualitySpec(series, n, k, p))
                    assert report.ok, (series, n, k, p, report.violations[:3])
                    checked += report.checked
    elapsed = time.time() - start
    assert elapsed < 120, f"duality suite took {elapsed:.1f}s"
    _report(1, f"det = product = q-shifted q-dimension for {checked} weights "
               f"({elapsed:.1f}s)")


def _oracle_specs():
    for n in range(1, 4):
        for k in range(1, 4):
            yield ("A", n, k, 0)
    for n in (1, 2):
        for factors in (1, 2, 3, 4):
            yield ("B", n, factors, None)
            yield ("D", n, factors, None)
    for n in (1, 2):
        for k in (1, 2):
            yield ("C", n, k, 1)


def _formula_value(series: str, n: int, k: int, p: int, lam: Partition) -> int:
    series = "BC" if series in ("B", "C") else series
    return lgv_determinant(series, lam, n, k, p).at_one()


def _oracle_lambda(p: int, doubled) -> Partition:
    """The partition of the doubled weight 2(lam + p/2), up to the signs of
    type D."""
    vals = [abs(v) - p for v in doubled]
    assert all(v >= 0 and v % 2 == 0 for v in vals), doubled
    return Partition(tuple(sorted((v // 2 for v in vals), reverse=True)))


def test_criterion_02_and_03_oracle_equivalence_and_dimension_sums():
    start = time.time()
    weights_checked = 0
    specs = 0
    for series, n, kf, p in _oracle_specs():
        # the walk has no type C alphabet: C reads the tests' word scan
        if series == "C":
            counts = word_scan_oracle("C", n, kf)
        else:
            counts = multiplicity_oracle(series, n, kf)
        if series in ("A", "C"):
            box_k, box_p = kf, 0 if series == "A" else 1
        else:
            box_k, box_p = divmod(kf, 2)
        # criterion 2: formula = oracle on the full weight support
        seen = set()
        for weight, mult in counts.items():
            # the C weights are integral: lam is the weight itself
            lam = _oracle_lambda(0 if series == "C" else box_p, weight)
            got = _formula_value(series, n, box_k, box_p, lam)
            assert got == mult, (series, n, kf, weight, got, mult)
            seen.add(lam)
            weights_checked += 1
        for lam in enumerate_in_box(n, box_k):
            if lam not in seen:
                assert _formula_value(series, n, box_k, box_p, lam) == 0, \
                    (series, n, kf, lam)
        # criterion 3: sum of mult * dim = (dim V)^factors, exactly
        total = 0
        for weight, mult in counts.items():
            total += mult * doubled_weight_dimension(series, weight)
        assert total == crystal_dimension(series, n) ** kf, (series, n, kf)
        specs += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"oracle suite took {elapsed:.1f}s"
    _report(2, f"crystal oracle = formulas at q=1 on {weights_checked} weights "
               f"across {specs} specs ({elapsed:.1f}s)")
    _report(3, f"sum of mult x dim = (dim V)^k exactly for all {specs} specs")


def test_criterion_04_measure_normalization():
    tables = 0
    for pair in PAIRS:
        for n in range(1, 6):
            for k in range(1, 6):
                measure_table(pair, n, k)  # constructor asserts sum == 1
                tables += 1
    _report(4, f"all {tables} measure tables sum to exactly 1 (boxes <= 5x5)")


def test_criterion_05_bc_fixture():
    fixture = [[275, 75, 20], [297, 90, 28], [132, 42, 14]]
    mine = [[catalan_triangle_q(2 * 3 - i - j + 4, j - i + 4).at_one()
             for j in range(1, 4)] for i in range(1, 4)]
    assert sorted(v for row in mine for v in row) == \
        sorted(v for row in fixture for v in row)
    det_mine = qlaurent_determinant(
        [[QLaurent.of(v) for v in row] for row in mine])
    det_fixture = qlaurent_determinant(
        [[QLaurent.of(v) for v in row] for row in fixture])
    assert det_mine == det_fixture
    assert det_mine.at_one() == \
        lgv_determinant("BC", Partition(), 3, 4, 0).at_one()
    _report(5, "BC determinant matrix at q=1 reproduces the fixture entries "
               "(transposed) and determinant")


def test_criterion_06_bc_z_measure_specialization():
    checked = 0
    for pair in (PAIR_SP, PAIR_SO_PIN, PAIR_O_SO):
        for l, k in ((2, 2), (2, 4), (3, 4)):
            checked += check_bc_specialization(pair, l, k)
    _report(6, f"signed z-measure ratio identity exact on {checked} pairs "
               f"for all three (alpha, beta) rows")


def test_criterion_07_dual_rsk_pushforward():
    start = time.time()
    for n, k in ((2, 2), (2, 3), (3, 3)):
        probs = probabilities(measure_table(PAIR_GL, n, k))
        shapes = dual_rsk_shapes(
            pack([bits[i * k:(i + 1) * k] for i in range(n)])
            for bits in product((0, 1), repeat=n * k))
        hist = Counter(shapes)
        for lam in enumerate_in_box(n, k):
            assert hist.get(lam, 0) == probs[lam] * 2 ** (n * k), \
                (n, k, lam)
    elapsed = time.time() - start
    assert elapsed < 60, f"dual RSK pushforward took {elapsed:.1f}s"
    _report(7, f"dual RSK histograms equal 2^nk x measure exactly "
               f"({elapsed:.1f}s)")


def test_criterion_08_limit_shape_numerics():
    start = time.time()
    for c in (1.5, 3.0, 9.0):
        assert abs(rho_integral(math.sqrt(c), c) - 1.0) < 1e-8
    for x in (-1.0, -0.25, 0.0, 0.7, 1.0):
        assert rho(x, 1.0) == 0.5
    for c in (0.5, 1.5, 3.0, 9.0):
        assert abs(limit_f(0.0, c) - 1.0) < 1e-6
        assert abs(limit_f(c + 1.0, c) - c) < 1e-6
    shapes = sample(PAIR_GL, 50, 150, 200, 20260810)
    curves = [diagram_boundary(s, 50) for s in shapes]
    dist = sup_distance(mean_boundary(curves), 3.0)
    assert dist <= 0.1, dist
    rows = sample(PAIR_GL, 60, 240, 100, 424242)
    mean_l1 = sum(s.part(1) for s in rows) / len(rows)
    predicted = first_row_prediction(60, 240)
    assert abs(mean_l1 - predicted) / predicted <= 0.05, (mean_l1, predicted)
    elapsed = time.time() - start
    assert elapsed < 180, f"limit shape numerics took {elapsed:.1f}s"
    _report(8, f"density normalization, boundary conditions, mean boundary "
               f"distance {dist:.3f} <= 0.1, mean first row within "
               f"{100 * abs(mean_l1 - predicted) / predicted:.1f}% ({elapsed:.1f}s)")


def test_criterion_09_pattern_oracles():
    for k in (1, 2, 3, 4):
        for lam in enumerate_in_box(k, 4):
            assert count_gt(lam, k) == weyl_dimension(SIDE_GL, k, lam)
    for series, lie in (("B", TYPE_B), ("C", TYPE_C), ("D", TYPE_D)):
        for k in (1, 2, 3):
            for lam in enumerate_in_box(k, 4):
                assert count_proctor(series, lam, k) == \
                    weyl_dimension(Side(lie), k, lam), (series, k, lam)
    assert plane_partition_count(2, 2, 2) == 20
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert plane_partition_count(a, b, c) == \
                    plane_partition_count_exhaustive(a, b, c)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for lam in enumerate_in_box(n, k):
                assert lgv_determinant("A", lam, n, k, 0).at_one() == \
                    nilp_count("A", n, k, 0, lam)
    for n in (1, 2):
        for k in (1, 2, 3):
            for p in (0, 1):
                for lam in enumerate_in_box(n, k):
                    for series in ("BC", "D"):
                        assert lgv_determinant(series, lam, n, k,
                                               p).at_one() == \
                            nilp_count(series, n, k, p, lam), \
                            (series, n, k, p, lam)
    _report(9, "pattern counts equal Weyl dimensions; MacMahon and LGV "
               "agree with exhaustive enumeration")


def test_criterion_10_q_measure_normalization():
    statuses = {}
    for n in range(1, 4):
        for k in range(1, 4):
            q_measure_normalization("A", n, k)  # proven: asserts equality
            for variant in ("A2", "A3"):
                total, claimed = q_measure_normalization(variant, n, k)
                statuses.setdefault(variant, []).append(
                    ((n, k), total == claimed))
    summary = "; ".join(
        f"{variant}: " + ",".join(f"{nk}={'ok' if eq else 'no'}"
                                  for nk, eq in entries)
        for variant, entries in statuses.items())
    _report(10, f"proven normalization exact for n,k <= 3; conjectures "
                f"reported [{summary}]")


def test_criterion_11_binomialization():
    for n in range(1, 5):
        for k in range(1, 5):
            check_binomialization(n, k)
    _report(11, "fixed-size binomialization identity exact on all boxes <= 4x4")
