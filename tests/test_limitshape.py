import math

import pytest

from skewhowe.limitshape import (GL, HALF, ShapeCurve, diagram_boundary,
                                 first_row_prediction, limit_domain, limit_f,
                                 mean_boundary, rho, rho_integral, sup_distance)
from skewhowe.partitions import Partition, enumerate_in_box

# -- density -----------------------------------------------------------------


def test_rho_support_and_edges():
    for c in (1.5, 3.0, 9.0):
        root = math.sqrt(c)
        assert rho(root, c) == 0.0
        assert rho(-root, c) == 0.0
        assert rho(root + 1e-9, c) == 0.0
        assert rho(root - 1e-6, c) > 0.0
        assert 0.0 <= rho(0.0, c) <= 1.0


def test_rho_constant_at_c_one():
    assert rho(0.0, 1.0) == 0.5
    assert rho(0.999, 1.0) == 0.5
    assert rho(1.5, 1.0) == 0.0


def test_rho_is_even():
    for c in (0.5, 1.5, 3.0, 9.0):
        root = math.sqrt(c)
        for i in range(1000):
            x = -root + 2 * root * i / 999
            assert abs(rho(x, c) - rho(-x, c)) < 1e-12


def test_rho_rejects_nonpositive_c():
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rho(0.0, c)


def test_rho_normalization():
    for c in (1.5, 3.0, 9.0):
        assert abs(rho_integral(math.sqrt(c), c) - 1.0) < 1e-8
    # hole density for c < 1 integrates to c
    for c in (0.25, 0.5, 0.8):
        assert abs(rho_integral(math.sqrt(c), c) - c) < 1e-8


# -- limit shape ----------------------------------------------------------------


def test_limit_f_endpoints():
    for c in (0.5, 1.5, 3.0, 9.0):
        assert abs(limit_f(0.0, c) - 1.0) < 1e-9
        assert abs(limit_f(c + 1.0, c) - c) < 1e-6


def test_limit_f_flat_at_c_one():
    for x in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert limit_f(x, 1.0) == 1.0


def test_limit_f_is_lipschitz():
    grid = 10**4
    for c in (0.5, 3.0):
        end = c + 1.0
        prev = None
        for i in range(grid + 1):
            v = limit_f(end * i / grid, c)
            if prev is not None:
                assert abs(v - prev) <= end / grid + 1e-9
            prev = v


def test_limit_f_half_series():
    for c in (0.5, 1.5, 3.0):
        assert abs(limit_f(0.0, c, HALF) - 1.0) < 1e-9
        end = limit_domain(c, HALF)
        assert abs(limit_f(end, c, HALF) - end) < 1e-6
        # right half of the GL profile, shifted to start at height 1
        mid = (c + 1.0) / 2.0
        for x in (0.0, 0.2 * end, 0.7 * end):
            glued = limit_f(x + mid, c, GL) - limit_f(mid, c, GL) + 1.0
            assert abs(limit_f(x, c, HALF) - glued) < 1e-7


def test_limit_f_domain_errors():
    with pytest.raises(ValueError):
        limit_f(5.0, 3.0, HALF)
    with pytest.raises(ValueError):
        limit_f(-0.5, 3.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError):
            limit_f(0.0, c)


# -- boundaries --------------------------------------------------------------------


def test_empty_diagram_is_wedge():
    curve = diagram_boundary(Partition(), 4)
    for x in (0.0, 0.3, 1.0, 1.7):
        assert abs(curve(x) - abs(x - 1.0)) < 1e-12


def test_boundary_descents_at_particles():
    lam = Partition((3, 1))
    n = 2
    curve = diagram_boundary(lam, n)
    coords = [lam.part(i) + n - i for i in range(1, n + 1)]
    down = set()
    for (x0, y0), (x1, y1) in zip(zip(curve.xs, curve.ys),
                                  zip(curve.xs[1:], curve.ys[1:])):
        if y1 < y0:
            down.add(round(x0 * n))
    assert down == set(coords)


def test_boundary_complement_symmetry():
    n, k = 3, 4
    length = (n + k) / n
    for lam in enumerate_in_box(n, k):
        cv = diagram_boundary(lam, n)
        cc = diagram_boundary(lam.complement(n, k), n)
        for i in range(40):
            x = length * i / 39
            assert abs(cc(x) - (1 + k / n - cv(length - x))) < 1e-9


def test_boundary_half_series():
    for pair in ("SO_PIN", "SP", "O_SO"):
        curve = diagram_boundary(Partition((2, 1)), 3, pair)
        assert curve.series == HALF
        assert abs(curve(0.0) - 1.0) < 1e-12


def test_shape_curve_validation():
    with pytest.raises(ValueError):
        ShapeCurve((0.0, 1.0), (0.0, 2.0), GL)  # slope 2
    with pytest.raises(ValueError):
        ShapeCurve((0.0, 0.0), (0.0, 0.0), GL)  # xs not increasing


# -- sup distance ---------------------------------------------------------------------


def test_sup_distance_exact_samples():
    xs = tuple(4.0 * i / 800 for i in range(801))
    ys = tuple(limit_f(x, 3.0) for x in xs)
    curve = ShapeCurve(xs, ys, GL, 3.0)
    assert sup_distance(curve, 3.0) < 1e-2


def test_sup_distance_gross_mismatch():
    assert sup_distance(diagram_boundary(Partition(), 50), 3.0) >= 0.5


def test_most_probable_diagram_matches_limit():
    from skewhowe.ensembles import PAIR_GL, most_probable_diagram
    lam = most_probable_diagram(PAIR_GL, 50, 150)
    curve = diagram_boundary(lam, 50)
    assert sup_distance(curve, 3.0) <= 0.1


def test_mean_boundary():
    a = diagram_boundary(Partition((2,)), 2)
    b = diagram_boundary(Partition((1, 1)), 2)
    avg = mean_boundary([a, b], grid=64)
    for i in range(65):
        x = avg.xs[i]
        assert abs(avg.ys[i] - 0.5 * (a(x) + b(x))) < 1e-12


# -- first row --------------------------------------------------------------------------


def test_first_row_prediction():
    assert first_row_prediction(7, 7) == 7.0
    assert abs(first_row_prediction(50, 150) - (math.sqrt(7500) + 50)) < 1e-12
    for pair in ("SO_PIN", "SP", "O_SO"):
        assert abs(first_row_prediction(50, 75, pair) - math.sqrt(7500)) < 1e-12
    with pytest.raises(ValueError):
        first_row_prediction(50, 75, "SO")
