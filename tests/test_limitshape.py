import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from skewhowe import limitshape
from skewhowe.ensembles import PAIR_GL
from skewhowe.limitshape import (C_MAX, C_MIN, GL, HALF, ShapeCurve,
                                 diagram_boundary, limit_domain, limit_f,
                                 mean_boundary, rho, rho_integral, sup_distance)
from skewhowe.multiplicity import pair_row
from skewhowe.partitions import Partition
from boxes import enumerate_in_box
from test_ensembles import (_weight_ratio, addable_corners, removable_corners,
                            with_row)

# -- the adaptive Simpson quadrature rho_integral used before its closed form,
# kept as the oracle of the differential below --


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-9,
                      max_depth: int = 16) -> float:
    """Adaptive Simpson with absolute tolerance; at most 2^max_depth panels."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (rec(x0, xm, f0, fl, f1, left, eps / 2.0, depth + 1)
                + rec(xm, x2, f1, fr, f2, right, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return rec(a, b, fa, fm, fb, whole, tol, 0)


def quadrature_rho_integral(y: float, c: float, tol: float = 1e-9) -> float:
    """Integral of rho(., c) from -sqrt(c) to y by adaptive Simpson in
    theta, u = sqrt(c) sin(theta) smoothing the edge square roots."""
    root = math.sqrt(c)
    y = max(-root, min(root, y))
    upper = math.asin(max(-1.0, min(1.0, y / root)))

    def integrand(theta: float) -> float:
        u = root * math.sin(theta)
        return rho(u, c) * root * math.cos(theta)

    return _adaptive_simpson(integrand, -math.pi / 2.0, upper, tol)


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
    for c in (0.0, math.nan, math.inf, C_MIN / 2, C_MAX * 2):
        for f in (rho, rho_integral, lambda y, c: limit_domain(c, GL)):
            with pytest.raises(ValueError, match=r"c must lie in \[1e-06, 1e\+06\]"):
                f(0.0, c)


def test_rho_normalization():
    for c in (1.5, 3.0, 9.0):
        assert abs(rho_integral(math.sqrt(c), c) - 1.0) < 1e-8
    # hole density for c < 1 integrates to c
    for c in (0.25, 0.5, 0.8):
        assert abs(rho_integral(math.sqrt(c), c) - c) < 1e-8


# c log-uniform on [0.01, 1e4], and 1 +- 10^-j where the arctangents are steep
_C = st.one_of(st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e),
               st.builds(lambda j, sign: 1.0 + sign * 10.0 ** -j,
                         st.integers(1, 8), st.sampled_from((-1.0, 1.0))))


@st.composite
def _c_and_y(draw):
    """c, and y on its support: anywhere, on an edge, or within 1e-9 sqrt(c)
    of one."""
    c = draw(_C)
    root = math.sqrt(c)
    edge = draw(st.sampled_from((-root, root)))
    y = draw(st.one_of(
        st.floats(-1.0, 1.0).map(lambda u: u * root),
        st.just(edge),
        st.floats(0.0, 1e-9).map(lambda d: edge - math.copysign(d * root, edge))))
    return c, y


# The oracle runs at tol 1e-11: at its 1e-9 default, adaptive Simpson can
# stop early on panels where the coarse and refined rules happen to agree,
# off by 4.6e-8 at the right edge of c = 12.298... (the example below) where
# the closed form and the mpmath reference agree to 1e-16.
@settings(max_examples=300, deadline=None)
@given(_c_and_y())
@example((12.29826225655732, 3.506887830620951))
@example((0.9440118010972754, -0.6136199943691554))
def test_rho_integral_matches_quadrature(cy):
    c, y = cy
    oracle = quadrature_rho_integral(y, c, tol=1e-11)
    assert abs(rho_integral(y, c) - oracle) <= 1e-8


def _mp_rho_integral(y: float, c: float, mp):
    """Tanh-sinh quadrature of rho(., c) over [-sqrt(c), y] in theta, in
    50-digit arithmetic, split where the second arctangent's numerator
    2c + (c+1)x changes sign (the steep layer near the left edge) and at its
    mirror image.  Degree 4 agrees with mpmath's full-degree default to
    about 1e-18 on the points below, at half the cost."""
    with mp.workdps(50):
        c, y = mp.mpf(c), mp.mpf(y)
        root = mp.sqrt(c)
        upper = mp.asin(max(-1, min(1, y / root)))

        def integrand(theta):
            x = root * mp.sin(theta)
            gap = c - x * x
            if gap <= 0:
                return mp.mpf(0)
            w = abs(c - 1) * mp.sqrt(gap)
            density = (mp.atan2(2 * c - (c + 1) * x, w)
                       + mp.atan2(2 * c + (c + 1) * x, w)) / (2 * mp.pi)
            return density * root * mp.cos(theta)

        layer = mp.asin(2 * root / (c + 1))
        cuts = [t for t in (-layer, layer) if -mp.pi / 2 < t < upper]
        return mp.quad(integrand, [-mp.pi / 2, *cuts, upper], maxdegree=4)


def test_rho_integral_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    cs = [10.0 ** e for e in range(-6, 7)]
    cs += [1.0 + sign * 10.0 ** -j for j in (1, 4, 8) for sign in (-1, 1)]
    for c in cs:
        root = math.sqrt(c)
        band = 1e-10 if abs(c - 1) >= 0.1 else 1e-8
        for y in (-root + 1e-9 * root, 0.37 * root, root - 1e-9 * root):
            ref = float(_mp_rho_integral(y, c, mp))
            assert abs(rho_integral(y, c) - ref) <= band, (c, y)


# c log-uniform on the band where the closed form is trusted
@settings(max_examples=100, deadline=None)
@given(st.floats(math.log10(C_MIN), math.log10(C_MAX)).map(lambda e: 10.0 ** e),
       st.floats(-1.0, 1.0))
def test_rho_integral_is_symmetric_on_the_c_band(c, u):
    # rho is even, so F(y) + F(-y) is the total mass min(1, c)
    y = u * math.sqrt(c)
    mass = min(1.0, c)
    assert abs(rho_integral(y, c) + rho_integral(-y, c) - mass) <= 1e-9
    assert abs(rho_integral(0.0, c) - mass / 2) <= 1e-9


def test_rho_matches_mpmath_near_both_edges():
    # the arctangent arguments nearly cancel within about (c-1)^2 of an edge;
    # summed from sqrt(c) -+ x the error stays at rounding level (it reached
    # 1e-4 at c = 1 + 1e-6 with the arguments summed directly)
    mp = pytest.importorskip("mpmath")

    def exact(x, c):
        with mp.workdps(50):
            x, c = mp.mpf(x), mp.mpf(c)
            w = abs(c - 1) * mp.sqrt(c - x * x)
            return float((mp.atan2(2 * c - (c + 1) * x, w)
                          + mp.atan2(2 * c + (c + 1) * x, w)) / (2 * mp.pi))

    for j in range(2, 7):
        for c in (1.0 + 10.0 ** -j, 1.0 - 10.0 ** -j):
            root = math.sqrt(c)
            offsets = [t * (c - 1) ** 2 for t in (0.01, 0.1, 1.0, 10.0)]
            offsets += [10.0 ** -d for d in range(1, 15)]
            for offset in offsets:
                for x in (root - offset, offset - root):
                    assert abs(rho(x, c) - exact(x, c)) <= 1e-12, (c, x)


@settings(max_examples=200, deadline=None)
@given(_C, st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40))
def test_rho_integral_edges_and_monotone(c, us):
    root = math.sqrt(c)
    assert rho_integral(-root, c) == 0.0
    assert rho_integral(root, c) == min(1.0, c)
    values = [rho_integral(u * root, c) for u in sorted(us)]
    # nondecreasing up to the rounding of terms of size c + 1
    assert all(a <= b + 1e-15 * (c + 1) for a, b in zip(values, values[1:]))


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
        assert abs(reference_curve_value(curve, x) - abs(x - 1.0)) < 1e-12


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
            assert abs(reference_curve_value(cc, x) - (
                1 + k / n - reference_curve_value(cv, length - x))) < 1e-9


def test_boundary_half_series():
    for pair in ("SO_PIN", "SP", "O_SO"):
        curve = diagram_boundary(Partition((2, 1)), 3, pair)
        assert curve.series == HALF
        assert abs(reference_curve_value(curve, 0.0) - 1.0) < 1e-12


def test_shape_curve_validation():
    with pytest.raises(ValueError):
        ShapeCurve((0.0, 1.0), (0.0, 2.0), GL)  # slope 2
    with pytest.raises(ValueError):
        ShapeCurve((0.0, 0.0), (0.0, 0.0), GL)  # xs not increasing


# -- sup distance ---------------------------------------------------------------------


def test_sup_distance_exact_samples():
    xs = tuple(4.0 * i / 800 for i in range(801))
    ys = tuple(limit_f(x, 3.0) for x in xs)
    curve = ShapeCurve(xs, ys, GL)
    assert sup_distance(curve, 3.0) < 1e-2


def test_sup_distance_gross_mismatch():
    assert sup_distance(diagram_boundary(Partition(), 50), 3.0) >= 0.5


# -- a GL box too large for a table: a steepest single-box ascent from the
# limit-density quantiles reaches a local maximum near the limit shape --


def _particle_cdf(x: float, c: float) -> float:
    """Particle mass of the limit density left of the centered point x."""
    if c >= 1:
        return limitshape.rho_integral(x, c)
    half = (c + 1) / 2
    x = max(-half, min(half, x))
    return (x + half) - limitshape.rho_integral(x, c)


def _limit_shape_seed(n: int, k: int) -> Partition:
    """Row lengths read off the limit-density quantiles, rounded to the
    nearest integer.  Symmetric boxes put quantiles on exact halves, which
    the bisection only finds to about n (c+1) 2^-40, so a value within 1e-9
    of a half is a tie, and a tie goes down."""
    c = k / n
    half = (c + 1) / 2
    parts = []
    for i in range(1, n + 1):
        target = (n - i + 0.5) / n
        lo, hi = -half, half
        for _ in range(40):
            mid = (lo + hi) / 2
            if _particle_cdf(mid, c) < target:
                lo = mid
            else:
                hi = mid
        a = (lo + hi) / 2 + half
        parts.append(max(0, min(k, math.ceil(a * n - 0.5 - 1e-9) - (n - i))))
    for idx in range(n - 2, -1, -1):
        parts[idx] = max(parts[idx], parts[idx + 1])
    return Partition(tuple(parts))


def _climb(n: int, k: int, lam: Partition) -> Partition:
    """Steepest single-box ascent of the GL weight from lam, on exact
    ratios; among equal steps the smallest parts tuple.  It stops at a
    local maximum, which need not be the mode."""
    while True:
        steps = {with_row(lam, row, lam.part(row) + delta).parts:
                 _weight_ratio(PAIR_GL, n, k, lam, row, delta)
                 for rows, delta in ((addable_corners(lam, n, k), 1),
                                     (removable_corners(lam), -1))
                 for row in rows}
        top = max(steps.values(), default=1)
        if top <= 1:
            return lam
        lam = Partition(min(parts for parts, r in steps.items() if r == top))


def test_most_probable_diagram_matches_limit():
    lam = _climb(50, 150, _limit_shape_seed(50, 150))
    curve = diagram_boundary(lam, 50)
    assert sup_distance(curve, 3.0) <= 0.1


def test_limit_shape_seed_ignores_one_ulp_in_rho_integral(monkeypatch):
    # with round() on the quantile position, 21 of these boxes changed seed
    exact_rho_integral = limitshape.rho_integral
    boxes = [(n, k) for n in range(1, 13) for k in range(1, 13)]
    want = [_limit_shape_seed(n, k) for n, k in boxes]
    for direction in (math.inf, -math.inf):
        monkeypatch.setattr(
            limitshape, "rho_integral",
            lambda y, c: math.nextafter(exact_rho_integral(y, c), direction))
        assert [_limit_shape_seed(n, k) for n, k in boxes] == want


def reference_curve_value(curve: ShapeCurve, x: float) -> float:
    """ShapeCurve's per-point evaluation before the one-pass sweep: one
    bisection per point."""
    xs, ys = curve.xs, curve.ys
    if x <= xs[0]:
        return ys[0] - (x - xs[0])
    if x >= xs[-1]:
        return ys[-1] + (x - xs[-1])
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + t * (ys[i + 1] - ys[i])


@st.composite
def _curves(draw):
    """Random unit-slope-bounded curves of one series."""
    curves = []
    for _ in range(draw(st.integers(1, 6))):
        steps = draw(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-2.0, 2.0)),
                              min_size=1, max_size=30))
        xs = [draw(st.floats(0.0, 0.5))]
        ys = [draw(st.floats(-2.0, 2.0))]
        for dx, target in steps:
            # heights drawn on their own, not as y + slope*dx, so that some
            # ys[i] + (ys[i+1] - ys[i]) round away from ys[i+1]
            xs.append(xs[-1] + dx)
            ys.append(min(max(target, ys[-1] - dx), ys[-1] + dx))
        curves.append(ShapeCurve(tuple(xs), tuple(ys), GL))
    return curves


@settings(max_examples=150, deadline=None)
@given(_curves(), st.integers(1, 300))
def test_mean_boundary_matches_per_point_evaluation(curves, grid):
    avg = mean_boundary(curves, grid=grid)
    expected = [math.fsum(reference_curve_value(cv, x) for cv in curves)
                / len(curves) for x in avg.xs]
    assert list(avg.ys) == expected  # bit for bit
    points = sorted({-1.0, *avg.xs, *curves[0].xs, avg.xs[-1] + 1.0})
    assert list(curves[0].sweep(points)) == [reference_curve_value(curves[0], x)
                                             for x in points]


def test_mean_boundary():
    a = diagram_boundary(Partition((2,)), 2)
    b = diagram_boundary(Partition((1, 1)), 2)
    avg = mean_boundary([a, b], grid=64)
    assert len(avg.xs) == 65
    for x, y, ya, yb in zip(avg.xs, avg.ys, a.sweep(avg.xs), b.sweep(avg.xs)):
        assert abs(y - 0.5 * (ya + yb)) < 1e-12


# -- first row --------------------------------------------------------------------------


def first_row_prediction(n: int, k: int, pair: str = "GL") -> float:
    """Leading-order first-row length: sqrt(kn) + (k-n)/2 for a pair with
    the GL limit shape, sqrt(2kl) (l = n) for the HALF one (the spin,
    symplectic and orthogonal pairs).  An unknown pair raises ValueError."""
    if pair_row(pair).shape == GL:
        return math.sqrt(k * n) + (k - n) / 2.0
    return math.sqrt(2.0 * k * n)


def test_first_row_prediction():
    assert first_row_prediction(7, 7) == 7.0
    assert abs(first_row_prediction(50, 150) - (math.sqrt(7500) + 50)) < 1e-12
    for pair in ("SO_PIN", "SP", "O_SO"):
        assert abs(first_row_prediction(50, 75, pair) - math.sqrt(7500)) < 1e-12
    with pytest.raises(ValueError):
        first_row_prediction(50, 75, "SO")
