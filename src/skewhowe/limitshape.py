"""Closed-form limit densities and shapes, and diagram-boundary geometry.

This is the exact/float frontier: everything upstream is exact, here the
closed-form densities and their closed-form antiderivatives (an arcsine
and two arctangents, see rho_integral) are evaluated in binary64.

Conventions.  In centered coordinates xt = x - (c+1)/2 the density
rho(xt, c) is supported on [-sqrt(c), sqrt(c)] and takes values in [0,1]:
for c >= 1 it is the particle density of the rotated-diagram ensemble
(integral 1), for c < 1 the complementary hole density (integral c); at
c = 1 it is identically 1/2 on [-1, 1].  The boundary function uses the
integrand 1 - 2 rho for c >= 1 and its negative for c < 1, which makes
f(0) = 1 and f(c+1) = c in both regimes.

Series tags: "GL" boundaries live on [0, c+1]; the spin/symplectic
"HALF" boundaries live on [0, (c+1)/2] and use the density with its
argument shifted by (c+1)/2 (the right half of the GL density).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .multiplicity import pair_row
from .partitions import Partition, doubled_coordinates

GL = "GL"
HALF = "HALF"

# The closed forms hold to about 1e-10 for c in [C_MIN, C_MAX].  Above the
# band rho_integral's terms of size c cancel (its error grows like c 1e-17) and
# rho returns nan from about c = 1e206; below it, F leaves [0, c].  Every
# c = k/n of a GL box within the sampler's bit budget lies in the band.
C_MIN = 1e-6
C_MAX = 1e6
_C_BAND = f"c must lie in [{C_MIN:g}, {C_MAX:g}]"

SLOPE_TOLERANCE = 1e-9
SUP_GRID = 2048


def rho(x: float, c: float) -> float:
    """Limit density at the centered coordinate x.

    Zero outside |x| <= sqrt(c); 1/2 on [-1, 1] at c = 1.  For c > 1 the
    particle density, for c < 1 the hole density, vanishing at the edges.
    From the arctangents of rho_integral, pi rho = A(+) - A(-) - pi/2 +
    2 alpha.  Their arguments (c+1) x +- (2c + 2 sqrt(c) s) nearly cancel
    within about (c-1)^2 of the edge -+sqrt(c), so they are summed from
    sqrt(c) +- x, taken from c - x^2, and (sqrt(c) - 1)^2 =
    (c-1)^2 / (sqrt(c)+1)^2, without cancellation.
    """
    if not C_MIN <= c <= C_MAX:
        raise ValueError(_C_BAND)
    if c == 1:
        return 0.5 if abs(x) <= 1 else 0.0
    root = math.sqrt(c)
    if abs(x) >= root:
        return 0.0  # the edges are those of rho_integral
    gap = float(Fraction(c) - Fraction(x) ** 2)  # c - x^2, rounded once
    if gap <= 0:
        return 0.0
    s = math.sqrt(gap)
    left = root + x if x >= 0 else gap / (root - x)  # sqrt(c) + x
    right = gap / left if x >= 0 else root - x  # sqrt(c) - x
    dev = abs(c - 1.0)
    dip = root * (dev / (root + 1.0)) ** 2  # sqrt(c) (sqrt(c) - 1)^2
    den = dev * (root + s)
    a_plus = math.atan2((c + 1.0) * left - dip + 2.0 * root * s, den)
    a_minus = math.atan2(dip - (c + 1.0) * right - 2.0 * root * s, den)
    alpha = math.atan(dev / (root + 1.0) ** 2)
    return (a_plus - a_minus - math.pi / 2.0 + 2.0 * alpha) / math.pi


def rho_integral(y: float, c: float) -> float:
    """Integral of rho(., c) from -sqrt(c) to y, in closed form: 0 left of
    the support, min(1, c) right of it, (y+1)/2 on it at c = 1.

    Integrating by parts and putting y = sqrt(c) sin(t) (README, "Limit
    shape"):

        2 pi F = (c+1+2y)(A(+) + alpha) + (c+1-2y)(A(-) + pi/2 - alpha)
                 - |c-1| (t + pi/2),
        A(+-) = atan(((c+1) tan(t/2) +- 2 sqrt(c)) / |c-1|),
        alpha = atan(|c-1| / (sqrt(c)+1)^2).

    Every term vanishes at the left edge.  Near c = 1 an arctangent swings
    by about pi/2 close to an edge, where its coefficient c+1 -+ 2y is
    small, so no steep terms cancel.  With s = sqrt((sqrt(c)-y)(sqrt(c)+y)),
    tan(t/2) = y / (sqrt(c)+s) and each A is an atan2 over the positive
    |c-1| (sqrt(c)+s).
    """
    if not C_MIN <= c <= C_MAX:
        raise ValueError(_C_BAND)
    root = math.sqrt(c)
    if y <= -root:
        return 0.0
    if y >= root:
        return min(1.0, c)
    if c == 1:
        return (y + 1.0) / 2.0
    s = math.sqrt((root - y) * (root + y))
    gap = abs(c - 1.0)
    den = gap * (root + s)
    lift = 2.0 * root * (root + s)
    a_plus = math.atan2((c + 1.0) * y + lift, den)
    a_minus = math.atan2((c + 1.0) * y - lift, den)
    alpha = math.atan(gap / (root + 1.0) ** 2)
    theta = math.atan2(s, -y)
    return ((c + 1.0 + 2.0 * y) * (a_plus + alpha)
            + (c + 1.0 - 2.0 * y) * (a_minus + math.pi / 2.0 - alpha)
            - gap * theta) / (2.0 * math.pi)


def limit_domain(c: float, series: str) -> float:
    """The right end of the series' limit shape at c, which must lie in
    [C_MIN, C_MAX]."""
    if not C_MIN <= c <= C_MAX:
        raise ValueError(_C_BAND)
    if series == GL:
        return c + 1.0
    if series == HALF:
        return (c + 1.0) / 2.0
    raise ValueError(f"unknown series {series!r}")


def limit_f(x: float, c: float, series: str = GL) -> float:
    """The limiting boundary shape at x.

    GL: x in [0, c+1], f(0) = 1, f(c+1) = c.  HALF: x in [0, (c+1)/2],
    the density argument shifted right by (c+1)/2.  For c < 1 the
    sign-flipped integrand is used with the hole density.
    """
    end = limit_domain(c, series)
    if x < -1e-12 or x > end + 1e-12:
        raise ValueError(f"x={x} outside [0, {end}]")
    x = max(0.0, min(end, x))
    if c == 1:
        return 1.0
    if series == GL:
        center = (c + 1.0) / 2.0
        mass = rho_integral(x - center, c)
    else:
        mass = rho_integral(x, c) - min(1.0, c) / 2.0  # rho is even
    if c > 1:
        return 1.0 + x - 2.0 * mass
    return 1.0 - x + 2.0 * mass


@dataclass(frozen=True)
class ShapeCurve:
    """Piecewise-linear boundary samples; slopes stay within +-1."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    series: str

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching xs/ys with at least two samples")
        for a, b in zip(self.xs, self.xs[1:]):
            if not b > a:
                raise ValueError("xs must be strictly increasing")
        for (x0, y0), (x1, y1) in zip(zip(self.xs, self.ys),
                                      zip(self.xs[1:], self.ys[1:])):
            slope = (y1 - y0) / (x1 - x0)
            if abs(slope) > 1.0 + SLOPE_TOLERANCE:
                raise ValueError(f"slope {slope} exceeds 1")

    def sweep(self, points) -> Iterator[float]:
        """Values at ascending points, lazily, in one forward pass over the
        segments, with slope +-1 extrapolation outside the sample range
        (+1 to the right, matching an exhausted diagram boundary)."""
        xs, ys = self.xs, self.ys
        first, last = xs[0], xs[-1]
        i = -1
        for x in points:
            if x <= first:
                yield ys[0] - (x - first)
            elif x >= last:
                yield ys[-1] + (x - last)
            else:
                if i < 0:
                    i = bisect_right(xs, x) - 1
                while xs[i + 1] <= x:
                    i += 1
                t = (x - xs[i]) / (xs[i + 1] - xs[i])
                yield ys[i] + t * (ys[i + 1] - ys[i])


def diagram_boundary(lam, n: int, pair: str = "GL") -> ShapeCurve:
    """Rotated-diagram boundary as a piecewise-linear unit-slope curve.

    Particle i occupies [a_i, a_i + 2] before scaling, where a_i is the
    doubled coordinate of the pair's G1 side (multiplicity.PAIR_ROWS) and
    the scale is 2n for a GL-tagged pair, 4n for a HALF one.  The slope
    is -1 on particle intervals and +1 elsewhere, f(0) = 1.
    """
    row = pair_row(pair)
    lam = Partition.of(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    scale = (2 if row.shape == GL else 4) * n
    intervals = sorted((a, a + 2) for a in doubled_coordinates(lam, n, row.g1.shift))
    xs = [0.0]
    ys = [1.0]
    pos = 0
    height = 1.0

    def advance(to: int, slope: float):
        nonlocal pos, height
        if to > pos:
            height += slope * (to - pos) / scale
            pos = to
            xs.append(pos / scale)
            ys.append(height)

    for lo, hi in intervals:
        advance(lo, +1.0)
        advance(hi, -1.0)
    return ShapeCurve(tuple(xs), tuple(ys), row.shape)


def sup_distance(curve: ShapeCurve, c: float) -> float:
    """max |curve - limit_f| over the limit domain of the curve's series.

    Sampled on the curve breakpoints plus a uniform grid of SUP_GRID
    intervals; both functions are 1-Lipschitz so the grid error is
    bounded by the spacing.
    """
    end = limit_domain(c, curve.series)
    points = set(curve.xs)
    points.update(end * i / SUP_GRID for i in range(SUP_GRID + 1))
    xs = [x for x in sorted(points) if 0 <= x <= end]
    worst = 0.0
    for x, y in zip(xs, curve.sweep(xs)):
        worst = max(worst, abs(y - limit_f(x, c, curve.series)))
    return worst


def mean_boundary(curves, grid: int = 512) -> ShapeCurve:
    """Pointwise average of same-series curves on a uniform grid, each
    curve swept once along the grid."""
    if not curves:
        raise ValueError("no curves to average")
    series = curves[0].series
    if any(cv.series != series for cv in curves):
        raise ValueError("curves must share a series")
    end = max(cv.xs[-1] for cv in curves)
    xs = [end * i / grid for i in range(grid + 1)]
    # zip pulls one value per curve at a time; fsum rounds each sum once,
    # where the builtin sum's rounding changed in Python 3.12
    ys = [math.fsum(col) / len(curves)
          for col in zip(*(cv.sweep(xs) for cv in curves))]
    return ShapeCurve(tuple(xs), tuple(ys), series)
