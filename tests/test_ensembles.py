"""The measures, samplers and most probable diagram, and the identities
about the measures that no command runs: the Krawtchouk form, the BC
z-measure specialization, the exterior power measures with the
binomialization, and the q-deformed normalizations."""

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from hypothesis import example, given, settings, strategies as st

from skewhowe.cli import run
from skewhowe.ensembles import (PAIR_GL, PAIR_O_SO, PAIR_SO_PIN, PAIR_SP, PAIRS,
                                RSK_BATCH_BITS, RSK_LANES, MeasureTable,
                                dual_rsk_shape, dual_rsk_shapes, measure_table,
                                most_probable_diagram, random_bit_matrix,
                                sample, unnormalized_weight)
from skewhowe import ensembles
from skewhowe.exact import ExactDivisionError, QLaurent, QProduct
from skewhowe.multiplicity import (PAIR_ROWS, SIDE_GL, TYPE_D, VERIFY_ROWS, Side,
                                   _side_ratio, qdim, weyl_dimension)
from skewhowe.partitions import Partition, doubled_coordinates
from boxes import enumerate_in_box, parse_partition, power_plus_one


def _weight_ratio(pair, n, k, lam, row, delta) -> Fraction:
    """The table walk's exact ratio W(lam +- box at row)/W(lam): a box at
    row moves lam's G1 coordinate there by 2 and its complement
    conjugate's at k - lam_row by -2.  A removal is the reciprocal of the
    addition to lam minus that box."""
    if delta < 0:
        less = with_row(lam, row, lam.part(row) - 1)
        return 1 / _weight_ratio(pair, n, k, less, row, 1)
    sides = PAIR_ROWS[pair]
    g1 = doubled_coordinates(lam, n, sides.g1.shift)
    g2 = doubled_coordinates(lam.complement(n, k).conjugate(), k, sides.g2.shift)
    return (Fraction(*_side_ratio(sides.g1, g1, row - 1, 2)) *
            Fraction(*_side_ratio(sides.g2, g2, k - lam.part(row) - 1, -2)))


def probabilities(table) -> dict:
    """The table's entries as Partition -> Fraction: each int weight w over
    2^N is Fraction(w, 2^N), in the table's order."""
    denom = 2 ** table.exponent
    return {Partition(parts): Fraction(w, denom) for parts, w in table.entries.items()}

# -- measure tables -------------------------------------------------------


def test_gl_tables_examples():
    table = measure_table(PAIR_GL, 1, 1)
    assert probabilities(table) == {Partition(): Fraction(1, 2),
                                    Partition((1,)): Fraction(1, 2)}
    probs = probabilities(measure_table(PAIR_GL, 2, 2))
    expected = {"": 1, "1": 4, "1,1": 3, "2": 3, "2,1": 4, "2,2": 1}
    for text, num in expected.items():
        assert probs[parse_partition(text)] == Fraction(num, 16)


def test_sp_table_small():
    probs = probabilities(measure_table(PAIR_SP, 1, 1))
    assert set(probs) <= set(enumerate_in_box(1, 1))
    assert sum(probs.values()) == 1


@pytest.mark.parametrize("pair", PAIRS)
def test_tables_sum_to_one(pair):
    for n in (0, 1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            measure_table(pair, n, k)  # the constructor asserts sum == 1


def test_table_rejects_weights_off_the_denominator():
    assert MeasureTable(PAIR_GL, 1, 1, {(): 1, (1,): 1}).exponent == 1
    for weights in ({(): 1, (1,): 2}, {(): 1}):
        with pytest.raises(ExactDivisionError, match="not 1 in weights over 2$"):
            MeasureTable(PAIR_GL, 1, 1, weights)


def test_gl_complement_invariance():
    for n, k in [(2, 3), (3, 3), (4, 5), (5, 5)]:
        probs = probabilities(measure_table(PAIR_GL, n, k))
        for lam in enumerate_in_box(n, k):
            assert probs[lam] == probs[lam.complement(n, k)]


def test_oversized_support_rejected(monkeypatch):
    def refused(*args):
        raise AssertionError("a Weyl dimension before the budget check")

    monkeypatch.setattr(ensembles, "weyl_dimension", refused)
    with pytest.raises(ValueError):
        measure_table(PAIR_SP, 20, 20)
    with pytest.raises(ValueError):
        sample(PAIR_SP, 20, 20, 1, 0)


# n = 0 and k = 0 are the one-entry boxes; on O-SO 4x5 the walk crosses the
# full-length boundary of the G1 side (the O class doubles) and of the G2
# side; O-SO 4x8 has weights past 2^53, where a float division rounds
@given(st.sampled_from(PAIRS), st.integers(0, 4), st.integers(0, 5))
@example(PAIR_SP, 0, 4)
@example(PAIR_SO_PIN, 3, 0)
@example(PAIR_O_SO, 4, 5)
@example(PAIR_O_SO, 4, 8)
@settings(max_examples=60, deadline=None)
def test_walked_table_matches_direct_weights(pair, n, k):
    denom = 2 ** PAIR_ROWS[pair].exponent(n, k)
    probs = probabilities(measure_table(pair, n, k))
    assert list(probs) == list(enumerate_in_box(n, k))
    assert probs == {
        lam: Fraction(unnormalized_weight(pair, n, k, lam), denom)
        for lam in enumerate_in_box(n, k)}


def test_table_walk_evaluates_one_weyl_product_per_side(monkeypatch):
    calls = []
    real = ensembles.weyl_dimension

    def counted(*args):
        calls.append(args)
        return real(*args)

    # two per entry, 37,128 in all, when each entry was evaluated directly
    monkeypatch.setattr(ensembles, "weyl_dimension", counted)
    assert len(measure_table(PAIR_GL, 6, 12).entries) == comb(18, 6)
    assert len(calls) <= 2


def test_table_walk_takes_any_number_of_rows():
    # a walk that recursed once per row raised RecursionError at about 1,000 rows
    probs = probabilities(measure_table(PAIR_GL, 1200, 1))
    assert sum(probs.values()) == 1
    for m in (0, 1, 600, 1200):
        assert probs[Partition((1,) * m)] == Fraction(comb(1200, m), 2**1200)


def test_table_json_sorted(capsys):
    assert run(["measure", "--pair", "GL", "--n", "2", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    parts = [e["partition"] for e in payload["entries"]]
    assert parts == sorted(parts, key=lambda s: parse_partition(s).parts)


# -- Krawtchouk form ---------------------------------------------------------


def krawtchouk_factors(lam, n: int, k: int) -> tuple[Fraction, int, int]:
    """The GL measure at lam as its three factors: a constant, the squared
    Vandermonde of a_i = lam_i + n - i, and prod binom(k + n - 1, a_i)."""
    a = [lam.part(i) + n - i for i in range(1, n + 1)]
    constant = prod(Fraction(factorial(k + m), 2**k * factorial(m) * factorial(k + n - 1))
                    for m in range(n))
    vandermonde = prod(a[i] - a[j] for i in range(n) for j in range(i + 1, n))
    return constant, vandermonde**2, prod(comb(k + n - 1, ai) for ai in a)


def test_krawtchouk_examples():
    assert krawtchouk_factors(Partition(), 1, 1) == (Fraction(1, 2), 1, 1)
    constant, vandermonde_sq, weights = krawtchouk_factors(Partition((1, 1)), 2, 2)
    assert vandermonde_sq == 1
    assert weights == comb(3, 2) * comb(3, 1)
    assert constant * vandermonde_sq * weights == Fraction(3, 16)


def test_krawtchouk_reconstruction():
    for n, k in [(1, 4), (2, 3), (3, 3)]:
        probs = probabilities(measure_table(PAIR_GL, n, k))
        for lam in enumerate_in_box(n, k):
            assert prod(krawtchouk_factors(lam, n, k)) == probs[lam]


def test_krawtchouk_complement_symmetry():
    for lam in enumerate_in_box(3, 3):
        assert prod(krawtchouk_factors(lam, 3, 3)) == \
            prod(krawtchouk_factors(lam.complement(3, 3), 3, 3))


# -- BC z-measure --------------------------------------------------------------

_HALF = Fraction(1, 2)
#: the BC z-measure row (alpha, beta) of each pair with a HALF limit shape
ALPHA_BETA = {PAIR_SO_PIN: (_HALF, -_HALF), PAIR_SP: (_HALF, _HALF),
              PAIR_O_SO: (-_HALF, -_HALF)}


@dataclass(frozen=True)
class BCZMeasureParams:
    z: Fraction
    z_prime: Fraction
    alpha: Fraction
    beta: Fraction
    l: int

    def __post_init__(self):
        # outside alpha, beta > -1 the weight can vanish at the empty diagram,
        # which normalizes every value of bc_z_measure
        if not (self.alpha > -1 and self.beta > -1):
            raise ValueError(f"BC z-measure needs alpha, beta > -1, not "
                             f"alpha = {self.alpha}, beta = {self.beta}")

    @property
    def theta(self) -> Fraction:
        return (self.alpha + self.beta + 1) / 2

    @staticmethod
    def specialized(pair: str, l: int, k: int) -> "BCZMeasureParams":
        """z = k, z' = 1/2 - l - theta, the skew-Howe specialization."""
        alpha, beta = ALPHA_BETA[pair]
        theta = (alpha + beta + 1) / 2
        return BCZMeasureParams(Fraction(k), Fraction(1, 2) - l - theta,
                                alpha, beta, l)


def _rising(d: int, m: int) -> int:
    """d (d + 2) ... (d + 2m - 2), that is 2^m Gamma(d/2 + m) / Gamma(d/2).

    When d/2 and d/2 + m are both poles the product is the ratio of the
    regularized values lim_{e->0} Gamma(d/2 + m + e) / Gamma(d/2 + e), so
    no pole order is needed.  From a pole to a regular point the product
    would vanish: that is parameter misuse, and it raises.
    """
    if d <= 0 < d + 2 * m and d % 2 == 0:
        raise ValueError(f"Gamma pole at {d // 2}: the argument runs from "
                         f"a pole to the regular point {d // 2 + m}")
    return prod(range(d, d + 2 * m, 2))


def _bc_weight_ratio(x0: int, x: int, params: BCZMeasureParams) -> Fraction:
    """W(x) / W(x0) for x >= x0, each Gamma quotient a rising product over
    doubled arguments (four above the line and four below, so the powers
    of 2 cancel), where

        W(x) = (x + theta) Gamma(x + 2 theta) Gamma(x + alpha + 1)
               / (Gamma(x + beta + 1) Gamma(x + 1) Gamma(z - x + l)
                  Gamma(z' - x + l) Gamma(z + x + l + 2 theta)
                  Gamma(z' + x + l + 2 theta)).
    """
    z, zp, a, b = (doubled_half_integer(v) for v in
                   (params.z, params.z_prime, params.alpha, params.beta))
    m = x - x0
    x2, l2, th4 = 2 * x, 2 * params.l, a + b + 2  # th4 = 4 theta
    if th4 == 0:
        # (x + theta) Gamma(x + 2 theta) collapses to Gamma(x + 1), so that
        # x0 = 0 is finite; it cancels the Gamma(x + 1) below.
        num, den = 1, 1
    else:
        num = (2 * x2 + th4) * _rising(2 * x0 + th4, m)
        den = (4 * x0 + th4) * _rising(2 * x0 + 2, m)
    num *= (_rising(2 * x0 + a + 2, m) * _rising(z - x2 + l2, m)
            * _rising(zp - x2 + l2, m))
    den *= (_rising(2 * x0 + b + 2, m) * _rising(z + 2 * x0 + l2 + th4, m)
            * _rising(zp + 2 * x0 + l2 + th4, m))
    return Fraction(num, den)


def _squared_differences(b, th4: int) -> int:
    """prod over i < j of 4 ((b_i + theta)^2 - (b_j + theta)^2)^2, where
    th4 = 4 theta."""
    return prod(((bi - bj) * (2 * bi + 2 * bj + th4)) ** 2
                for i, bi in enumerate(b) for bj in b[i + 1:])


def bc_z_measure(lam, params: BCZMeasureParams) -> Fraction:
    """The z-measure at lam over its value at the empty diagram.

    A value is the squared-difference product of the shifted coordinates
    b_i = lam_i + l - i times the weight product.  Its normalization Z_l
    is omitted, so only ratios of values are meaningful; this one is
    exact and rational.
    """
    lam = Partition.of(lam)
    assert len(lam) <= params.l
    th4 = doubled_half_integer(params.alpha) + doubled_half_integer(params.beta) + 2
    empty = [params.l - i for i in range(1, params.l + 1)]
    b = [lam.part(i) + x0 for i, x0 in enumerate(empty, start=1)]
    value = Fraction(_squared_differences(b, th4), _squared_differences(empty, th4))
    for x0, x in zip(empty, b):
        value *= _bc_weight_ratio(x0, x, params)
    return value


def check_bc_specialization(pair: str, l: int, k: int) -> int:
    """Assert mu(lam)/mu(nu) = (-1)^(|lam|-|nu|) bc(lam)/bc(nu) for all pairs
    of partitions in the l x k box; return the number of pairs.

    The table merges the two sign classes of a full-length O-SO weight;
    the z-measure treats each signed weight separately, so the masses take
    the SO dimension on the G1 side there.
    """
    params = BCZMeasureParams.specialized(pair, l, k)
    lams = sorted(enumerate_in_box(l, k), key=lambda p: p.parts)
    masses, values = {}, {}
    for lam in lams:
        masses[lam] = (weyl_dimension(Side(TYPE_D), l, lam) * weyl_dimension(
            PAIR_ROWS[pair].g2, k, lam.complement(l, k).conjugate())
            if pair == PAIR_O_SO else unnormalized_weight(pair, l, k, lam))
        values[lam] = bc_z_measure(lam, params)
    checked = 0
    for i, lam in enumerate(lams):
        for nu in lams[i:]:
            sign = -1 if (sum(lam.parts) - sum(nu.parts)) % 2 else 1
            assert Fraction(masses[lam], masses[nu]) == \
                sign * values[lam] / values[nu], (pair, l, k, lam, nu)
            checked += 1
    return checked


# The reference of bc_z_measure: W(x) in Gamma values at half-integers, each a
# rational times a power of sqrt(pi), with the one factor that may sit at a
# pole regularized and the order of the regularization carried beside the value.


@dataclass(frozen=True)
class SqrtPiValue:
    """A value rational * sqrt(pi)^power, exact.

    Products add the sqrt(pi) powers; the ratio of two values with equal
    powers is an ordinary rational.
    """

    rational: Fraction
    sqrt_pi_power: int = 0

    @staticmethod
    def of(value) -> "SqrtPiValue":
        if isinstance(value, SqrtPiValue):
            return value
        return SqrtPiValue(Fraction(value), 0)

    def __mul__(self, other) -> "SqrtPiValue":
        other = SqrtPiValue.of(other)
        return SqrtPiValue(self.rational * other.rational,
                           self.sqrt_pi_power + other.sqrt_pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SqrtPiValue":
        other = SqrtPiValue.of(other)
        return SqrtPiValue(self.rational / other.rational,
                           self.sqrt_pi_power - other.sqrt_pi_power)

    def ratio_to(self, other: "SqrtPiValue") -> Fraction:
        """Exact rational ratio self/other; the sqrt(pi) powers must match."""
        if self.sqrt_pi_power != other.sqrt_pi_power:
            raise ValueError("sqrt(pi) powers do not cancel in the ratio")
        return self.rational / other.rational


def doubled_half_integer(value) -> int:
    """2*value as an int, for an int or a Fraction in (1/2)Z."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction) and value.denominator <= 2:
        return 2 * value.numerator // value.denominator
    raise ValueError(f"not a half-integer: {value!r}")


def gamma_half_integer(t) -> SqrtPiValue:
    """Gamma(t) for half-integer t, exact; nonpositive integers are poles
    and rejected."""
    d = doubled_half_integer(t)
    if d % 2 == 0:
        m = d // 2
        if m <= 0:
            raise ValueError(f"Gamma pole at nonpositive integer {m}")
        return SqrtPiValue(Fraction(factorial(m - 1)), 0)
    # t = d/2 with d odd; climb down/up from Gamma(1/2) = sqrt(pi)
    value = Fraction(1)
    while d > 1:
        d -= 2
        value *= Fraction(d, 2)
    while d < 1:
        value /= Fraction(d, 2)
        d += 2
    return SqrtPiValue(value, 1)


def reciprocal_gamma_regularized(t) -> tuple[SqrtPiValue, int]:
    """1/Gamma(t) and the order of the regularization: at a pole t = -m
    the value is lim_{e->0} 1/(e*Gamma(-m+e)) = (-1)^m m! and the order 1."""
    d = doubled_half_integer(t)
    if d % 2 == 0 and d <= 0:
        m = -d // 2
        return SqrtPiValue(Fraction((-1) ** m * factorial(m)), 0), 1
    g = gamma_half_integer(t)
    return SqrtPiValue(1 / g.rational, -g.sqrt_pi_power), 0


def reference_bc_weight(x: int, params) -> tuple[SqrtPiValue, int]:
    """W(x) and its regularization order; only Gamma(z' - x + l) may sit
    at a pole."""
    th = params.theta
    if th == 0:  # (x + theta) Gamma(x + 2 theta) -> Gamma(x + 1)
        num = gamma_half_integer(Fraction(x + 1))
    else:
        num = SqrtPiValue(x + th) * gamma_half_integer(Fraction(x) + 2 * th)
    num = num * gamma_half_integer(Fraction(x) + params.alpha + 1)
    value = num / (gamma_half_integer(Fraction(x) + params.beta + 1)
                   * gamma_half_integer(Fraction(x + 1)))
    for arg in (params.z - x + params.l,
                params.z + x + params.l + 2 * th,
                params.z_prime + x + params.l + 2 * th):
        value = value / gamma_half_integer(Fraction(arg))
    rec, pole = reciprocal_gamma_regularized(
        Fraction(params.z_prime - x + params.l))
    return value * rec, pole


def reference_bc_z_measure(lam, params) -> tuple[SqrtPiValue, int]:
    """Unnormalized z-measure value and its total regularization order."""
    th = params.theta
    b = [lam.part(i) + params.l - i for i in range(1, params.l + 1)]
    interaction = Fraction(1)
    for i in range(params.l):
        for j in range(i + 1, params.l):
            d = (b[i] + th) ** 2 - (b[j] + th) ** 2
            interaction *= d * d
    value = SqrtPiValue(interaction)
    pole = 0
    for x in b:
        w, order = reference_bc_weight(x, params)
        value = value * w
        pole += order
    return value, pole


BC_PAIRS = (PAIR_SP, PAIR_SO_PIN, PAIR_O_SO)
BC_BOXES = ((1, 3), (2, 2), (2, 4), (3, 4), (4, 3), (3, 5))


def test_bc_z_measure_matches_gamma_reference():
    diagrams = 0
    for pair in BC_PAIRS:
        for l, k in BC_BOXES:
            params = BCZMeasureParams.specialized(pair, l, k)
            empty, empty_pole = reference_bc_z_measure(Partition(), params)
            for lam in enumerate_in_box(l, k):
                value, pole = reference_bc_z_measure(lam, params)
                assert pole == empty_pole, (pair, l, k, lam)
                assert bc_z_measure(lam, params) == value.ratio_to(empty), \
                    (pair, l, k, lam)
                diagrams += 1
    assert diagrams == 453


def test_bc_ratio_identity_same_lambda():
    params = BCZMeasureParams.specialized(PAIR_SP, 2, 2)
    assert bc_z_measure(Partition(), params) == 1
    v = bc_z_measure(Partition((1,)), params)
    assert v / v == 1


@pytest.mark.parametrize("pair", [PAIR_SP, PAIR_SO_PIN, PAIR_O_SO])
def test_bc_specialization_small(pair):
    assert check_bc_specialization(pair, 2, 2) == comb(6, 2) + 6
    params = BCZMeasureParams.specialized(pair, 2, 2)
    theta = {PAIR_SP: 1, PAIR_SO_PIN: Fraction(1, 2), PAIR_O_SO: 0}[pair]
    assert params.theta == theta and params.z_prime == Fraction(1, 2) - 2 - theta


def test_bc_gamma_pole_error():
    # z small enough to hit a pole inside the support makes W vanish
    params = BCZMeasureParams(Fraction(0), Fraction(1, 2), Fraction(1, 2),
                              Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        bc_z_measure(Partition((2, 1)), params)


def test_bc_parameters_outside_the_domain():
    # theta = -2: the weight would vanish at the empty diagram, a 0/0
    with pytest.raises(ValueError, match="alpha, beta > -1"):
        BCZMeasureParams(Fraction(5), Fraction(1, 2), Fraction(-1, 2),
                         Fraction(-5, 2), 2)
    with pytest.raises(ValueError, match="alpha, beta > -1"):
        BCZMeasureParams(Fraction(5), Fraction(1, 2), Fraction(-1),
                         Fraction(1, 2), 2)


@pytest.mark.parametrize("field", ["z", "z_prime", "alpha", "beta"])
def test_bc_parameter_outside_half_integers(field):
    params = replace(BCZMeasureParams.specialized(PAIR_SP, 2, 2),
                     **{field: Fraction(1, 3)})
    with pytest.raises(ValueError, match="not a half-integer"):
        bc_z_measure(Partition((1,)), params)


# -- dual RSK ---------------------------------------------------------------------


def reference_dual_rsk_shape(matrix) -> Partition:
    """Entry-by-entry dual RSK on a 0/1 matrix of lists (the oracle).

    The column indices j of the 1 entries are row-inserted in
    lexicographic order of their positions, bumping the leftmost entry
    >= j into the next row.
    """
    from bisect import bisect_left
    rows: list[list[int]] = []
    for row in matrix:
        for j, bit in enumerate(row):
            if not bit:
                continue
            v = j + 1
            r = 0
            while True:
                if r == len(rows):
                    rows.append([v])
                    break
                idx = bisect_left(rows[r], v)
                if idx == len(rows[r]):
                    rows[r].append(v)
                    break
                rows[r][idx], v = v, rows[r][idx]
                r += 1
    return Partition(tuple(len(r) for r in rows))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def rng_word(seed: int, stream: int, index: int) -> int:
    """index-th 64-bit word of the stream, word by word: splitmix64 in
    counter mode, the stream key the mix of seed + stream * golden and word
    i the mix of key + (i+1) * golden.  The reference for random_bit_matrix
    and for the two words the inverse-CDF sample reads."""
    key = _splitmix64_mix((seed + stream * _GOLDEN) & _MASK64)
    return _splitmix64_mix((key + (index + 1) * _GOLDEN) & _MASK64)


def reference_random_bit_matrix(n, k, seed, stream) -> list[list[int]]:
    """The stream's bits taken one at a time, low bit of each word first."""
    def bits():
        index = 0
        while True:
            word = rng_word(seed, stream, index)
            index += 1
            for _ in range(64):
                yield word & 1
                word >>= 1
    stream_bits = bits()
    return [[next(stream_bits) for _ in range(k)] for _ in range(n)]


def pack(matrix) -> list[int]:
    """0/1 rows as the k-bit ints dual_rsk_shape takes (bit j-1 is column j)."""
    return [sum(bit << j for j, bit in enumerate(row)) for row in matrix]


def test_dual_rsk_examples():
    assert dual_rsk_shape(pack([[0, 0], [0, 0]])) == Partition()
    assert dual_rsk_shape(pack([[1, 1], [1, 1]])) == Partition((2, 2))
    assert dual_rsk_shape(pack([[1, 1, 1], [1, 1, 1]])) == Partition((3, 3))
    assert dual_rsk_shape(pack([[1, 0], [0, 1]])) == Partition((2,))
    assert dual_rsk_shape(pack([[0, 1], [1, 0]])) == Partition((1, 1))


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3)])
def test_dual_rsk_pushforward(n, k):
    table = measure_table(PAIR_GL, n, k)
    hist = {}
    for bits in product((0, 1), repeat=n * k):
        matrix = [list(bits[i * k:(i + 1) * k]) for i in range(n)]
        shape = dual_rsk_shape(pack(matrix))
        hist[shape] = hist.get(shape, 0) + 1
    assert sum(hist.values()) == 2 ** (n * k)
    for lam, prob in probabilities(table).items():
        assert hist.get(lam, 0) == prob * 2 ** (n * k)


@st.composite
def _biased_matrices(draw):
    """n x k 0/1 matrices, n and k in 0..70 (across the 64-bit word edge),
    each row all 0, all 1 or 1 with its own drawn probability."""
    n = draw(st.integers(0, 70))
    k = draw(st.integers(0, 70))
    matrix = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zeros", "ones", "biased")))
        if kind == "biased":
            density = draw(st.sampled_from((0.05, 0.3, 0.5, 0.7, 0.95)))
            seed = draw(st.integers(0, 2**32 - 1))
            rng = random.Random(seed)
            matrix.append([int(rng.random() < density) for _ in range(k)])
        else:
            matrix.append([int(kind == "ones")] * k)
    return matrix


@settings(max_examples=150, deadline=None)
@given(_biased_matrices())
def test_dual_rsk_matches_reference(matrix):
    assert dual_rsk_shape(pack(matrix)) == reference_dual_rsk_shape(matrix)


def test_dual_rsk_matches_reference_on_small_boxes():
    for n, k in ((1, 4), (3, 2), (2, 4)):
        for bits in product((0, 1), repeat=n * k):
            matrix = [bits[i * k:(i + 1) * k] for i in range(n)]
            assert dual_rsk_shape(pack(matrix)) == reference_dual_rsk_shape(matrix)


def _mixed_matrix(rng: random.Random) -> list[list[int]]:
    """A 0/1 matrix of 0..12 rows and 0, 1, 2, 7, 64 or 70 columns, its
    entries 1 with one drawn density (0 and 1 among them); a tenth of the
    matrices are all 0."""
    n = rng.randrange(13)
    k = rng.choice((0, 1, 2, 7, 64, 70))
    if rng.random() < 0.1:
        return [[0] * k for _ in range(n)]
    density = rng.choice((0.0, 0.3, 0.5, 0.9, 1.0))
    return [[int(rng.random() < density) for _ in range(k)] for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(count=st.sampled_from((0, 1, RSK_LANES - 1, RSK_LANES, RSK_LANES + 1,
                              2 * RSK_LANES + 3)),
       seed=st.integers(0, 2**32 - 1),
       batch_bits=st.sampled_from((RSK_BATCH_BITS, 1, 300, 5000)))
def test_dual_rsk_shapes_match_reference(count, seed, batch_bits):
    """Batches mix row counts and widths (with matrices of no rows, rows of
    no columns and all-0 matrices), cut by the lane count and, with a small
    batch_bits, by the bit budget."""
    from unittest import mock
    from skewhowe import ensembles

    rng = random.Random(seed)
    matrices = [_mixed_matrix(rng) for _ in range(count)]
    with mock.patch.object(ensembles, "RSK_BATCH_BITS", batch_bits):
        shapes = dual_rsk_shapes(iter([pack(m) for m in matrices]))
    assert shapes == [reference_dual_rsk_shape(m) for m in matrices]


# -- RNG and sampling ----------------------------------------------------------------


def test_rng_is_counter_based():
    # the first output of splitmix64 from the state 0
    assert _splitmix64_mix(_GOLDEN) == 0xE220A8397B1DCDAF
    assert rng_word(1, 2, 3) == rng_word(1, 2, 3)
    words = {rng_word(9, s, i) for s in range(4) for i in range(4)}
    assert len(words) == 16  # no collisions in a small window
    # the inverse-CDF draw reads a stream's first two words as two rows
    for seed in range(-10, 10):
        for stream in range(10):
            assert random_bit_matrix(2, 64, seed, stream) == [
                rng_word(seed, stream, 0), rng_word(seed, stream, 1)]
    matrix = random_bit_matrix(3, 5, seed=11, stream=0)
    assert matrix == random_bit_matrix(3, 5, seed=11, stream=0)
    assert matrix != random_bit_matrix(3, 5, seed=11, stream=1)


@pytest.mark.parametrize("n,k", [(0, 0), (0, 7), (4, 0), (3, 5), (1, 64),
                                 (2, 64), (7, 9), (13, 70), (50, 150)])
def test_random_bit_matrix_matches_reference(n, k):
    for stream in range(3):
        assert random_bit_matrix(n, k, 11, stream) == pack(
            reference_random_bit_matrix(n, k, 11, stream))


def test_sample_deterministic():
    assert sample(PAIR_GL, 2, 2, 0, 5) == []
    a = sample(PAIR_GL, 3, 4, 6, 42)
    b = sample(PAIR_GL, 3, 4, 6, 42)
    assert a == b
    assert all(lam.fits_in_box(3, 4) for lam in a)
    c = sample(PAIR_SO_PIN, 2, 2, 5, 13)
    assert c == sample(PAIR_SO_PIN, 2, 2, 5, 13)
    assert all(lam.fits_in_box(2, 2) for lam in c)


def test_gl_sample_frequencies_chi_square():
    count = 4000
    shapes = sample(PAIR_GL, 2, 2, count, 2024)
    table = measure_table(PAIR_GL, 2, 2)
    observed = {}
    for s in shapes:
        observed[s] = observed.get(s, 0) + 1
    chi2 = 0.0
    for lam, prob in probabilities(table).items():
        expected = float(prob) * count
        chi2 += (observed.get(lam, 0) - expected) ** 2 / expected
    # 5 degrees of freedom; the 0.999 quantile is about 20.5
    assert chi2 < 20.5, chi2


def _linear_scan_sample(pair, n, k, count, seed):
    """The first lam whose cumulative probability exceeds u, by a scan of
    Fraction comparisons."""
    cdf, acc = [], Fraction(0)
    for lam, prob in sorted(probabilities(measure_table(pair, n, k)).items()):
        acc += prob
        cdf.append((acc, lam))
    out = []
    for s in range(count):
        u = Fraction(rng_word(seed, s, 0) << 64 | rng_word(seed, s, 1), 1 << 128)
        out.append(next(lam for acc, lam in cdf if u < acc))
    return out


@pytest.mark.parametrize("pair", [PAIR_SO_PIN, PAIR_SP, PAIR_O_SO])
@pytest.mark.parametrize("n, k", [(0, 3), (1, 1), (2, 3), (3, 4)])
def test_bisected_sample_matches_linear_scan(pair, n, k):
    for seed in (0, 5):
        assert sample(pair, n, k, 40, seed) == _linear_scan_sample(pair, n, k, 40, seed)


def test_inverse_cdf_sample_frequencies():
    table = measure_table(PAIR_SP, 1, 2)
    count = 4000
    shapes = sample(PAIR_SP, 1, 2, count, 7)
    for lam, prob in probabilities(table).items():
        freq = sum(1 for s in shapes if s == lam) / count
        assert abs(freq - float(prob)) < 0.03


# -- most probable diagram -------------------------------------------------------------


def addable_corners(lam: Partition, n: int, k: int) -> list[int]:
    """1-based rows where a box can be added to lam while staying in k^n."""
    return [i for i in range(1, n + 1)
            if lam.part(i) < (k if i == 1 else min(k, lam.part(i - 1)))]


def removable_corners(lam: Partition) -> list[int]:
    """1-based rows where a box can be removed from lam leaving a partition."""
    return [i for i in range(1, len(lam.parts) + 1)
            if lam.part(i) > lam.part(i + 1)]


def with_row(lam: Partition, i: int, value: int) -> Partition:
    """lam with 1-based row i set to value (length grows as needed)."""
    rows = list(lam.padded(max(len(lam.parts), i)))
    rows[i - 1] = value
    return Partition(tuple(rows))


def test_most_probable_examples():
    assert most_probable_diagram(measure_table(PAIR_GL, 1, 2)) == Partition((1,))
    # tie between (1) and (2,1) at 4/16 resolves lexicographically
    assert most_probable_diagram(measure_table(PAIR_GL, 2, 2)) == Partition((1,))


def test_most_probable_is_local_max():
    for pair in PAIRS:
        lam = most_probable_diagram(measure_table(pair, 2, 3))
        w = unnormalized_weight(pair, 2, 3, lam)
        for row in addable_corners(lam, 2, 3):
            other = with_row(lam, row, lam.part(row) + 1)
            assert unnormalized_weight(pair, 2, 3, other) <= w
        for row in removable_corners(lam):
            other = with_row(lam, row, lam.part(row) - 1)
            assert unnormalized_weight(pair, 2, 3, other) <= w


def test_most_probable_beats_enumeration():
    boxes = [(1, 3), (2, 2), (2, 4), (3, 3), (0, 2), (2, 0), (0, 0)]
    cases = [(pair, n, k) for pair in PAIRS for n, k in boxes]
    # a steepest single-box ascent stopped at a local max on these
    cases += [(PAIR_GL, 4, 11), (PAIR_GL, 11, 4), (PAIR_GL, 5, 12)]
    for pair, n, k in cases:
        best = most_probable_diagram(measure_table(pair, n, k))
        w_best = unnormalized_weight(pair, n, k, best)
        table = {lam: unnormalized_weight(pair, n, k, lam)
                 for lam in enumerate_in_box(n, k)}
        w_max = max(table.values())
        assert w_best == w_max, (pair, n, k, best)
        ties = sorted(lam.parts for lam, w in table.items() if w == w_max)
        assert best.parts == ties[0]


def test_staircase_is_local_max_at_c_one():
    n = 8
    stair = Partition(tuple(n - i for i in range(1, n + 1)))
    for row in addable_corners(stair, n, n):
        assert _weight_ratio(PAIR_GL, n, n, stair, row, 1) <= 1
    for row in removable_corners(stair):
        assert _weight_ratio(PAIR_GL, n, n, stair, row, -1) <= 1


@st.composite
def _boxed(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    parts = sorted(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)),
                   reverse=True)
    return n, k, Partition(tuple(parts))


@given(st.sampled_from(PAIRS), _boxed())
@settings(max_examples=150, deadline=None)
def test_weight_ratio_matches_direct_quotient(pair, box):
    n, k, lam = box
    w = unnormalized_weight(pair, n, k, lam)
    for row in addable_corners(lam, n, k):
        new = with_row(lam, row, lam.part(row) + 1)
        assert _weight_ratio(pair, n, k, lam, row, 1) == \
            Fraction(unnormalized_weight(pair, n, k, new), w)
    for row in removable_corners(lam):
        new = with_row(lam, row, lam.part(row) - 1)
        assert _weight_ratio(pair, n, k, lam, row, -1) == \
            Fraction(unnormalized_weight(pair, n, k, new), w)


# every side of the two tables; in a pair's weight ratio the O-class factors
# of the two sides cancel (lam gains full length as its complement conjugate
# loses it), so only one side alone shows them
_SIDES = sorted({side for row in (*VERIFY_ROWS.values(), *PAIR_ROWS.values())
                 for side in (row.g1, row.g2)}, key=repr)


@given(st.sampled_from(_SIDES), _boxed(), st.sampled_from([1, -1]))
@settings(max_examples=150, deadline=None)
def test_side_ratio_matches_class_dimensions(side, box, delta):
    rank, k, lam = box
    coords = doubled_coordinates(lam, rank, side.shift)
    rows = addable_corners(lam, rank, k) if delta > 0 else removable_corners(lam)
    for row in rows:
        new = with_row(lam, row, lam.part(row) + delta)
        assert Fraction(*_side_ratio(side, coords, row - 1, 2 * delta)) == \
            Fraction(weyl_dimension(side, rank, new), weyl_dimension(side, rank, lam))


# -- exterior powers and binomialization --------------------------------------------------


def exterior_power_measure(lam, n: int, k: int, m: int) -> Fraction:
    """Measure at fixed box count m: dim x dim / binom(nk, m), GL pair."""
    lam = Partition.of(lam)
    if sum(lam.parts) != m:
        raise ValueError(f"|{lam}| != {m}")
    return Fraction(unnormalized_weight(PAIR_GL, n, k, lam), comb(n * k, m))


def check_binomialization(n: int, k: int) -> None:
    """Assert mu(lam) 2^(nk) = binom(nk, |lam|) mu_by_size(lam) pointwise,
    and sum(dim x dim, |lam| = m) = binom(nk, m) for every m."""
    by_size = {}
    for lam, prob in probabilities(measure_table(PAIR_GL, n, k)).items():
        m = sum(lam.parts)
        by_size[m] = by_size.get(m, 0) + unnormalized_weight(PAIR_GL, n, k, lam)
        assert prob * 2 ** (n * k) == comb(n * k, m) * \
            exterior_power_measure(lam, n, k, m), (n, k, lam)
    assert by_size == {m: comb(n * k, m) for m in range(n * k + 1)}, (n, k)


def test_exterior_power_examples():
    assert exterior_power_measure(Partition(), 2, 3, 0) == 1
    assert exterior_power_measure(Partition((1, 1)), 2, 2, 2) == Fraction(3, 6)
    assert exterior_power_measure(Partition((2, 2)), 2, 2, 4) == 1
    with pytest.raises(ValueError):
        exterior_power_measure(Partition((1,)), 2, 2, 2)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_binomialization(n, k):
    check_binomialization(n, k)


# -- q-measure normalizations ------------------------------------------------------------


def q_measure_normalization(variant: str, n: int, k: int) -> tuple[QLaurent, QLaurent]:
    """The q-measure numerator summed over the box, and its claimed closed
    form.

    Variant "A" is a proven identity and is asserted here; variants
    "A2"/"A3" are conjectural and only returned.  The closed forms are
    stated for n >= k, so smaller n swaps the box first (the totals are
    symmetric under transposing the box).
    """
    if n < k:
        n, k = k, n
    total = QLaurent.of(0)
    for lam in enumerate_in_box(n, k):
        comp = lam.complement(n, k)
        mu = comp.conjugate()
        product = qdim(SIDE_GL, n, lam)  # times the GL_k q-dimension at mu
        for m, e in qdim(SIDE_GL, k, mu).exps.items():
            product.exps[m] = product.exps.get(m, 0) + e
        product.shift += mu.weighted_size + {
            "A": lam.weighted_size, "A2": comp.weighted_size,
            "A3": comp.weighted_size + sum(mu.parts)}[variant]
        total = total + product.expand()
    claimed = _claimed_normalization(variant, n, k)
    assert variant != "A" or total == claimed, (n, k, str(total), str(claimed))
    return total, claimed


def _claimed_normalization(variant: str, n: int, k: int) -> QLaurent:
    if variant == "A":
        pyramidal = (k - 1) * k * (2 * k - 1) // 6
        out = QProduct(2**k, pyramidal + (n - k) * comb(k, 2))
        for i in range(1, k):
            power_plus_one(out, i, 2 * (k - i))
        for j in range(k + 1, n + 1):
            for i in range(1, k + 1):
                power_plus_one(out, j - i)
        return out.expand()
    if variant == "A2":
        out = QProduct(2)
        for i in range(1, k + 2):
            power_plus_one(out, i, k + 2 - i)
        for j in range(k + 1, n + 1):
            for i in range(1, k + 1):
                power_plus_one(out, j + 2 - i)
        return out.expand()
    out = QProduct()
    for i in range(1, 2 * k + 1):
        power_plus_one(out, i, k - abs(k - i))
    for j in range(k + 1, n + 1):
        for i in range(1, k + 1):
            power_plus_one(out, j + k - i)
    return out.expand()


def test_q_normalization_proven_variant():
    for n, k in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]:
        total, _ = q_measure_normalization("A", n, k)
        # at q = 1 the normalization is the total dimension 2^(nk)
        assert total.at_one() == 2 ** (n * k)


# str(total), str(claimed) and total == claimed of the conjectured variants
# on the boxes with n >= k; the transposed box gives the same row
_CONJECTURE_PINS = {
    ('A2', 1, 1): (
        '2',
        '2 + 4*q + 4*q^2 + 4*q^3 + 2*q^4',
        False),
    ('A2', 2, 1): (
        '2 + 2*q',
        '2 + 4*q + 4*q^2 + 6*q^3 + 6*q^4 + 4*q^5 + 4*q^6 + 2*q^7',
        False),
    ('A2', 2, 2): (
        '2 + 4*q + 4*q^2 + 4*q^3 + 2*q^4',
        '2 + 6*q + 10*q^2 + 16*q^3 + 20*q^4 + 20*q^5 + 20*q^6 + 16*q^7 + '
        '10*q^8 + 6*q^9 + 2*q^10',
        False),
    ('A2', 3, 1): (
        '2 + 2*q + 2*q^2 + 2*q^3',
        '2 + 4*q + 4*q^2 + 6*q^3 + 8*q^4 + 8*q^5 + 8*q^6 + 8*q^7 + 6*q^8 '
        '+ 4*q^9 + 4*q^10 + 2*q^11',
        False),
    ('A2', 3, 2): (
        '2 + 4*q + 6*q^2 + 10*q^3 + 10*q^4 + 10*q^5 + 10*q^6 + 6*q^7 + '
        '4*q^8 + 2*q^9',
        '2 + 6*q + 10*q^2 + 18*q^3 + 28*q^4 + 36*q^5 + 46*q^6 + 54*q^7 + '
        '56*q^8 + 56*q^9 + 54*q^10 + 46*q^11 + 36*q^12 + 28*q^13 + '
        '18*q^14 + 10*q^15 + 6*q^16 + 2*q^17',
        False),
    ('A2', 3, 3): (
        '2 + 4*q + 8*q^2 + 16*q^3 + 22*q^4 + 32*q^5 + 42*q^6 + 48*q^7 + '
        '54*q^8 + 56*q^9 + 54*q^10 + 48*q^11 + 42*q^12 + 32*q^13 + '
        '22*q^14 + 16*q^15 + 8*q^16 + 4*q^17 + 2*q^18',
        '2 + 8*q + 18*q^2 + 36*q^3 + 62*q^4 + 92*q^5 + 128*q^6 + 164*q^7 '
        '+ 192*q^8 + 212*q^9 + 220*q^10 + 212*q^11 + 192*q^12 + 164*q^13 '
        '+ 128*q^14 + 92*q^15 + 62*q^16 + 36*q^17 + 18*q^18 + 8*q^19 + '
        '2*q^20',
        False),
    ('A3', 1, 1): (
        '1 + q',
        '1 + q',
        True),
    ('A3', 2, 1): (
        '1 + q + q^2 + q^3',
        '1 + q + q^2 + q^3',
        True),
    ('A3', 2, 2): (
        '1 + q + 2*q^2 + 3*q^3 + 2*q^4 + 3*q^5 + 2*q^6 + q^7 + q^8',
        '1 + q + 2*q^2 + 3*q^3 + 2*q^4 + 3*q^5 + 2*q^6 + q^7 + q^8',
        True),
    ('A3', 3, 1): (
        '1 + q + q^2 + 2*q^3 + q^4 + q^5 + q^6',
        '1 + q + q^2 + 2*q^3 + q^4 + q^5 + q^6',
        True),
    ('A3', 3, 2): (
        '1 + q + 2*q^2 + 4*q^3 + 4*q^4 + 6*q^5 + 7*q^6 + 7*q^7 + 7*q^8 + '
        '7*q^9 + 6*q^10 + 4*q^11 + 4*q^12 + 2*q^13 + q^14 + q^15',
        '1 + q + 2*q^2 + 4*q^3 + 4*q^4 + 6*q^5 + 7*q^6 + 7*q^7 + 7*q^8 + '
        '7*q^9 + 6*q^10 + 4*q^11 + 4*q^12 + 2*q^13 + q^14 + q^15',
        True),
    ('A3', 3, 3): (
        '1 + q + 2*q^2 + 5*q^3 + 6*q^4 + 10*q^5 + 14*q^6 + 18*q^7 + '
        '23*q^8 + 28*q^9 + 33*q^10 + 35*q^11 + 40*q^12 + 40*q^13 + '
        '40*q^14 + 40*q^15 + 35*q^16 + 33*q^17 + 28*q^18 + 23*q^19 + '
        '18*q^20 + 14*q^21 + 10*q^22 + 6*q^23 + 5*q^24 + 2*q^25 + q^26 + '
        'q^27',
        '1 + q + 2*q^2 + 5*q^3 + 6*q^4 + 10*q^5 + 14*q^6 + 18*q^7 + '
        '23*q^8 + 28*q^9 + 33*q^10 + 35*q^11 + 40*q^12 + 40*q^13 + '
        '40*q^14 + 40*q^15 + 35*q^16 + 33*q^17 + 28*q^18 + 23*q^19 + '
        '18*q^20 + 14*q^21 + 10*q^22 + 6*q^23 + 5*q^24 + 2*q^25 + q^26 + '
        'q^27',
        True),
}


@pytest.mark.parametrize("variant", ["A2", "A3"])
@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 4) for k in range(1, 4)])
def test_q_normalization_conjectures_pinned(variant, n, k):
    total, claimed = q_measure_normalization(variant, n, k)
    assert (str(total), str(claimed), total == claimed) == \
        _CONJECTURE_PINS[variant, max(n, k), min(n, k)]
