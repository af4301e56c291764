from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from skewhowe import exact
from skewhowe.exact import (ExactDivisionError, QLaurent, QProduct,
                            catalan_triangle_q, q_binomial)

from test_ensembles import (SqrtPiValue, doubled_half_integer,
                            gamma_half_integer, reciprocal_gamma_regularized)


def q_int(k: int) -> QLaurent:
    """[k]_q = 1 + q + ... + q^(k-1); zero for k <= 0."""
    return QLaurent(0, (1,) * max(k, 0))


def q_factorial(k: int) -> QLaurent:
    """[k]_q! = [1]_q [2]_q ... [k]_q, expanded from its QProduct."""
    return QProduct().q_factorial(k).expand()


def power(p: QLaurent, n: int) -> QLaurent:
    """p^n for n >= 0, as n products."""
    return reduce(mul, [p] * n, QLaurent.one())


def one_minus_q_to(m: int) -> QLaurent:
    """1 - q^m for m >= 1."""
    return QLaurent(0, (1,) + (0,) * (m - 1) + (-1,))


def test_qlaurent_canonical_form():
    p = QLaurent(-2, (0, 1, 0, 3, 0))
    assert p.min_exp == -1
    assert p.coeffs == (1, 0, 3)
    assert QLaurent(5, (0, 0)).is_zero
    assert QLaurent(5, (0, 0)).min_exp == 0


def test_qlaurent_arithmetic():
    p = q_int(3)             # 1 + q + q^2
    q = QLaurent(-1, (2,))
    assert (p + q).coeffs == (2, 1, 1, 1)
    assert (p - p).is_zero
    assert (p * q).min_exp == -1
    assert p(1) == 3
    assert p.at_one() == p(1)  # q = 1 evaluation is the coefficient sum
    assert p(Fraction(1, 2)) == Fraction(7, 4)
    assert power(p, 2).at_one() == 9
    assert (p * QLaurent(4, (1,))).min_exp == 4
    assert str(q_int(2)) == "1 + q"


def test_qlaurent_json_roundtrip():
    p = QLaurent(-3, (5, 0, -2, 1))
    assert p.to_json()["coeffs"] == ["5", "0", "-2", "1"]


def test_q_binomial_examples():
    assert q_binomial(2, 1) == QLaurent(0, (1, 1))
    assert q_binomial(4, 2) == QLaurent(0, (1, 1, 2, 1, 1))
    assert q_binomial(3, 5).is_zero
    assert q_binomial(3, -1).is_zero
    assert all(c >= 0 for c in q_binomial(9, 4).coeffs)


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_q_binomial_symmetry_and_pascal(n, m):
    if m <= n:
        assert q_binomial(n, m) == q_binomial(n, n - m)
    if n >= 1:
        lhs = q_binomial(n, m)
        rhs = q_binomial(n - 1, m - 1) + q_binomial(n - 1, m) * QLaurent(m, (1,))
        if 0 <= m <= n:
            assert lhs == rhs


def _below_diagonal_paths(n, k):
    def rec(x, y):
        if (x, y) == (n, k):
            return 1
        total = 0
        if x < n:
            total += rec(x + 1, y)
        if y < k and y + 1 <= x:
            total += rec(x, y + 1)
        return total

    return rec(0, 0) if k <= n else 0


def test_catalan_triangle_examples():
    assert catalan_triangle_q(5, 0) == QLaurent.one()
    assert catalan_triangle_q(2, 1) == QLaurent(0, (1, 1))
    assert catalan_triangle_q(8, 4).at_one() == 275
    assert catalan_triangle_q(-1, 0).is_zero
    assert catalan_triangle_q(3, 4).is_zero
    assert catalan_triangle_q(3, -2).is_zero


def test_catalan_triangle_counts_paths():
    for n in range(9):
        for k in range(n + 1):
            assert catalan_triangle_q(n, k).at_one() == _below_diagonal_paths(n, k)


def test_q_factorial_memo():
    assert q_factorial(0) == QLaurent.one()
    assert q_factorial(4) == q_int(1) * q_int(2) * q_int(3) * q_int(4)
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_exact_division():
    p = q_int(6) * q_int(4)
    assert p.divide_exact(q_int(4)) == q_int(6)
    with pytest.raises(ExactDivisionError):
        q_int(3).divide_exact(q_int(2))
    with pytest.raises(ZeroDivisionError):
        q_int(3).divide_exact(QLaurent.of(0))


def test_halfint():
    assert doubled_half_integer(Fraction(5, 2)) == 5
    assert doubled_half_integer(Fraction(-1, 2)) == -1
    assert doubled_half_integer(Fraction(6, 2)) == 6
    assert doubled_half_integer(3) == 6
    for bad in (Fraction(1, 3), 0.5, "1/2"):
        with pytest.raises(ValueError):
            doubled_half_integer(bad)


def test_gamma_half_integer_examples():
    assert gamma_half_integer(1) == SqrtPiValue(Fraction(1), 0)
    assert gamma_half_integer(Fraction(1, 2)) == SqrtPiValue(Fraction(1), 1)
    assert gamma_half_integer(Fraction(5, 2)) == SqrtPiValue(Fraction(3, 4), 1)
    assert gamma_half_integer(4) == SqrtPiValue(Fraction(6), 0)
    assert gamma_half_integer(Fraction(-1, 2)) == SqrtPiValue(Fraction(-2), 1)
    with pytest.raises(ValueError):
        gamma_half_integer(0)
    with pytest.raises(ValueError):
        gamma_half_integer(-3)


def test_gamma_recurrence():
    for doubled in range(1, 21):
        t = Fraction(doubled, 2)
        lhs = gamma_half_integer(t + 1)
        rhs = SqrtPiValue(t) * gamma_half_integer(t)
        assert lhs == rhs


def test_sqrt_pi_value_ops():
    a = SqrtPiValue(Fraction(3, 4), 1)
    b = SqrtPiValue(Fraction(2), 1)
    assert (a * b).sqrt_pi_power == 2
    assert a.ratio_to(b) == Fraction(3, 8)
    with pytest.raises(ValueError):
        a.ratio_to(SqrtPiValue(Fraction(1), 0))


def test_reciprocal_gamma_regularized():
    v, order = reciprocal_gamma_regularized(3)
    assert order == 0 and v == SqrtPiValue(Fraction(1, 2), 0)
    v, order = reciprocal_gamma_regularized(0)
    assert order == 1 and v == SqrtPiValue(Fraction(1), 0)
    v, order = reciprocal_gamma_regularized(-2)
    assert order == 1 and v == SqrtPiValue(Fraction(2), 0)
    v, order = reciprocal_gamma_regularized(Fraction(-1, 2))
    assert order == 0 and v.sqrt_pi_power == -1


def test_q_power_plus_one():
    assert q_power_plus_one(0) == QLaurent.of(2)
    assert q_power_plus_one(3) == QLaurent(0, (1, 0, 0, 1))
    assert q_power_plus_one_product([0]) == QLaurent.of(2)
    assert q_power_plus_one_product([3, 0]) == QLaurent(0, (2, 0, 0, 2))
    assert q_power_plus_one_product([]) == QLaurent.one()


def qlaurents():
    return st.builds(
        QLaurent,
        st.integers(-4, 4),
        st.lists(st.integers(-9, 9), min_size=0, max_size=5))


@given(qlaurents(), qlaurents(), qlaurents())
@settings(max_examples=80, deadline=None)
def test_qlaurent_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QLaurent.of(0) == a
    assert a * QLaurent.one() == a
    assert (a - a).is_zero


@given(qlaurents(), qlaurents())
@settings(max_examples=60, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if not b.is_zero:
        assert (a * b).divide_exact(b) == a


@given(qlaurents(), st.integers(1, 7).map(Fraction))
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_homomorphism(a, q):
    b = q_int(3)
    assert (a * b)(q) == a(q) * b(q)
    assert (a + b)(q) == a(q) + b(q)


def test_q_binomial_is_the_factorial_quotient():
    assert q_binomial(17, 6) == q_factorial(17).divide_exact(
        q_factorial(6) * q_factorial(11))


# -- the Z[q] kernel: Kronecker paths against the schoolbook loops ------

def _mul_schoolbook(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _divide_schoolbook(num, div) -> list[int] | None:
    """The quotient num / div for len(num) >= len(div), or None if inexact."""
    rem = list(num)
    n, m = len(rem), len(div)
    lead = div[-1]
    quot = [0] * (n - m + 1)
    for i in range(n - m, -1, -1):
        c = rem[i + m - 1]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            return None
        quot[i] = q
        for j, d in enumerate(div):
            rem[i + j] -= q * d
    if any(rem):
        return None
    return quot


def wide_qlaurents(min_len=1):
    """Nonzero Laurent polynomials with signed coefficients of up to about
    300 bits, from 1 to 48 coefficients long."""
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40),
                      st.integers(-(1 << 300), 1 << 300))
    coeffs = st.integers(1, 48).flatmap(
        lambda n: st.lists(coeff, min_size=n, max_size=n))
    poly = st.builds(QLaurent, st.integers(-30, 30), coeffs)
    return poly.filter(lambda p: len(p.coeffs) >= min_len)


@given(wide_qlaurents(), wide_qlaurents())
@settings(max_examples=100, deadline=None)
def test_kronecker_multiply_matches_schoolbook(a, b):
    expected = _mul_schoolbook(a.coeffs, b.coeffs)
    assert exact._mul_kronecker(a.coeffs, b.coeffs) == expected
    assert a * b == QLaurent(a.min_exp + b.min_exp, expected)


@given(wide_qlaurents(), wide_qlaurents())
@settings(max_examples=100, deadline=None)
def test_kronecker_division_inverts_multiplication(a, b):
    product = a * b
    assert product.divide_exact(b) == a
    assert product.divide_exact(a) == b
    quot = exact._divide_kronecker(product.coeffs, b.coeffs)
    assert quot == _divide_schoolbook(product.coeffs, b.coeffs)
    assert quot == list(a.coeffs)


@given(wide_qlaurents(), wide_qlaurents(min_len=2), st.data())
@settings(max_examples=100, deadline=None)
def test_perturbed_product_is_not_divisible(a, b, data):
    # b has two or more terms, so it divides no nonzero monomial
    coeffs = list((a * b).coeffs)
    i = data.draw(st.integers(0, len(coeffs) - 1))
    coeffs[i] += data.draw(st.integers(1, 1 << 200) | st.integers(-(1 << 200), -1))
    perturbed = QLaurent((a * b).min_exp, coeffs)
    assert exact._divide_kronecker(perturbed.coeffs, b.coeffs) is None
    assert _divide_schoolbook(perturbed.coeffs, b.coeffs) is None
    with pytest.raises(ExactDivisionError):
        perturbed.divide_exact(b)


def reference_digits(value, length, slot):
    """value's balanced base-2^(8*slot) digits, one at a time."""
    base = 1 << (8 * slot)
    digits = []
    for _ in range(length):
        digit = value % base
        if digit >= base // 2:
            digit -= base
        digits.append(digit)
        value = (value - digit) // base
    return digits if value == 0 else None


@given(st.sampled_from([1, 2, 3, 4, 8, 9]), st.data())
@example(1, None)
@settings(max_examples=100, deadline=None)
def test_unpack_matches_digit_by_digit(slot, data):
    half = 1 << (8 * slot - 1)
    if data is None:  # the extreme digits
        digits = [-half, half - 1, -half, 0, half - 1]
    else:
        digits = data.draw(st.lists(st.integers(-half, half - 1), min_size=1,
                                    max_size=40))
    value = sum(d << (8 * slot * i) for i, d in enumerate(digits))
    assert exact._unpack(value, len(digits), slot) == digits
    assert reference_digits(value, len(digits), slot) == digits
    # one past the largest or the smallest value of len(digits) digits
    ones = sum(1 << (8 * slot * i) for i in range(len(digits)))
    for over in ((half - 1) * ones + 1, -half * ones - 1):
        assert exact._unpack(over, len(digits), slot) is None
        assert reference_digits(over, len(digits), slot) is None


def test_division_proof_rejects_wrapped_quotient_digits():
    # Q = [10]_q^8 has coefficients near 2^23, but N = (1 - q^10)^8 and
    # D = (1 - q)^8 have 7-bit ones, so the first slot is 2 bytes: Q(X)
    # still fits in its slots there, with carries, and only the proof's
    # bound on the unpacked digits sends the division to a wider slot.
    quotient = power(q_int(10), 8)
    divisor = power(one_minus_q_to(1), 8)
    whole = power(one_minus_q_to(10), 8)
    assert exact._bits(quotient.coeffs) > 16
    packed = exact._pack(whole.coeffs, 2) // exact._pack(divisor.coeffs, 2)
    assert exact._unpack(packed, len(quotient.coeffs), 2) is not None
    assert exact._divide_kronecker(whole.coeffs, divisor.coeffs) == list(
        quotient.coeffs)
    assert whole.divide_exact(divisor) == quotient


def _cyclotomic(n, primes):
    """Phi_n as the Moebius product of q^d - 1 over the divisors d of n."""
    from itertools import combinations
    from math import prod
    num = den = QLaurent.one()
    own = [p for p in primes if n % p == 0]
    for r in range(len(own) + 1):
        for subset in combinations(own, r):
            factor = QLaurent(n // prod(subset), (1,)) - 1
            if r % 2:
                den = den * factor
            else:
                num = num * factor
    return num.divide_exact(den)


def _split_2310():
    """q^2310 - 1 = Q * C: Q over the d | 2310 with an odd number of prime
    factors, C over the rest."""
    from itertools import combinations
    from math import prod
    primes = (2, 3, 5, 7, 11)
    odd = even = QLaurent.one()
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            phi = _cyclotomic(prod(subset), primes)
            if r % 2:
                odd = odd * phi
            else:
                even = even * phi
    return QLaurent(2310, (1,)) - 1, odd, even


def test_division_retries_when_the_quotient_outgrows_the_first_slot():
    whole, quotient, cofactor = _split_2310()
    assert len(quotient.coeffs) == 1156
    assert max(quotient.coeffs) == 1325224277784
    assert set(whole.coeffs) == {-1, 0, 1}
    # the first slot only fits quotients of up to max(bits(N) - bits(D), 0) + 1
    # bits
    first = max(exact._bits(whole.coeffs) - exact._bits(cofactor.coeffs), 0) + 1
    assert exact._bits(quotient.coeffs) > first
    assert whole.divide_exact(cofactor) == quotient
    assert exact._divide_kronecker(whole.coeffs, cofactor.coeffs) == list(
        quotient.coeffs)


def test_non_multiple_of_the_2310_cofactor_raises():
    whole, _, cofactor = _split_2310()
    # each is nonzero at q = 1, where the factor q - 1 of the cofactor vanishes
    for near in (whole + QLaurent(7, (1,)), whole * 3 - 1, whole + 2):
        with pytest.raises(ExactDivisionError):
            near.divide_exact(cofactor)


# -- the q-product kernel against the dense products it replaced: each
# factor expanded and multiplied in as a QLaurent, then one exact division --

def q_power_plus_one(a: int) -> QLaurent:
    """q^a + 1 (a >= 0), densely."""
    if a == 0:
        return QLaurent.of(2)
    return QLaurent(0, (1,) + (0,) * (a - 1) + (1,))


def q_power_plus_one_product(exponents) -> QLaurent:
    """prod over a of (q^a + 1) for the given exponents (each a >= 0)."""
    out = QProduct()
    for a in exponents:
        out.power_plus_one(a)
    return out.expand()


def dense_q_factorial(k: int) -> QLaurent:
    out = QLaurent.one()
    for m in range(1, k + 1):
        out = out * q_int(m)
    return out


def dense_product(ints=(), factorials=(), plus_ones=()) -> QLaurent:
    """prod [m]_q * prod [m]_q! * prod (1 + q^a), densely."""
    out = QLaurent.one()
    for m in ints:
        out = out * q_int(m)
    for m in factorials:
        out = out * dense_q_factorial(m)
    for a in plus_ones:
        out = out * q_power_plus_one(a)
    return out


def kernel_product(num, den) -> QProduct:
    """The QProduct of num / den, each an (ints, factorials, plus_ones)."""
    out = QProduct()
    for parts, e in ((num, 1), (den, -1)):
        ints, factorials, plus_ones = parts
        out.q_ints(ints, e)
        for m in factorials:
            out.q_factorial(m, e)
        for a in plus_ones:
            out.power_plus_one(a, e)
    return out


_FACTORS = st.tuples(st.lists(st.integers(1, 12), max_size=4),
                     st.lists(st.integers(0, 7), max_size=3),
                     st.lists(st.integers(0, 6), max_size=3))
# a denominator's 1 + q^a has a >= 1: 1 + q^0 = 2 there is not in Z[q]
_DEN_FACTORS = st.tuples(st.lists(st.integers(1, 12), max_size=4),
                         st.lists(st.integers(0, 7), max_size=3),
                         st.lists(st.integers(1, 6), max_size=3))


def _joined(a, b):
    return tuple(list(x) + list(y) for x, y in zip(a, b))


@given(_FACTORS, _DEN_FACTORS, st.integers(-5, 5))
# 1 + q^a alone: one division by 1 - q^a at degree 2a < a^2, so a residue
# classes of at most three terms each
@example(([], [], [3]), ([], [], []), 0)
@example(([], [], [6]), ([], [], []), 1)
@example(([], [], [64]), ([], [], []), -2)
@settings(max_examples=200, deadline=None)
def test_q_product_kernel_matches_dense_path(quotient, den, shift):
    # the numerator holds every denominator factor, so the ratio is a
    # polynomial; both sides cancel it differently
    num = _joined(quotient, den)
    want = dense_product(*num).divide_exact(dense_product(*den))
    assert want == dense_product(*quotient)
    kernel = kernel_product(num, den)
    assert kernel.expand() == want
    shifted = QProduct(kernel.const, shift)
    shifted.exps.update(kernel.exps)
    assert shifted.expand() == want * QLaurent(shift, (1,))


@given(_FACTORS, _DEN_FACTORS, st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_q_product_kernel_raises_like_dense_path(num, den, extra):
    # an unmatched denominator factor: the kernel raises exactly when the
    # dense division does
    den = _joined(den, ([extra], [], []))
    try:
        want = dense_product(*num).divide_exact(dense_product(*den))
    except ExactDivisionError:
        want = ExactDivisionError
    try:
        got = kernel_product(num, den).expand()
    except ExactDivisionError:
        got = ExactDivisionError
    assert got == want


@given(_FACTORS, st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_q_product_kernel_rejects_non_multiples(num, m):
    # [m]_q has the cyclotomic factor Phi_m, which no factor of index below
    # m holds: a denominator [m]_q over such a numerator cannot divide
    ints, factorials, plus_ones = num
    num = ([i for i in ints if i < m], [f for f in factorials if f < m],
           [a for a in plus_ones if 2 * a < m])
    with pytest.raises(ExactDivisionError):
        kernel_product(num, ([m], [], [])).expand()


def test_q_product_kernel_edge_cases():
    assert QProduct().expand() == QLaurent.one()
    assert QProduct(3, -2).expand() == QLaurent(-2, (3,))
    assert QProduct().q_ints([4]).q_ints([4], -1).exps == {4: 0, 1: 0}
    for e in (1, -1):
        with pytest.raises(ValueError):
            QProduct().q_ints([0], e)
    with pytest.raises(ValueError):
        QProduct().q_factorial(-1)
    with pytest.raises(ValueError):
        QProduct().power_plus_one(-1)
    # (1 + q^0) = 2 in the denominator is not in Z[q], whatever the constant
    for const in (3, 4):
        with pytest.raises(ValueError):
            QProduct(const).power_plus_one(0, -1)
    assert QProduct(3).power_plus_one(0, 2).expand() == QLaurent.of(12)
    with pytest.raises(ExactDivisionError):
        QProduct().q_ints([2], -1).expand()  # a constant over 1 + q
    with pytest.raises(ExactDivisionError):  # at once: no loop over m classes
        QProduct().q_ints([10**7], -1).expand()


@given(_FACTORS, _DEN_FACTORS, st.booleans(), st.integers(-3, 3),
       st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_q_product_at_one_is_its_expansion_at_one(quotient, den, joined,
                                                  const, shift):
    # a joined numerator holds every denominator factor, so the product
    # expands; any other may not, and then there is nothing to compare
    product = kernel_product(_joined(quotient, den) if joined else quotient,
                             den)
    product.const, product.shift = const, shift
    try:
        poly = product.expand()
    except ExactDivisionError:
        assert not joined
        return
    assert product.at_one() == poly.at_one()


def test_q_product_at_one_raises_off_the_integers():
    with pytest.raises(ExactDivisionError):
        QProduct().q_ints([3]).q_ints([2], -1).at_one()  # [3]/[2] is 3/2
    assert QProduct(2).q_ints([4]).q_ints([2], -1).at_one() == 4


def _written_directly(product, op):
    kind, a = op
    if kind == "int":
        return product.q_ints([a + 1])
    if kind == "factorial":
        return product.q_factorial(a)
    return product.power_plus_one(a)


def _written_as_q_ints(product, op):
    kind, a = op
    if kind == "int":
        return product.q_ints([a + 1])
    if kind == "factorial":
        return product.q_ints(range(1, a + 1))
    if a == 0:
        product.const *= 2
        return product
    return product.q_ints([2 * a]).q_ints([a], -1)


_PRODUCT_OPS = st.lists(st.tuples(st.sampled_from(["int", "factorial", "plus"]),
                                  st.integers(0, 6)), max_size=5)


@given(_PRODUCT_OPS, st.integers(0, 5), st.lists(st.integers(1, 9), max_size=2),
       st.integers(-2, 2), st.integers(-3, 3),
       st.sampled_from([None, "exponent", "const", "shift"]), st.integers(1, 9))
@example([], 0, [3], 1, 0, None, 1)  # a cancelled factor leaves zero entries
@example([("plus", 2)], 0, [], 0, 0, "shift", 1)  # two zero constants
@settings(max_examples=300, deadline=None)
def test_q_product_eq_is_equality_of_expansions(ops, turn, cancelled, const,
                                                shift, tweak, m):
    # b writes a's factors another way, in another order, with cancelled
    # pairs; then differs from a in at most one exponent, the constant or
    # the shift.  Every product here is a polynomial.
    a = QProduct(const, shift)
    for op in ops:
        _written_directly(a, op)
    b = QProduct(const, shift)
    for op in reversed(ops[turn:] + ops[:turn]):
        _written_as_q_ints(b, op)
    for c in cancelled:
        b.q_ints([c]).q_ints([c], -1)
    if tweak == "exponent":
        b.exps[m] = b.exps.get(m, 0) + 1
    elif tweak == "const":
        b.const += 1
    elif tweak == "shift":
        b.shift += 1
    assert (a == b) is (b == a) is (a.expand() == b.expand())
    if tweak is None:
        assert a == b


@pytest.mark.parametrize("n", range(13))
def test_q_combinatorics_match_dense_path(n):
    assert q_factorial(n) == dense_q_factorial(n)
    for m in range(n + 1):
        assert q_binomial(n, m) == dense_q_factorial(n).divide_exact(
            dense_q_factorial(m) * dense_q_factorial(n - m))
        assert catalan_triangle_q(n, m) == (
            dense_q_factorial(n + m) * q_int(n - m + 1)).divide_exact(
            dense_q_factorial(m) * dense_q_factorial(n + 1))
    assert q_power_plus_one_product(range(n)) == dense_product(plus_ones=range(n))
