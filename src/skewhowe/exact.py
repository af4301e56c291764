"""Exact arithmetic kernel.

Arbitrary-precision integers and rationals, Laurent polynomials in q,
the q-product kernel that holds every product formula factored ([k]_q
and [k]_q! are its factors), and the q-binomials and triangle Catalan
numbers built on it.

Everything here is exact: no floats, no modular tricks.  QLaurent and the
other values are immutable after construction and safe to share across
threads; a QProduct is mutable and belongs to the caller that fills it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from operator import sub


def rational_to_json(r: Fraction) -> dict:
    return {"num": str(r.numerator), "den": str(r.denominator)}


class ExactDivisionError(ArithmeticError):
    """Raised when a division that an identity makes exact leaves a nonzero
    remainder, or an exact identity fails outright (a measure table's
    weights that do not sum to 2^N): a falsified identity."""


class QLaurent:
    """Laurent polynomial in q with arbitrary-precision integer coefficients.

    Stored densely on a contiguous exponent window: ``coeffs[i]`` is the
    coefficient of q^(min_exp + i).  Canonical form: leading and trailing
    coefficients are nonzero unless the polynomial is zero (zero is the
    empty window with min_exp = 0).
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs):
        coeffs = list(coeffs)
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __setattr__(self, *args):
        raise AttributeError("QLaurent is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> "QLaurent":
        return _ONE

    @staticmethod
    def of(value) -> "QLaurent":
        if isinstance(value, QLaurent):
            return value
        if isinstance(value, int):
            return QLaurent(0, (value,))
        raise TypeError(f"cannot coerce {value!r} to QLaurent")

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def at_one(self) -> int:
        """Evaluate at q = 1 (the sum of the coefficients)."""
        return sum(self.coeffs)

    def __call__(self, q):
        """Evaluate at an exact rational or integer point q != 0."""
        q = Fraction(q)
        if q == 0 and self.min_exp < 0:
            raise ZeroDivisionError("negative exponents at q = 0")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc * q**self.min_exp

    def has_nonnegative_coeffs(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "QLaurent":
        other = QLaurent.of(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return QLaurent(lo, out)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QLaurent":
        return self + (-QLaurent.of(other))

    def __mul__(self, other) -> "QLaurent":
        other = QLaurent.of(other)
        if self.is_zero or other.is_zero:
            return _ZERO
        return QLaurent(self.min_exp + other.min_exp,
                        _mul_kronecker(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def divide_exact(self, other) -> "QLaurent":
        """Exact division; raises ExactDivisionError on a nonzero remainder.

        Product formulas are asserted, never approximated: any remainder
        is a bug or a falsified identity, so it is an error.
        """
        other = QLaurent.of(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return _ZERO
        num, div = self.coeffs, other.coeffs
        quot = _divide_kronecker(num, div) if len(num) >= len(div) else None
        if quot is None:
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return QLaurent(self.min_exp - other.min_exp, quot)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QLaurent.of(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min_exp, self.coeffs))

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"QLaurent({self!s})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            if e == 0:
                terms.append(str(c))
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    terms.append(qpow)
                elif c == -1:
                    terms.append(f"-{qpow}")
                else:
                    terms.append(f"{c}*{qpow}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def to_json(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": [str(c) for c in self.coeffs]}


_ZERO = QLaurent(0, ())
_ONE = QLaurent(0, (1,))


# -- the Z[q] kernel ----------------------------------------------------
#
# Products and exact quotients of coefficient tuples, by Kronecker
# substitution at every length: evaluated at X = 2^(8*slot), a polynomial
# becomes one int whose byte-aligned slots hold its coefficients, so one int
# multiply (Karatsuba inside CPython) or one divmod does the work.  Slots
# are wide enough for every coefficient of the result to lie in
# [-X/2, X/2), where balanced digits read it back.


def _bits(coeffs) -> int:
    """Bit length of the largest coefficient magnitude."""
    return max(max(coeffs), -min(coeffs)).bit_length()


# memoryview formats of the signed slot widths: the digits of such a slot
# are read as one array
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot(bits: int) -> int:
    """Bytes per slot for balanced digits of magnitude below 2^bits,
    rounded up to a width of _SIGNED when one is wide enough."""
    slot = bits // 8 + 1
    return next((width for width in _SIGNED if width >= slot), slot)


def _pack_unsigned(coeffs, slot: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(slot, "little") for c in coeffs]),
                          "little")


def _pack(coeffs, slot: int) -> int:
    """The polynomial at X = 2^(8*slot): positive minus negative parts."""
    if min(coeffs) >= 0:
        return _pack_unsigned(coeffs, slot)
    return (_pack_unsigned([max(c, 0) for c in coeffs], slot)
            - _pack_unsigned([max(-c, 0) for c in coeffs], slot))


def _unpack(value: int, length: int, slot: int) -> list[int] | None:
    """The balanced base-2^(8*slot) digits of value, or None when value
    does not fit in length of them."""
    offset = int.from_bytes((bytes(slot - 1) + b"\x80") * length, "little")
    value += offset
    if value < 0 or value.bit_length() > 8 * slot * length:
        return None
    if slot in _SIGNED and sys.byteorder == "little":
        # each slot holds digit + half; its top bit flipped, it reads as
        # the digit in two's complement
        return memoryview((value ^ offset).to_bytes(slot * length, "little")
                          ).cast(_SIGNED[slot]).tolist()
    buf = value.to_bytes(slot * length, "little")
    half = 1 << (8 * slot - 1)
    return [int.from_bytes(buf[i:i + slot], "little") - half
            for i in range(0, slot * length, slot)]


def _mul_kronecker(a, b) -> list[int]:
    # |product coefficient| <= min(len) * max|a| * max|b|
    slot = _slot(_bits(a) + _bits(b) + min(len(a), len(b)).bit_length())
    return _unpack(_pack(a, slot) * _pack(b, slot), len(a) + len(b) - 1, slot)


def _divide_kronecker(num, div) -> list[int] | None:
    """The quotient num / div for len(num) >= len(div), or None if inexact.

    One divmod of the packed ints: a nonzero remainder disproves
    divisibility.  Otherwise the quotient Q is unpacked, and Q(X) D(X) =
    N(X) holds by construction.  The slot is checked to bound every
    coefficient of Q D - N below X/2; that polynomial vanishes at X, so
    it is zero, which proves Q D = N without multiplying back.  The first
    slot fits a Q of up to max(bits(N) - bits(D), 0) + 1 bits, as any Q is
    when N, D and Q have nonnegative coefficients.  If the check fails the
    slot doubles, up to one that holds every factor of N by the
    Landau-Mignotte bound |Q|_inf <= 2^deg(Q) |N|_2; failing there proves
    the division inexact.
    """
    n, m = len(num), len(div)
    length = n - m + 1
    num_bits, div_bits = _bits(num), _bits(div)
    width = min(length, m).bit_length()
    # |coefficient of Q D - N| < 2^(max(bits(Q) + div_bits + width, num_bits) + 1)
    slot = _slot(max(num_bits, div_bits) + width + 2)
    # bits(Q) <= deg(Q) + bits(|N|_2), and |N|_2 <= sqrt(n) max|N|
    mignotte = length - 1 + num_bits + (n.bit_length() + 1) // 2
    last = _slot(mignotte + div_bits + width + 1)
    while True:
        packed, rem = divmod(_pack(num, slot), _pack(div, slot))
        if rem:
            return None
        quot = _unpack(packed, length, slot)
        if (quot is not None
                and max(_bits(quot) + div_bits + width, num_bits) + 1 < 8 * slot):
            return quot
        if slot >= last:
            return None
        slot = min(2 * slot, last)


# -- the q-product kernel ------------------------------------------------

class QProduct:
    """const * q^shift * prod over m of (1 - q^m)^exps[m], exact.

    Every product formula of the package has this form: [k]_q is
    (1 - q^k)/(1 - q), and 1 + q^a is (1 - q^2a)/(1 - q^a).  Equal factors of
    the numerator and the denominator cancel in exps, and a product stays
    factored until a polynomial is consumed.  The factor methods multiply in
    place (a negative e divides) and return self.

    == compares canonical forms (the constant, the shift and the nonzero
    exponents; every zero constant is one form), and that is a proof:
    1 - q^m = -prod over d | m of Phi_d(q), so a product is
    +-const q^shift prod_d Phi_d^f_d, f_d the sum of e_m over the multiples
    m of d.  The map e -> f is unitriangular, so one to one, and q and the
    Phi_d are distinct irreducibles: by unique factorization, distinct
    canonical forms are distinct rational functions.
    """

    __slots__ = ("const", "shift", "exps")

    def __init__(self, const: int = 1, shift: int = 0):
        self.const = const
        self.shift = shift
        self.exps: dict[int, int] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QProduct):
            return NotImplemented
        return self._canonical() == other._canonical()

    def copy(self) -> "QProduct":
        """The same product, whose factor methods leave this one as it was."""
        out = QProduct(self.const, self.shift)
        out.exps = dict(self.exps)
        return out

    def _canonical(self) -> tuple:
        nonzero = {m: e for m, e in self.exps.items() if e}
        return (self.const, self.shift, nonzero) if self.const else (0,)

    def q_ints(self, ks, e: int = 1) -> "QProduct":
        """Times [k]_q^e = ((1 - q^k) / (1 - q))^e for each k >= 1 in ks."""
        exps = self.exps
        count = 0
        for k in ks:
            if k <= 0:
                raise ValueError(f"no q-integer factor [{k}]_q")
            exps[k] = exps.get(k, 0) + e
            count += 1
        exps[1] = exps.get(1, 0) - count * e
        return self

    def q_factorial(self, k: int, e: int = 1) -> "QProduct":
        """Times ([k]_q!)^e."""
        if k < 0:
            raise ValueError("q-factorial of a negative integer")
        return self.q_ints(range(1, k + 1), e)

    def power_plus_one(self, a: int, e: int = 1) -> "QProduct":
        """Times (1 + q^a)^e = ([2a]_q / [a]_q)^e, a >= 0; at a = 0 the
        factor is the constant 2^e, and e < 0 would leave Z[q]."""
        if a < 0 or (a == 0 and e < 0):
            raise ValueError(f"no factor (1 + q^{a})^{e} in Z[q]")
        if a == 0:
            self.const *= 2 ** e
            return self
        return self.q_ints((2 * a,), e).q_ints((a,), -e)

    def expand(self) -> "QLaurent":
        """The product as a QLaurent.

        Multiplying by 1 - q^m is the stride p[j] -= p[j-m] run from the
        top, dividing by it p[j] += p[j-m] run from the bottom; every
        factor of the numerator goes in first.  A division leaves the top
        m coefficients zero exactly when the dividend is a multiple of
        1 - q^m, since the power series quotient then is the polynomial
        one; otherwise it raises ExactDivisionError.
        """
        if not self.const:
            return _ZERO
        ups = sorted(m for m, e in self.exps.items() for _ in range(e))
        downs = sorted((m for m, e in self.exps.items() for _ in range(-e)),
                       reverse=True)
        p = [1] + [0] * sum(ups)
        top = 0  # the degree of p
        for m in ups:
            p[m:top + m + 1] = map(sub, p[m:top + m + 1], p[:top + 1])
            top += m
        for m in downs:
            # one running sum per residue class mod m that meets 0..top
            for r in range(min(m, top + 1)):
                p[r:top + 1:m] = accumulate(p[r:top + 1:m])
            if m > top or any(p[top - m + 1:top + 1]):
                raise ExactDivisionError(f"not a polynomial: the division "
                                         f"by 1 - q^{m} leaves a remainder")
            top -= m
        del p[top + 1:]
        if self.const != 1:
            p = [c * self.const for c in p]
        return QLaurent(self.shift, p)

    def at_one(self) -> int:
        """The product at q = 1, where [m]_q is m: const times prod
        m^exps[m] (every factor method leaves exponents that sum to 0).
        Each side is a balanced product, joined by one exact division that
        raises ExactDivisionError on a remainder: a q-dimension of rank n
        has O(n^2) factors, and a running product of them would cost time
        quadratic in its size."""
        ups = [m for m, e in self.exps.items() for _ in range(e)]
        downs = [m for m, e in self.exps.items() for _ in range(-e)]
        value, rem = divmod(self.const * _balanced_prod(ups),
                            _balanced_prod(downs))
        if rem:
            raise ExactDivisionError(f"not an integer at q = 1: the division "
                                     f"leaves a remainder {rem}")
        return value


def _balanced_prod(values: list[int]) -> int:
    """The product of the values, multiplied in pairs of like size, so
    that no big operand meets a long run of small ones."""
    values = values or [1]
    while len(values) > 1:
        pairs = [a * b for a, b in zip(values[::2], values[1::2])]
        values = pairs + values[2 * len(pairs):]
    return values[0]


# -- q-combinatorics ---------------------------------------------------

def q_binomial(n: int, m: int) -> QLaurent:
    """Gaussian binomial [n choose m]_q; zero outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("q-binomial with negative top index")
    if m < 0 or m > n:
        return _ZERO
    return (QProduct().q_factorial(n).q_factorial(m, -1)
            .q_factorial(n - m, -1).expand())


def catalan_triangle_q(n: int, k: int) -> QLaurent:
    """q-analog of the triangle Catalan number.

    C_{n,k}(q) = [n+k]_q! [n-k+1]_q / ([k]_q! [n+1]_q!) for n >= 0 and
    0 <= k <= n, and 0 whenever n < 0, k < 0, or k > n.  At q = 1 this
    counts N/E lattice paths from (0,0) to (n,k) weakly below the
    diagonal.
    """
    if n < 0 or k < 0 or k > n:
        return _ZERO
    return (QProduct().q_factorial(n + k).q_ints((n - k + 1,))
            .q_factorial(k, -1).q_factorial(n + 1, -1).expand())
