"""Determinant and product formulas for q-multiplicities.

For the dual pairs of classical groups acting on an exterior algebra,
the multiplicity of V(lambda) in the relevant tensor power V^(x)K has an
exact determinant form (binomials or triangle Catalan numbers via the
LGV lemma) and an exact product form in q-integers.  Both equal, up to
a q^(weighted size of the box complement) shift, a q-dimension on the
dual side.  verify_duality asserts the full chain of identities over a
box, exactly in Z[q].

Series conventions (n = rank of G1, k = box width):
  A  (gl_n, V = exterior algebra of C^n):      power k
  BC (so_{2n+1} spinor / sp_2n exterior):      power 2k+p, p in {0,1}
  D  (so_2n, V = sum of both half-spinors):    power 2k+p
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (HalfInt, QLaurent, q_binomial, q_factorial, q_int,
                    q_power_plus_one_product, catalan_triangle_q)
from .partitions import Partition, TypeDWeight, enumerate_in_box

# -- Weyl machinery ------------------------------------------------------

TYPE_A = "A"
TYPE_B = "B"
TYPE_C = "C"
TYPE_D = "D"


def _weight_halfints(mu, rank: int) -> tuple[HalfInt, ...]:
    if isinstance(mu, Partition):
        vals = mu.padded(rank)
    elif isinstance(mu, TypeDWeight):
        vals = mu.parts + (0,) * (rank - mu.rank)
    else:
        vals = tuple(mu) + (0,) * (rank - len(tuple(mu)))
    return tuple(HalfInt.of(Fraction(v) if not isinstance(v, (int, HalfInt)) else v)
                 for v in vals)


def _root_pairings(lie_type: str, rank: int, mu) -> list[tuple[HalfInt, int]]:
    """(<mu+rho, alpha^vee>, <rho, alpha^vee>) over the positive roots."""
    m = _weight_halfints(mu, rank)
    n = rank
    out = []
    if lie_type == TYPE_A:
        rho = [n - i for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                out.append((m[i] - m[j] + (rho[i] - rho[j]), rho[i] - rho[j]))
        return out
    if lie_type == TYPE_B:
        # rho_i = n - i + 1/2; coroots: e_i - e_j, e_i + e_j, 2 e_i
        rho2 = [2 * (n - i) + 1 for i in range(1, n + 1)]  # doubled rho
        for i in range(n):
            for j in range(i + 1, n):
                out.append((HalfInt(m[i].doubled - m[j].doubled + rho2[i] - rho2[j]),
                            (rho2[i] - rho2[j]) // 2))
                out.append((HalfInt(m[i].doubled + m[j].doubled + rho2[i] + rho2[j]),
                            (rho2[i] + rho2[j]) // 2))
            out.append((HalfInt(2 * m[i].doubled + 2 * rho2[i]), rho2[i]))
        return out
    if lie_type == TYPE_C:
        rho = [n - i + 1 for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                out.append((m[i] - m[j] + (rho[i] - rho[j]), rho[i] - rho[j]))
                out.append((m[i] + m[j] + (rho[i] + rho[j]), rho[i] + rho[j]))
            out.append((m[i] + rho[i], rho[i]))
        return out
    if lie_type == TYPE_D:
        rho = [n - i for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                out.append((m[i] - m[j] + (rho[i] - rho[j]), rho[i] - rho[j]))
                out.append((m[i] + m[j] + (rho[i] + rho[j]), rho[i] + rho[j]))
        return out
    raise ValueError(f"unknown Lie type {lie_type!r}")


def weyl_dimension(lie_type: str, rank: int, mu) -> int:
    """Dimension of the irreducible with highest weight mu, exact."""
    num = 1
    den = 1
    for top, bottom in _root_pairings(lie_type, rank, mu):
        if not top.is_integer:
            raise ValueError(f"non-integral pairing {top} for weight {mu}")
        num *= top.as_int()
        den *= bottom
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("Weyl dimension did not divide exactly")
    return dim


@dataclass(frozen=True)
class QDimResult:
    value: QLaurent
    group: str
    weight: tuple

    def at_one(self) -> int:
        return self.value.at_one()


_GROUP_NAMES = {TYPE_A: "GL_{}", TYPE_B: "B_{}", TYPE_C: "C_{}", TYPE_D: "D_{}"}


def qdim(lie_type: str, rank: int, mu) -> QDimResult:
    """q-dimension prod over positive roots of [<mu+rho, a^vee>]_q / [<rho, a^vee>]_q.

    mu may have half-integer coordinates (spin weights) as long as every
    pairing <mu+rho, alpha^vee> is a positive integer; a non-integral or
    nonpositive pairing is a hard error (never rounded).
    """
    num = QLaurent.one()
    den = QLaurent.one()
    for top, bottom in _root_pairings(lie_type, rank, mu):
        if not top.is_integer:
            raise ValueError(f"non-integral pairing {top} for weight {mu}")
        t = top.as_int()
        if t <= 0:
            raise ValueError(f"non-dominant weight {mu}: pairing {t} <= 0")
        num = num * q_int(t)
        den = den * q_int(bottom)
    value = num.divide_exact(den)
    m = _weight_halfints(mu, rank)
    return QDimResult(value, _GROUP_NAMES[lie_type].format(rank),
                      tuple(x.as_fraction() for x in m))


# -- exact determinants --------------------------------------------------

def qlaurent_determinant(matrix: list[list[QLaurent]]) -> QLaurent:
    """Fraction-free Bareiss determinant over the Laurent ring.

    All interior divisions are exact by the Bareiss identity; a nonzero
    remainder would mean corrupted input and raises.  Falls back to
    cofactor expansion only implicitly via size-0/1 base cases.
    """
    n = len(matrix)
    if n == 0:
        return QLaurent.one()
    a = [row[:] for row in matrix]
    sign = 1
    prev = QLaurent.one()
    for key in range(n - 1):
        if a[key][key].is_zero:
            for r in range(key + 1, n):
                if not a[r][key].is_zero:
                    a[key], a[r] = a[r], a[key]
                    sign = -sign
                    break
            else:
                return QLaurent.zero()
        for i in range(key + 1, n):
            for j in range(key + 1, n):
                num = a[i][j] * a[key][key] - a[i][key] * a[key][j]
                a[i][j] = num.divide_exact(prev)
            a[i][key] = QLaurent.zero()
        prev = a[key][key]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


# -- series A ------------------------------------------------------------

def mult_det_A_q(lam, n: int, k: int) -> QLaurent:
    """det[ qbinom(k+i, j + lambda_{n-j}) ] for i,j = 0..n-1."""
    lam = Partition.of(lam)
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    padded = lam.padded(n)
    mat = [[q_binomial(k + i, j + padded[n - 1 - j]) for j in range(n)]
           for i in range(n)]
    return qlaurent_determinant(mat)


def mult_det_A_binomial(lam, n: int, k: int, variant: int = 1) -> int:
    """The two q=1 determinant variants over ordinary binomials."""
    from math import comb
    lam = Partition.of(lam)
    padded = lam.padded(n)

    def entry(i, j):
        if variant == 1:
            m = k + i - j - padded[n - 1 - j]
        else:
            m = j + padded[n - 1 - j]
        return comb(k + i, m) if 0 <= m <= k + i else 0

    mat = [[QLaurent.of(entry(i, j)) for j in range(n)] for i in range(n)]
    return qlaurent_determinant(mat).at_one()


def mult_prod_A_q(lam, n: int, k: int) -> QLaurent:
    """Product form: q^||comp|| prod [k+m]! prod [a_i-a_j] / prod [a_i]! [k+n-1-a_i]!."""
    lam = Partition.of(lam)
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    a = [lam.part(i) + n - i for i in range(1, n + 1)]
    num = QLaurent.one()
    for m in range(n):
        num = num * q_factorial(k + m)
    for i in range(n):
        for j in range(i + 1, n):
            num = num * q_int(a[i] - a[j])
    den = QLaurent.one()
    for ai in a:
        den = den * q_factorial(ai) * q_factorial(k + n - 1 - ai)
    shift = lam.complement(n, k).weighted_size
    return num.divide_exact(den).shifted(shift)


# -- series BC -----------------------------------------------------------

def mult_det_BC_q(lam, n: int, k: int, p: int) -> QLaurent:
    """det of triangle Catalan q-numbers, indices
    a(i,j) = 2n-i-j+k+p+lambda_j, b(i,j) = j-i+k-lambda_j (i,j = 1..n)."""
    lam = Partition.of(lam)
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    mat = [[catalan_triangle_q(2 * n - i - j + k + p + lam.part(j),
                               j - i + k - lam.part(j))
            for j in range(1, n + 1)] for i in range(1, n + 1)]
    return qlaurent_determinant(mat)


def mult_prod_BC_q(lam, n: int, k: int, p: int) -> QLaurent:
    """Product form with a_i = lambda_i + (n-i) + (p+1)/2 (doubled internally)."""
    lam = Partition.of(lam)
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    a2 = [2 * (lam.part(i) + n - i) + p + 1 for i in range(1, n + 1)]  # 2 a_i
    num = QLaurent.one()
    for i in range(1, n + 1):
        num = num * q_factorial(2 * k + p + 2 * i - 2) * q_int(a2[i - 1])
    for i in range(n):
        for j in range(i + 1, n):
            num = num * q_int((a2[i] - a2[j]) // 2) * q_int((a2[i] + a2[j]) // 2)
    den = QLaurent.one()
    for i in range(n):
        lo = k + n + (p - 1 - a2[i]) // 2
        hi = k + n + (p - 1 + a2[i]) // 2
        den = den * q_factorial(lo) * q_factorial(hi)
    shift = lam.complement(n, k).weighted_size
    return num.divide_exact(den).shifted(shift)


# -- series D ------------------------------------------------------------

def _d_abs_partition(lam) -> Partition:
    if isinstance(lam, TypeDWeight):
        return lam.abs_partition()
    return Partition.of(lam)


def mult_det_D_q(lam, n: int, k: int, p: int) -> QLaurent:
    """det[ qbinom(2(k+i)+p, k+i-j-|lambda_{n-j}|) ] for i,j = 0..n-1."""
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    lam = _d_abs_partition(lam)
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    padded = lam.padded(n)
    mat = [[q_binomial(2 * (k + i) + p, k + i - j - padded[n - 1 - j])
            for j in range(n)] for i in range(n)]
    return qlaurent_determinant(mat)


def mult_prod_D_q(lam, n: int, k: int, p: int) -> QLaurent:
    """Product form with a_i = lambda_i + n - i + p/2 (doubled internally)."""
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    lam = _d_abs_partition(lam)
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    a2 = [2 * (lam.part(i) + n - i) + p for i in range(1, n + 1)]
    num = QLaurent.one()
    for i in range(1, n + 1):
        num = num * q_factorial(2 * k + 2 * n - 2 * i + p)
    for i in range(n):
        for j in range(i + 1, n):
            num = num * q_int((a2[i] - a2[j]) // 2) * q_int((a2[i] + a2[j]) // 2)
    den = QLaurent.one()
    for i in range(n):
        lo = k + n - 1 + (p - a2[i]) // 2
        hi = k + n - 1 + (p + a2[i]) // 2
        den = den * q_factorial(lo) * q_factorial(hi)
    shift = lam.complement(n, k).weighted_size
    return num.divide_exact(den).shifted(shift)


# -- the duality identities ----------------------------------------------

def _qdim_o_even(rank: int, mu: Partition) -> QLaurent:
    """q-dimension of the O_{2 rank} class of mu: the type D value, doubled
    when mu has full length (the class then contains both sign choices,
    whose q-dimensions agree by the diagram symmetry)."""
    value = qdim(TYPE_D, rank, mu).value
    if len(mu) == rank and mu.part(rank) > 0:
        value = value * 2
    return value


def dual_qdim_identity_A(lam, n: int, k: int) -> QLaurent:
    lam = Partition.of(lam)
    comp = lam.complement(n, k)
    return qdim(TYPE_A, k, comp.conjugate()).value.shifted(comp.weighted_size)


def dual_qdim_identity_BC(lam, n: int, k: int, p: int) -> QLaurent:
    """What the determinant must equal: for p=1 the type C_k q-dimension,
    for p=0 the type D_k spin q-dimension divided by the spinor factor."""
    lam = Partition.of(lam)
    comp = lam.complement(n, k)
    mu = comp.conjugate()
    if p == 1:
        return qdim(TYPE_C, k, mu).value.shifted(comp.weighted_size)
    spin = tuple(Fraction(2 * m + 1, 2) for m in mu.padded(k))
    value = qdim(TYPE_D, k, spin).value.shifted(comp.weighted_size)
    return value.divide_exact(q_power_plus_one_product(range(1, k)))


def dual_qdim_identity_D(lam, n: int, k: int, p: int) -> QLaurent:
    """For p=1 the type B_k q-dimension; for p=0 the type D_k q-dimension
    of the O-class times the boundary-column ratio
    prod_i (q^(mu_i + k - i) + 1) / (q^(k-i) + 1)."""
    lam = _d_abs_partition(lam)
    comp = lam.complement(n, k)
    mu = comp.conjugate()
    if p == 1:
        return qdim(TYPE_B, k, mu).value.shifted(comp.weighted_size)
    value = _qdim_o_even(k, mu)
    num = q_power_plus_one_product(mu.part(i) + k - i for i in range(1, k + 1))
    den = q_power_plus_one_product(k - i for i in range(1, k + 1))
    return (value * num).divide_exact(den).shifted(comp.weighted_size)


@dataclass(frozen=True)
class DualitySpec:
    series: str  # A | BC | D
    n: int
    k: int
    p: int = 0

    def __post_init__(self):
        if self.series not in ("A", "BC", "D"):
            raise ValueError(f"unknown series {self.series!r}")
        if self.series == "A" and self.p != 0:
            raise ValueError("p must be 0 for series A")
        if self.p not in (0, 1):
            raise ValueError("p must be 0 or 1")


@dataclass(frozen=True)
class DualityViolation:
    lam: Partition
    stage: str
    lhs: QLaurent
    rhs: QLaurent


@dataclass(frozen=True)
class DualityReport:
    spec: DualitySpec
    checked: int
    violations: tuple[DualityViolation, ...]
    dimension_total: int = 0
    dimension_expected: int = 0

    @property
    def ok(self) -> bool:
        return (not self.violations
                and self.dimension_total == self.dimension_expected)


def _check_one(spec: DualitySpec,
               lam: Partition) -> tuple[list[DualityViolation], int]:
    """The violations at lam, and lam's dimension contribution."""
    bad = []
    s, n, k, p = spec.series, spec.n, spec.k, spec.p
    if s == "A":
        det = mult_det_A_q(lam, n, k)
        prod = mult_prod_A_q(lam, n, k)
        rhs = dual_qdim_identity_A(lam, n, k)
        comp = lam.complement(n, k)
        rhs_conj = qdim(TYPE_A, k, lam.conjugate()).value.shifted(comp.weighted_size)
        pairs = [("det=prod", det, prod), ("det=qdim", det, rhs),
                 ("det=qdim_conj", det, rhs_conj)]
    elif s == "BC":
        det = mult_det_BC_q(lam, n, k, p)
        prod = mult_prod_BC_q(lam, n, k, p)
        rhs = dual_qdim_identity_BC(lam, n, k, p)
        pairs = [("det=prod", det, prod), ("det=qdim", det, rhs)]
    else:
        det = mult_det_D_q(lam, n, k, p)
        prod = mult_prod_D_q(lam, n, k, p)
        rhs = dual_qdim_identity_D(lam, n, k, p)
        pairs = [("det=prod", det, prod), ("det=qdim", det, rhs)]
    for stage, lhs, r in pairs:
        if lhs != r:
            bad.append(DualityViolation(lam, stage, lhs, r))
    if not det.has_nonnegative_coeffs():
        bad.append(DualityViolation(lam, "nonneg-coeffs", det, det))
    return bad, _dimension_contribution(spec, lam, det.at_one())


def _dimension_contribution(spec: DualitySpec, lam: Partition, mult: int) -> int:
    """mult, the multiplicity of lam, times the total G1 dimension of its
    weight class."""
    s, n, p = spec.series, spec.n, spec.p
    if s == "A":
        return mult * weyl_dimension(TYPE_A, n, lam)
    if s == "BC":
        shifted = tuple(Fraction(2 * v + p, 2) for v in lam.padded(n)) if p \
            else lam
        return mult * weyl_dimension(TYPE_B, n, shifted)
    if p == 1:
        plus = tuple(Fraction(2 * v + 1, 2) for v in lam.padded(n))
        minus = plus[:-1] + (-plus[-1],)
        return mult * (weyl_dimension(TYPE_D, n, plus)
                       + weyl_dimension(TYPE_D, n, minus))
    dim = weyl_dimension(TYPE_D, n, lam)
    if len(lam) == n and lam.part(n) > 0:
        dim += weyl_dimension(TYPE_D, n, lam.padded(n)[:-1] + (-lam.part(n),))
    return mult * dim


def verify_duality(spec: DualitySpec, threads: int = 1) -> DualityReport:
    """Assert det = product = q-shifted q-dimension for every lambda in
    the box, plus total dimension conservation at q = 1.

    Each lambda is independent; with threads > 1 the checks run in a
    process pool and are merged deterministically.
    """
    lams = list(enumerate_in_box(spec.n, spec.k))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(partial(_check_one, spec), lams))
    else:
        results = [_check_one(spec, lam) for lam in lams]
    violations = [v for bad, _ in results for v in bad]
    total = sum(contribution for _, contribution in results)
    if spec.series == "A":
        expected = 2 ** (spec.n * spec.k)
    else:
        expected = 2 ** (spec.n * (2 * spec.k + spec.p))
    return DualityReport(spec, len(lams), tuple(violations), total, expected)


# -- Hoggatt triangle ------------------------------------------------------

def _b_product(n: int, k: int) -> int:
    from math import comb
    out = 1
    for j in range(1, k + 1):
        out *= comb(j + n - 1, n)
    return out


def hoggatt(n: int, k: int, m: int) -> int:
    """Entry H_{km} = b_n(k) / (b_n(m) b_n(k-m)) of the n-row triangle."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    num = _b_product(n, k)
    den = _b_product(n, m) * _b_product(n, k - m)
    out, rem = divmod(num, den)
    if rem:
        raise AssertionError("Hoggatt entry is not an integer")
    return out


def hoggatt_q(n: int, k: int, m: int) -> QLaurent:
    """q-analog: the q-dimension of the n x m rectangle for gl_k."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    rect = Partition((n,) * m)
    return qdim(TYPE_A, k, rect).value
