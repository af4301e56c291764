"""Determinant and product formulas for q-multiplicities.

For the dual pairs of classical groups acting on an exterior algebra,
the multiplicity of V(lambda) in the relevant tensor power V^(x)K has an
exact determinant form (the LGV lemma over the path counts between
lgv_endpoints, _path_count: q-binomials or triangle Catalan numbers) and
an exact product form in q-integers.  Both equal, up to a q^(weighted
size of the box complement) shift, a q-dimension on the dual side (qdim;
weyl_dimension is its value at q = 1).  mult expands one weight's product
and checks its value at q = 1 against the determinant at q = 1, whose
path counts are binomials and ballot numbers in ints (lgv_at_one).
verify_duality asserts the full chain of identities over a box, exactly
in Z[q]: the determinants are packed minors of one PathTable, whose
columns are the particle positions lambda_i + n - i of the paths' ends,
the products and q-dimensions are walked from the empty diagram along
partitions.walk_box, each weight's grown from those of the weight a box
smaller (_walk), and each weight's one expansion is compared with its
determinant as ints.  The walk carries two sides and the G1 dimension.
Each side has one formula, read alike by the walk's anchor and its steps:
_mult_prod for every series' product, _dual_qdim for every row's dual
side (its G2 qdim over that at the empty weight), and one _q_side_ratio a
side per box; the dimension steps by _side_ratio, that ratio at q = 1 in
ints.  No step tests the row.  The Hoggatt triangles (the multiplicities
of the rectangles), the Weyl dimension as one division of two full
products and, for A, the q-dimension of the conjugate (which has the dual
side's GL_k pairings) are oracles in tests/test_multiplicity.py.

Series conventions (n = rank of G1, k = box width):
  A  (gl_n, V = exterior algebra of C^n):      power k
  BC (so_{2n+1} spinor / sp_2n exterior):      power 2k+p, p in {0,1}
  D  (so_2n, V = sum of both half-spinors):    power 2k+p
A VERIFY_ROWS row (one per series and p) or PAIR_ROWS row (one per measure
pair) holds only its sides: VerifyRow.power, PairRow.exponent, Side.shift,
PairRow.shape and cli._PAIR_NAMES are the one source of its power,
exponent, shift, shape and flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, isqrt, prod

from .exact import (ExactDivisionError, QLaurent, QProduct, q_binomial,
                    catalan_triangle_q, _bits, _pack, _slot, _unpack)
from .partitions import (Partition, check_box_budget, doubled_coordinates,
                         walk_box)

# -- Weyl machinery ------------------------------------------------------

TYPE_A = "A"
TYPE_B = "B"
TYPE_C = "C"
TYPE_D = "D"

#: Lie type -> (s, single).  s is the shift of the doubled coordinates
#: 2(mu_i + rank - i) + s: twice what rho_i adds to rank - i.  single turns
#: a doubled coordinate 2a_i into twice the pairing with the root on e_i
#: alone: 2 for the coroot 2e_i of B, 1 for the coroot e_i of C, 0 for A
#: and D, which have no such root.
_LIE = {TYPE_A: (0, 0), TYPE_B: (1, 2), TYPE_C: (2, 1), TYPE_D: (0, 0)}

PIN = "Pin"
O_CLASS = "O"


@dataclass(frozen=True)
class Side:
    """One group of a dual pair, as its dimension formula sees it.

    lie is the Lie type of the Weyl formula; spin = 1 shifts every entry
    of the weight by 1/2.  rule names the group's class of a weight, which
    qdim alone states: PIN, the two spin classes that the sign swaps (a
    constant 2 at rank > 0); O_CLASS, a weight and its sign flip, whose
    dimensions agree, in q-form prod_i L(a_i) / L(rank - i) over
    a_i = mu_i + rank - i, L(a) = 1 + q^a and L(0) = 1 (_o_class), which
    is 2 at q = 1 when mu has full length and 1 otherwise; "" one weight.
    """
    lie: str
    spin: int = 0
    rule: str = ""

    @property
    def shift(self) -> int:
        """The s of the doubled coordinates 2(mu_i + rank - i) + s."""
        return _LIE[self.lie][0] + self.spin

    @property
    def single(self) -> int:
        """The single of _LIE: 2 for B, 1 for C, 0 for A and D."""
        return _LIE[self.lie][1]

SIDE_GL = Side(TYPE_A)
SIDE_SO_ODD = Side(TYPE_B)
SIDE_SPIN_ODD = Side(TYPE_B, spin=1)
SIDE_SP = Side(TYPE_C)
SIDE_PIN = Side(TYPE_D, spin=1, rule=PIN)
SIDE_O_EVEN = Side(TYPE_D, rule=O_CLASS)


def doubled_pairings(lie_type: str, coords) -> list[int]:
    """2<mu + rho, alpha^vee> over the positive roots alpha.

    coords are the doubled coordinates 2(mu + rho) of doubled_coordinates.
    The roots are e_i - e_j (i < j), also e_i + e_j outside type A, and
    the single-coordinate root of types B and C.
    """
    single = _LIE[lie_type][1]
    with_sums = lie_type != TYPE_A
    out = []
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            out.append(a - b)
            if with_sums:
                out.append(a + b)
        if single:
            out.append(single * a)
    return out


@cache
def _rho_pairings(lie_type: str, rank: int) -> tuple[int, ...]:
    coords = doubled_coordinates((), rank, _LIE[lie_type][0])
    return tuple(bottom // 2 for bottom in doubled_pairings(lie_type, coords))


def weyl_dimension(side: Side, rank: int, mu) -> int:
    """Dimension of the class of the weight mu on one side of a pair
    (Side), exact: its q-dimension at q = 1, where the pairings equal
    above and below the line have cancelled (all of them at mu = 0)."""
    return qdim(side, rank, mu).at_one()


def qdim(side: Side, rank: int, mu) -> QProduct:
    """q-dimension of the class of mu on one side of a pair: the class
    factor (Side) times prod over positive roots of
    [<mu+rho, a^vee>]_q / [<rho, a^vee>]_q.  At mu = 0 a Pin side gives
    prod_{0<=a<rank} (1 + q^a), and any other G2 side of a row 1.

    The pairings are read off the doubled coordinates at the side's
    shift, in the root order of doubled_pairings.  A spin side reads mu
    shifted by 1/2 in every entry; every pairing <mu+rho, alpha^vee> must
    then be a positive integer, and a non-integral or nonpositive pairing
    is a hard error (never rounded).
    """
    if side.lie not in _LIE:
        raise ValueError(f"unknown Lie type {side.lie!r}")
    coords = doubled_coordinates(mu, rank, side.shift)
    tops = []
    for top in doubled_pairings(side.lie, coords):
        if top % 2:
            raise ValueError(f"non-integral pairing {top}/2 for weight {mu}")
        tops.append(top // 2)
    if min(tops, default=1) <= 0:
        raise ValueError(f"non-dominant weight {mu}: pairing {min(tops)} <= 0")
    bottoms = _rho_pairings(side.lie, rank)
    if side.rule == O_CLASS:
        ups, downs = _o_class([(x - side.shift) // 2 for x in coords],
                              range(rank))
        tops, bottoms = tops + ups, [*bottoms, *downs]
    value = QProduct(2 if side.rule == PIN and rank else 1)
    return value.q_ints(tops).q_ints(bottoms, -1)


def _o_class(above, below) -> tuple[list[int], list[int]]:
    """prod L(a) over above / prod L(b) over below, where L(a) = 1 + q^a =
    [2a]_q / [a]_q and L(0) = 1, as q-integers above and below the line."""
    above, below = [a for a in above if a], [b for b in below if b]
    return [2 * a for a in above] + below, above + [2 * b for b in below]


# -- the one-box ratio ----------------------------------------------------

def _side_ratio(side: Side, coords: list[int], i: int,
                step: int) -> tuple[int, int]:
    """weyl_dimension's one-box ratio: its value on one side after
    coords[i] (0-based) moves by step over its value before, as an
    unreduced pair of ints.  It is _q_side_ratio at q = 1: the doubled
    pairings that involve coordinate i and, on an O class side, the class
    factor L(after) / L(before), which at q = 1 is 1 but at the last
    coordinate, where L(0) = 1 and L(a) = 2 for a > 0.

    One loop over the coordinates, which are distinct, so the other ones
    are those that differ from coords[i].  A pairing with an earlier
    coordinate has its sign flipped on both sides of the ratio; the single
    root's factor (2 for B, 1 for C) cancels, leaving after / before.
    """
    before = coords[i]
    after = before + step
    num = den = 1
    if side.lie == TYPE_A:
        for c in coords:
            if c != before:
                num *= after - c
                den *= before - c
    else:
        for c in coords:
            if c != before:
                num *= (after - c) * (after + c)
                den *= (before - c) * (before + c)
        if side.single:
            num *= after
            den *= before
    if side.rule == O_CLASS and i == len(coords) - 1:
        num *= 1 + (after > side.shift)
        den *= 1 + (before > side.shift)
    return num, den


def _q_side_ratio(side: Side, coords: list[int], i: int,
                  step: int) -> tuple[list[int], list[int]]:
    """qdim's one-box ratio, as _side_ratio is weyl_dimension's: the
    q-integers above the line (after the move) and below it (before), the
    pairings <mu + rho, alpha^vee> that involve coordinate i and, on an O
    class side, the class factor's L(after) / L(before) (_o_class,
    undoubled).  With coords[i] read at at, the pairings are |at - c| / 2,
    (at + c) / 2 and single * at / 2, as the coordinates are distinct and
    nonnegative."""
    before = coords[i]
    after = before + step
    others = [c for c in coords if c != before]

    def pairings(at: int) -> list[int]:
        out = [abs(at - c) // 2 for c in others]
        if side.lie != TYPE_A:
            out += [(at + c) // 2 for c in others]
        if side.single:
            out.append(side.single * at // 2)
        return out

    if side.rule != O_CLASS:
        return pairings(after), pairings(before)
    ups, downs = _o_class([(after - side.shift) // 2],
                          [(before - side.shift) // 2])
    return pairings(after) + ups, pairings(before) + downs


def _times(product: QProduct, ups, downs) -> None:
    """product times [ups]_q / [downs]_q."""
    product.q_ints(ups).q_ints(downs, -1)


# -- the dual-pair table --------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    """A verify spec: V(lam) for G1 = g1 of rank n, inside V^(x)power(k)
    with dim V = 2^n, paired with g2 of rank k at the complement
    conjugate.  series and p are the --series and --p flags."""
    series: str
    p: int
    g1: Side
    g2: Side

    def power(self, k: int) -> int:
        """The tensor power at box width k, k for A and 2k + p otherwise:
        the n paths of an n x k box are power(k + i) steps long, i < n."""
        return (1 if self.g1.lie == TYPE_A else 2) * k + self.p

    def exponent(self, n: int, k: int) -> int:
        """log2 of the dimension of the tensor power."""
        return n * self.power(k)

    def formula(self, kind: str, lam, n: int, k: int) -> QProduct:
        """The series' product ("prod") or dual q-dimension ("dual") at
        lam.  The product, mult_prod_<series>_q, is looked up by name in
        this module at each call, so a wrapped one is the one run."""
        if kind == "dual":
            return _dual_qdim(self, lam, n, k)
        fn = globals()[f"mult_prod_{self.series}_q"]
        return fn(lam, n, k) if self.series == "A" else fn(lam, n, k, self.p)


@dataclass(frozen=True)
class PairRow:
    """A measure pair: g1 of rank n on the box side, g2 of rank k on the
    complement conjugate, in an exterior algebra of dimension
    2^exponent(n, k)."""
    g1: Side
    g2: Side

    def exponent(self, n: int, k: int) -> int:
        """k times the dimension of g1's vector representation: n for A,
        2n + 1 for B, 2n for C and D."""
        lie = self.g1.lie
        return k * (n if lie == TYPE_A else 2 * n + (lie == TYPE_B))

    @property
    def shape(self) -> str:
        """The limit-shape tag: limitshape.GL for a type-A G1, else HALF."""
        return "GL" if self.g1.lie == TYPE_A else "HALF"


VERIFY_ROWS = {(row.series, row.p): row for row in (
    VerifyRow("A", 0, SIDE_GL, SIDE_GL),
    # G2 is the paper's Pin_2k, as at SO_PIN, normalized at mu = 0 (_dual_qdim)
    VerifyRow("BC", 0, SIDE_SO_ODD, SIDE_PIN),
    VerifyRow("BC", 1, SIDE_SPIN_ODD, SIDE_SP),
    # the boundary-column ratio is the O class's q-form (Side)
    VerifyRow("D", 0, SIDE_O_EVEN, SIDE_O_EVEN),
    VerifyRow("D", 1, SIDE_PIN, SIDE_SO_ODD),
)}

PAIR_ROWS = {
    "GL": PairRow(SIDE_GL, SIDE_GL),
    "SO_PIN": PairRow(SIDE_SO_ODD, SIDE_PIN),
    "SP": PairRow(SIDE_SP, SIDE_SP),
    "O_SO": PairRow(SIDE_O_EVEN, SIDE_O_EVEN),
}


def pair_row(pair: str) -> PairRow:
    if pair not in PAIR_ROWS:
        raise ValueError(f"unknown pair {pair!r}")
    return PAIR_ROWS[pair]


# -- exact determinants --------------------------------------------------

def qlaurent_determinant(matrix: list[list[QLaurent]]) -> QLaurent:
    """Fraction-free Bareiss determinant over the Laurent ring.

    Each step pivots on the nonzero entry of the remaining block with the
    fewest coefficients (the first in row order on a tie), swapping its row
    and column into place; each swap flips the sign, and a block with no
    nonzero entry makes the determinant 0.  Bareiss holds for any row and
    column order, and short pivots keep the minors short (README "Lattice
    paths").

    All interior divisions are exact by the Bareiss identity; a nonzero
    remainder would mean corrupted input and raises.  Every product
    formula is a QProduct: this is the one general QLaurent product.
    """
    n = len(matrix)
    if n == 0:
        return QLaurent.one()
    a = [row[:] for row in matrix]
    sign = 1
    prev = QLaurent.one()
    for key in range(n):
        pivot = min(((len(a[i][j].coeffs), i, j) for i in range(key, n)
                     for j in range(key, n) if not a[i][j].is_zero),
                    default=None)
        if pivot is None:  # the block is zero: a[key][key] is 0
            return a[key][key]
        _, r, c = pivot
        if r != key:
            a[key], a[r] = a[r], a[key]
            sign = -sign
        if c != key:
            for row in a[key:]:
                row[key], row[c] = row[c], row[key]
            sign = -sign
        for i in range(key + 1, n):
            for j in range(key + 1, n):
                num = a[i][j] * a[key][key] - a[i][key] * a[key][j]
                a[i][j] = num.divide_exact(prev)
        prev = a[key][key]
    return prev if sign == 1 else -prev


# -- lattice paths ---------------------------------------------------------

def _in_box(lam: Partition, n: int, k: int, p: int = 0) -> Partition:
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    if not lam.fits_in_box(n, k):
        raise ValueError(f"{lam} does not fit in a {n}x{k} box")
    return lam


def lgv_endpoints(series: str, lam, n: int, k: int, p: int):
    """Start and end vertices of the n nonintersecting E/N lattice paths
    whose families the series' multiplicity of V(lam) counts.

    A paths are free.  BC paths stay weakly below the diagonal y = x.  D
    paths do too, and count twice for each return to the diagonal:
    reflecting in the diagonal any of the excursions that end there
    unfolds them to the free paths with the same ends.  A D weight and its
    sign flip share their paths, so lam is the partition of |lambda|.

    The ends lie on one antidiagonal, x one more at each step along it, and
    the end of lambda_i sits at its particle position a_i = lambda_i + n - i
    (doubled_coordinates): every series lists its starts and ends by
    ascending position, so i, j run over n..1 for BC.
    """
    lam = _in_box(Partition.of(lam), n, k, p)
    if series == "A":
        starts = [(0, -i) for i in range(n)]
        ends = [(j + lam.part(n - j), k - j - lam.part(n - j)) for j in range(n)]
    elif series == "BC":
        starts = [(i, i) for i in range(n, 0, -1)]
        ends = [(2 * n + k + p - j + lam.part(j), k + j - lam.part(j))
                for j in range(n, 0, -1)]
    elif series == "D":
        starts = [(-i, -i) for i in range(n)]
        ends = [(k + j + p + lam.part(n - j), k - j - lam.part(n - j))
                for j in range(n)]
    else:
        raise ValueError(f"unknown series {series!r}")
    return starts, ends


def _path_count(series: str, start, end) -> QLaurent:
    """q-count of the series' lattice paths from start to end.

    With (dx, dy) the steps from start to end, a below-diagonal (BC)
    count is catalan_triangle_q(dx, dy) and a free-grid (A, D) count
    q_binomial(dx + dy, dx).  Both vanish when dx < 0 or dy < 0 (in A and
    D, dx + dy is k + i or 2(k + i) + p, never negative), so every count
    is one call.
    """
    dx, dy = end[0] - start[0], end[1] - start[1]
    if series == "BC":
        return catalan_triangle_q(dx, dy)
    return q_binomial(dx + dy, dx)


def _path_count_at_one(series: str, start, end) -> int:
    """_path_count(series, start, end) at q = 1, in ints: with (dx, dy)
    the steps, the binomial C(dx + dy, dx) of the free paths (A, D) or the
    ballot number C(dx + dy, dy) (dx - dy + 1) / (dx + 1) of the paths
    weakly below the diagonal (BC); 0 where _path_degree is -1."""
    if _path_degree(series, start, end) < 0:
        return 0
    dx, dy = end[0] - start[0], end[1] - start[1]
    if series == "BC":
        return comb(dx + dy, dy) * (dx - dy + 1) // (dx + 1)
    return comb(dx + dy, dx)


def _path_degree(series: str, start, end) -> int:
    """The degree of _path_count(series, start, end), in closed form: with
    (dx, dy) the steps, deg catalan_triangle_q(dx, dy) = dy (dx - 1) and
    deg q_binomial(dx + dy, dx) = dx dy; -1 where the count vanishes."""
    dx, dy = end[0] - start[0], end[1] - start[1]
    if dx < 0 or dy < 0 or series == "BC" and dy > dx:
        return -1
    return dy * (dx - 1) if series == "BC" else dx * dy


def _fill_cost(series: str, n: int, k: int, p: int) -> int:
    """An estimate of PathTable's fill: each of its n x (n + k) path counts
    costs its degree + 1 coefficients times its dx + dy steps.  A row costs
    the same in every box, a quintic in the position m = k .. n + k - 1 of
    its pivot, past which its counts vanish: so the fill is F(n + k) - F(k),
    F(N) the N x 0 box's fill, a sextic given by its Newton series."""
    values = []
    for size in range(7):
        starts, ends = lgv_endpoints(series, Partition(), size, 0, p)
        values.append(sum((_path_degree(series, s, e) + 1)
                          * (e[0] + e[1] - s[0] - s[1])
                          for s in starts for e in ends))
    fill = 0
    for j in range(7):
        fill += values[0] * (comb(n + k, j) - comb(k, j))
        values = [b - a for a, b in zip(values, values[1:])]
    return fill


#: a Bareiss update at q = 1 (two products, a difference and an exact
#: division of QLaurent constants, about 5 us) in the coefficient steps of
#: _fill_cost (about 20 ns each)
_BAREISS_STEP = 256


def mult_cost(series: str, n: int, k: int, p: int) -> int:
    """An estimate of mult's work, in constant time, in the coefficient
    steps of _fill_cost: twice the q = 1 matrix's n^2 path counts, as the
    product's expansion takes at most as many steps as they do (a test
    holds this over boxes up to 30 x 60), plus n^3 Bareiss updates.  A path
    count is priced as the box's longest, whose s steps give it at most
    s^2 / 4 + 1 coefficients, or the counts as the whole path table's fill
    where that is less: a weight's ends are n of its n + k columns."""
    steps = VERIFY_ROWS[series, p].power(k + n - 1)
    matrix = min(n * n * (steps * steps // 4 + 1) * steps,
                 _fill_cost(series, n, k, p))
    return 2 * matrix + n ** 3 * _BAREISS_STEP


def lgv_at_one(series: str, lam, n: int, k: int, p: int) -> int:
    """The multiplicity of V(lam), the LGV determinant at q = 1: Bareiss
    over the plain path counts (_path_count_at_one), the check mult makes
    of the product formula it prints."""
    starts, ends = lgv_endpoints(series, lam, n, k, p)
    return qlaurent_determinant(
        [[QLaurent.of(_path_count_at_one(series, start, end)) for end in ends]
         for start in starts]).at_one()


class PathTable:
    """The C(n + k, n) LGV determinants of an n x k box, as the Plucker
    coordinates of one chart.

    In each series the ends of every weight lie on one antidiagonal, at
    the particle positions a_i = lambda_i + n - i of lgv_endpoints: the box
    has n + k possible ends, at positions 0 .. n + k - 1, and each weight
    picks n of them.  A weight's LGV determinant is therefore a maximal
    minor of one n x (n + k) matrix M of path counts, its columns in
    ascending position.

    The full box's columns, positions k .. n + k - 1, are the pivots, and
    positions 0 .. k - 1 the other columns.  Its LGV matrix M_P is checked
    to be lower unitriangular (_check_unit_lower), so det M_P = 1 and
    forward substitution gives the n x k chart B = M_P^-1 M on the other
    columns with no division.  A weight, read as the bitmask of its
    positions (doubled_coordinates), trades the pivots R it does not hold
    for the other columns C it holds, and has determinant +-det B[R, C]:
    the sign is the parity of the pairs (traded pivot, kept pivot below
    it).  det B[R, C] is a
    Laplace expansion along the lowest row of R, memoized on (R, C); every
    such pair is itself a weight, so the memo holds at most
    C(n + k, n) - 1 entries.

    B is packed once at X = 2^(8 slot) (exact._pack) and the memo holds
    plain ints.  The slot holds every coefficient of every det B[R, C] by
    the smaller of two bounds.  The coefficient sum norm is
    submultiplicative: the product of the min(n, k) largest
    max(1, sum over c of |B[r, c]|_1).  And det B[R, C] = +-det M_w, whose
    path counts have nonnegative coefficients (checked), so |M_w(z)| <=
    M_w(1) on |z| = 1 and Hadamard's inequality bounds each coefficient by
    the product over the rows of the root of the sum of the n largest
    M(1)^2.  The chart is built on the first lookup.
    """

    def __init__(self, series: str, n: int, k: int, p: int):
        self.series, self.n, self.k, self.p = series, n, k, p
        self.chart: list[list[int]] | None = None  # packed B, [pivot][c]
        self.slot = 1
        self.minors: dict[int, int] = {}  # R | C << n -> packed det B[R, C]

    def _fill(self) -> None:
        series, n, k, p = self.series, self.n, self.k, self.p
        starts, low = lgv_endpoints(series, Partition(), n, k, p)
        if not starts:
            self.chart = []
            return
        x, y = low[0]  # the end at position 0
        m = [[_path_count(series, start, (x + c, y - c)) for c in range(n + k)]
             for start in starts]
        block = [row[k:] for row in m]
        _check_unit_lower(block)
        chart: list[list[QLaurent]] = []
        for i, row in enumerate(m):
            row = row[:k]
            for j in range(i):
                if not block[i][j].is_zero:
                    row = [b - block[i][j] * e for b, e in zip(row, chart[j])]
            chart.append(row)
        norms = sorted((max(1, sum(abs(c) for b in row for c in b.coeffs))
                        for row in chart), reverse=True)
        bound = prod(norms[:min(n, k)])
        if all(b.has_nonnegative_coeffs() for row in m for b in row):
            squares = prod(sum(sorted(b.at_one() ** 2 for b in row)[-n:])
                           for row in m)
            bound = min(bound, isqrt(squares) + 1)
        self.slot = slot = _slot(bound.bit_length())
        self.chart = [[_pack(b.coeffs, slot) << (8 * slot * b.min_exp)
                       if not b.is_zero else 0 for b in row] for row in chart]

    def minor(self, rows: int, cols: int) -> int:
        """det B[R, C], packed, for the bitmasks rows (R) and cols (C) of
        equal size.  Along the lowest row of R, the entry in the t-th
        column of C (from 0, lowest first) has the cofactor sign (-1)^t."""
        if not rows:
            return 1
        key = rows | cols << self.n
        value = self.minors.get(key)
        if value is None:
            low = rows & -rows
            row, rows = self.chart[low.bit_length() - 1], rows ^ low
            value, sign, rest = 0, 1, cols
            while rest:
                bit = rest & -rest
                rest ^= bit
                entry = row[bit.bit_length() - 1]
                if entry:
                    term = entry * self.minor(rows, cols ^ bit)
                    value = value + term if sign > 0 else value - term
                sign = -sign
            self.minors[key] = value
        return value

    def packed(self, lam) -> int:
        """The LGV determinant at lam, a weight of the box,
        packed at X = 2^(8 slot): a signed minor."""
        if self.chart is None:
            self._fill()
        n, k = self.n, self.k
        held = 0
        for x in doubled_coordinates(lam, n):
            held |= 1 << (x >> 1)
        if held >> n + k:
            raise ValueError(f"{lam} does not fit in a {n}x{k} box")
        rows = ~held >> k & ((1 << n) - 1)
        # the t-th traded pivot (from 0), at r, has r - t kept pivots below
        flips = sum(r - t for t, r in enumerate(
            r for r in range(n) if rows >> r & 1))
        value = self.minor(rows, held & ((1 << k) - 1))
        return -value if flips % 2 else value

    def matches(self, det: int, poly: QLaurent) -> bool:
        """Whether det, a value of packed, is poly: a proof, since the
        slot bounds det's coefficients below X/2 and poly's are checked to
        be, so both read det's balanced digits."""
        if poly.is_zero:
            return det == 0
        slot = self.slot
        return (poly.min_exp >= 0 and _bits(poly.coeffs) < 8 * slot
                and det == _pack(poly.coeffs, slot) << (8 * slot * poly.min_exp))


def _check_unit_lower(block: list[list[QLaurent]]) -> None:
    """Raise ExactDivisionError unless the full box's pivot block is lower
    unitriangular: forward substitution would have to divide."""
    n = len(block)
    if not all(block[i][j].is_zero for i in range(n) for j in range(i + 1, n)):
        raise ExactDivisionError("the full box's pivot block is not triangular")
    for i in range(n):
        if block[i][i] != 1:
            raise ExactDivisionError(f"the full box's pivot block has "
                                     f"{block[i][i]} at ({i}, {i}), not 1")


# -- the product and dual formulas ----------------------------------------

def _factorial_ends(row: VerifyRow, n: int, k: int) -> tuple[int, int, int]:
    """s, the shift of row.g1 (Side.shift), and the top and base of the
    product form's factorials below the line, [(top - x) / 2]! and
    [(base + x) / 2]! for each doubled coordinate x = 2(lambda_i + n - i) + s."""
    s = row.g1.shift
    top = 2 * (k + n - 1) + s
    return s, top, 0 if row.g1.lie == TYPE_A else top


def _mult_prod(row: VerifyRow, lam, n: int, k: int) -> QProduct:
    """The product form of the row's series:
    q^||comp|| prod_{0<=i<n} [power(k+i)]! prod_{alpha>0} [<a, alpha^vee>]
    / prod_i [(top-x_i)/2]! [(base+x_i)/2]!, where the coordinates
    a_i = lambda_i + n - i + s/2 are read doubled as x_i, the roots are those
    of row.g1 and _factorial_ends gives s, top and base."""
    lam = _in_box(Partition.of(lam), n, k, row.p)
    s, top, base = _factorial_ends(row, n, k)
    coords = doubled_coordinates(lam, n, s)
    product = QProduct(shift=lam.complement(n, k).weighted_size)
    for i in range(n):
        product.q_factorial(row.power(k + i))
    product.q_ints(t // 2 for t in doubled_pairings(row.g1.lie, coords))
    for x in coords:
        product.q_factorial((top - x) // 2, -1).q_factorial((base + x) // 2, -1)
    return product


def mult_prod_A_q(lam, n: int, k: int) -> QProduct:
    """Product form: q^||comp|| prod [k+m]! prod [a_i-a_j] / prod [a_i]! [k+n-1-a_i]!."""
    return _mult_prod(VERIFY_ROWS["A", 0], lam, n, k)


def mult_prod_BC_q(lam, n: int, k: int, p: int) -> QProduct:
    """Product form with a_i = lambda_i + (n-i) + (p+1)/2."""
    return _mult_prod(DualitySpec("BC", n, k, p).row, lam, n, k)


def mult_prod_D_q(lam, n: int, k: int, p: int) -> QProduct:
    """Product form with a_i = lambda_i + n - i + p/2."""
    return _mult_prod(DualitySpec("D", n, k, p).row, lam, n, k)


def _dual_qdim(row: VerifyRow, lam, n: int, k: int) -> QProduct:
    """What the determinant must equal, for every row: q^||comp|| times
    qdim(row.g2, k, mu) / qdim(row.g2, k, ()), comp the complement of lam
    and mu its conjugate.  The divisor is 1 but at BC p = 0's Pin side: 2^k
    at q = 1, as the SO_PIN pair's algebra of C^(2n+1) (x) C^k is 2^k
    times the row's tensor power."""
    comp = Partition.of(lam).complement(n, k)
    value, empty = qdim(row.g2, k, comp.conjugate()), qdim(row.g2, k, ())
    value.shift += comp.weighted_size
    value.const //= empty.const
    for m, e in empty.exps.items():
        value.exps[m] = value.exps.get(m, 0) - e
    return value


@dataclass(frozen=True)
class DualitySpec:
    series: str  # A | BC | D
    n: int
    k: int
    p: int = 0

    def __post_init__(self):
        if (self.series, self.p) not in VERIFY_ROWS:
            raise ValueError(f"no series {self.series!r} with p={self.p}")

    @property
    def row(self) -> VerifyRow:
        return VERIFY_ROWS[self.series, self.p]


@dataclass(frozen=True)
class DualityViolation:
    lam: Partition
    stage: str
    lhs: QLaurent
    rhs: QLaurent


@dataclass(frozen=True)
class DualityReport:
    """multiplicities pairs each weight of the box, in walk_box's order,
    with its multiplicity at q = 1."""
    spec: DualitySpec
    checked: int
    violations: tuple[DualityViolation, ...]
    dimension_total: int = 0
    dimension_expected: int = 0
    multiplicities: tuple[tuple[Partition, int], ...] = ()

    @property
    def ok(self) -> bool:
        return (not self.violations
                and self.dimension_total == self.dimension_expected)


def _named(stage: str, lam: Partition,
           exc: ExactDivisionError) -> ExactDivisionError:
    """A failed exact division, named by its stage and weight."""
    return ExactDivisionError(f"{stage} at weight ({lam}): {exc}")


def _walk(spec: DualitySpec):
    """The weights of spec's box in partitions.walk_box's order, each with
    its two (label, QProduct) sides, the product formula first, and its
    G1 class dimension.  Each side is built by its own formula at the
    empty diagram; every other weight copies the sides of the weight a box
    smaller and multiplies in that box's one-box ratio (README "Lattice
    paths"): _q_side_ratio for each side, _side_ratio for the dimension.
    A ratio that leaves a remainder raises ExactDivisionError naming its
    stage and the weight grown."""
    row, n, k = spec.row, spec.n, spec.k
    g1, g2 = row.g1, row.g2
    weyl = Side(g1.lie, g1.spin)  # the product moves by the pairings alone
    lam = Partition()
    sides = [("det=prod", row.formula("prod", lam, n, k)),
             ("det=qdim", row.formula("dual", lam, n, k))]
    try:
        dim = weyl_dimension(g1, n, lam)
    except ExactDivisionError as exc:
        raise _named("dim", lam, exc) from exc
    root = (dim, doubled_coordinates(lam, n, g1.shift),
            doubled_coordinates(lam.complement(n, k).conjugate(), k, g2.shift),
            sides)
    _, top, base = _factorial_ends(row, n, k)

    def grow(state, child):
        """The state of child from that of child less its last box, which
        is in row r (from 0) and column m (from 1)."""
        dim, x1, x2, sides = state
        r, m = len(child) - 1, child[-1]
        j, x = k - m, x1[r]
        sides = [(label, side.copy()) for label, side in sides]
        stage = "dim"
        try:
            num, den = _side_ratio(g1, x1, r, 2)
            dim, rem = divmod(dim * num, den)
            if rem:
                raise ExactDivisionError(f"the ratio {num}/{den} leaves a remainder")
            stage = "prod"
            # the product's first factorial loses its top factor and its
            # second gains one
            ups, downs = _q_side_ratio(weyl, x1, r, 2)
            _times(sides[0][1], [*ups, (top - x) // 2],
                   [*downs, (base + x + 2) // 2])
            stage = "dual"
            _times(sides[1][1], *_q_side_ratio(g2, x2, j, -2))
        except ExactDivisionError as exc:
            raise _named(stage, Partition(child), exc) from exc
        for _, side in sides:
            side.shift -= n - 1 - r
        x1, x2 = x1[:], x2[:]
        x1[r] += 2
        x2[j] -= 2
        return dim, x1, x2, sides

    for parts, (dim, _, _, sides) in walk_box(n, k, root, grow):
        yield Partition(parts), sides, dim


def _check_one(table: PathTable, lam: Partition, det: int,
               sides) -> tuple[list[DualityViolation], int]:
    """The violations of det = prod = dual q-dimension at lam and its
    multiplicity at q = 1, given det, its packed LGV determinant, and its
    sides.  The product is expanded once and compared with det as ints
    (PathTable.matches); only a mismatch unpacks det.  A side with the
    product's factors is that polynomial (see QProduct.__eq__), any other
    is expanded.  A failed exact division is raised again naming its
    stage (prod or dual) and lam."""
    prod = sides[0][1]
    stage = "prod"
    try:
        poly = prod.expand()
        if table.matches(det, poly):
            lhs = poly
        else:
            slot = table.slot
            lhs = QLaurent(0, _unpack(det, det.bit_length() // (8 * slot) + 1,
                                      slot))
        stage = "dual"
        pairs = [(label, poly if side is prod or side == prod else side.expand())
                 for label, side in sides]
    except ExactDivisionError as exc:
        raise _named(stage, lam, exc) from exc
    bad = [DualityViolation(lam, label, lhs, rhs)
           for label, rhs in pairs if rhs is not lhs and lhs != rhs]
    if not lhs.has_nonnegative_coeffs():
        bad.append(DualityViolation(lam, "nonneg-coeffs", lhs, lhs))
    return bad, lhs.at_one()


def verify_cost(spec: DualitySpec) -> int:
    """verify_duality's work, estimated in constant time: the box's weights
    times the tensor exponent times (n + k)^2 (about a weight's degree times
    its factor count), plus _fill_cost; check_box_budget raises first."""
    n, k = spec.n, spec.k
    check_box_budget(n, k)
    return (comb(n + k, n) * spec.row.exponent(n, k) * (n + k) ** 2
            + _fill_cost(spec.series, n, k, spec.p))


def verify_duality(spec: DualitySpec) -> DualityReport:
    """Assert det = product = q-shifted q-dimension for every lambda in
    the box, plus total dimension conservation at q = 1.

    The determinants are the maximal minors of one PathTable, built on the
    first lookup and read, packed, in walk_box's order; the products and
    q-dimensions are walked through the box (_walk).  Each weight adds its
    multiplicity at q = 1 times the dimension of its G1 class to the total.
    """
    row, n, k = spec.row, spec.n, spec.k
    table = PathTable(spec.series, n, k, spec.p)
    violations, multiplicities, total = [], [], 0
    for lam, sides, dim in _walk(spec):
        try:
            det = table.packed(lam)
        except ExactDivisionError as exc:
            raise _named("det", lam, exc) from exc
        bad, mult = _check_one(table, lam, det, sides)
        violations += bad
        multiplicities.append((lam, mult))
        total += mult * dim
    return DualityReport(spec, len(multiplicities), tuple(violations), total,
                         2 ** row.exponent(n, k), tuple(multiplicities))
