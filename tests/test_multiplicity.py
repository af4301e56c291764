import random
import time
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewhowe.exact import QLaurent, QProduct, _unpack, catalan_triangle_q, q_binomial
from skewhowe import multiplicity
from skewhowe.multiplicity import (DualitySpec, PathTable, SIDE_GL, SIDE_PIN,
                                   Side, TYPE_A, TYPE_B, TYPE_C, TYPE_D,
                                   VERIFY_ROWS, mult_prod_BC_q, mult_prod_D_q,
                                   qdim, qlaurent_determinant, verify_duality,
                                   weyl_dimension)
from skewhowe.partitions import Partition, doubled_coordinates
from boxes import enumerate_in_box, lgv_determinant, lgv_matrix, power_plus_one
from test_ensembles import (_SIDES, _boxed, addable_corners, removable_corners,
                            with_row)
from test_exact import q_int, q_power_plus_one, q_power_plus_one_product

# -- reference: the half-integer pairings the integer ones replaced ------------


def _ref_weight_halfints(mu, rank: int, spin: int = 0) -> tuple[Fraction, ...]:
    """mu padded to rank, in Fractions, with spin / 2 added to every entry:
    the weight that Side(lie, spin) reads mu as."""
    parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
    vals = parts + (0,) * (rank - len(parts))
    return tuple(Fraction(2 * v + spin, 2) for v in vals)


def _ref_root_pairings(lie_type: str, rank: int, m) -> list[tuple[Fraction, int]]:
    """(<m+rho, alpha^vee>, <rho, alpha^vee>) over the positive roots, for
    a weight m of rank Fractions."""
    n = rank
    out = []
    if lie_type == TYPE_A:
        rho = [n - i for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                out.append((m[i] - m[j] + (rho[i] - rho[j]), rho[i] - rho[j]))
        return out
    if lie_type == TYPE_B:
        rho2 = [2 * (n - i) + 1 for i in range(1, n + 1)]  # doubled rho
        for i in range(n):
            for j in range(i + 1, n):
                out.append((m[i] - m[j] + Fraction(rho2[i] - rho2[j], 2),
                            (rho2[i] - rho2[j]) // 2))
                out.append((m[i] + m[j] + Fraction(rho2[i] + rho2[j], 2),
                            (rho2[i] + rho2[j]) // 2))
            out.append((2 * m[i] + rho2[i], rho2[i]))
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


def _ref_weyl_dimension(lie_type: str, rank: int, mu) -> int:
    num = den = 1
    for top, bottom in _ref_root_pairings(lie_type, rank, mu):
        if top.denominator != 1:
            raise ValueError(f"non-integral pairing {top} for weight {mu}")
        if top <= 0:
            raise ValueError(f"non-dominant weight {mu}")
        num *= top.numerator
        den *= bottom
    dim, rem = divmod(num, den)
    assert not rem
    return dim


def _ref_qdim(lie_type: str, rank: int, mu) -> QLaurent:
    num = den = QLaurent.one()
    for top, bottom in _ref_root_pairings(lie_type, rank, mu):
        if top.denominator != 1:
            raise ValueError(f"non-integral pairing {top} for weight {mu}")
        if top <= 0:
            raise ValueError(f"non-dominant weight {mu}")
        num = num * q_int(top.numerator)
        den = den * q_int(bottom)
    return num.divide_exact(den)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@st.composite
def _weights(draw):
    """(Lie type, spin, rank, weight): a partition, read with or without
    the spin shift (+1/2 on every entry), a signed-D weight, or arbitrary
    ints with or without the spin, which are mostly not dominant."""
    lie = draw(st.sampled_from([TYPE_A, TYPE_B, TYPE_C, TYPE_D]))
    rank = draw(st.integers(1, 4))
    parts = sorted(draw(st.lists(st.integers(0, 5), min_size=rank, max_size=rank)),
                   reverse=True)
    kind = draw(st.sampled_from(["integer", "spin", "signed", "mixed"]))
    spin = draw(st.integers(0, 1)) if kind == "mixed" else int(kind == "spin")
    if kind == "signed":
        mu = tuple(parts[:-1]) + (-parts[-1],)
    elif kind == "mixed":
        mu = tuple(draw(st.integers(-3, 5)) for _ in range(rank))
    else:
        mu = Partition(tuple(parts))
    return lie, spin, rank, mu


@given(_weights())
@settings(max_examples=300, deadline=None)
def test_integer_pairings_match_halfint_reference(case):
    lie, spin, rank, mu = case
    side, ref = Side(lie, spin), _ref_weight_halfints(mu, rank, spin)
    assert _outcome(weyl_dimension, side, rank, mu) == \
        _outcome(_ref_weyl_dimension, lie, rank, ref)
    got = _outcome(qdim, side, rank, mu)
    want = _outcome(_ref_qdim, lie, rank, ref)
    if want is ValueError:
        assert got is ValueError
    else:
        assert got.expand() == want


def single_division_weyl_dimension(side: Side, rank: int, mu) -> int:
    """The Weyl dimension as one division of the two full products of the
    integer pairings, times the class factor."""
    tops, bottoms, factor = multiplicity._pairings(side, rank, mu)
    dim, rem = divmod(prod(tops), prod(bottoms))
    assert not rem
    return factor * dim


@st.composite
def _large_weights(draw):
    """(side, rank, partition) up to rank 40 with parts up to 60, on a
    side of the tables or a plain Lie type with or without the spin (+1/2);
    many pairings repeat above and below the line."""
    side = draw(st.sampled_from(_SIDES) | st.builds(
        Side, st.sampled_from([TYPE_A, TYPE_B, TYPE_C, TYPE_D]), st.integers(0, 1)))
    rank = draw(st.integers(0, 40))
    parts = sorted(draw(st.lists(st.integers(0, 60), max_size=rank)), reverse=True)
    return side, rank, Partition(tuple(parts))


@given(_large_weights())
@example((SIDE_GL, 0, Partition()))
@example((Side(TYPE_C), 40, Partition()))
@example((Side(TYPE_D), 40, Partition(tuple(range(40, 0, -1)))))
@settings(max_examples=200, deadline=None)
def test_weyl_dimension_matches_single_division(case):
    assert _outcome(weyl_dimension, *case) == \
        _outcome(single_division_weyl_dimension, *case)


def test_weyl_dimension_at_rank_900():
    # about 56 s as one running product of the 404,550 pairings each side
    start = time.perf_counter()
    assert weyl_dimension(SIDE_GL, 900, Partition()) == 1
    assert time.perf_counter() - start < 2


def test_weyl_dimension_rejects_non_dominant_weights():
    # as qdim does; (0, 2) and (0, 1) read -1 and 0 when no check was made
    for mu in ((0, 2), (0, 1)):
        with pytest.raises(ValueError, match="non-dominant"):
            weyl_dimension(SIDE_GL, 2, mu)


def test_integer_pairings_reject_non_half_integers():
    # a weight's entries are ints; a spin weight is read through its Side
    for lie in (TYPE_A, TYPE_B, TYPE_C, TYPE_D):
        for bad in ((Fraction(1, 3), 0), (Fraction(1, 2), 0), (Fraction(2), 0)):
            with pytest.raises(ValueError):
                weyl_dimension(Side(lie), 2, bad)
    with pytest.raises(ValueError):
        weyl_dimension(Side("E"), 2, (1, 0))
    with pytest.raises(ValueError):  # the spin of type C pairs odd
        weyl_dimension(Side(TYPE_C, spin=1), 2, Partition())


# -- q-dimension -------------------------------------------------------------


def test_qdim_examples():
    assert qdim(SIDE_GL, 2, Partition((1,))).expand() == QLaurent(0, (1, 1))
    assert qdim(Side(TYPE_B), 3, Partition()).expand() == QLaurent.one()
    for k in (2, 3, 4, 5):
        assert qdim(Side(TYPE_D, spin=1), k, Partition()).expand() == \
            q_power_plus_one_product(range(1, k))


def test_qdim_at_one_is_weyl_dimension():
    sides = {Side(lie) for lie in (TYPE_A, TYPE_B, TYPE_C, TYPE_D)}
    for lam in enumerate_in_box(3, 3):
        for side in sides.union(_SIDES):
            assert qdim(side, 3, lam).expand().at_one() == \
                weyl_dimension(side, 3, lam)


def test_qdim_errors():
    with pytest.raises(ValueError):
        qdim(SIDE_GL, 2, (0, 1))  # not dominant
    with pytest.raises(ValueError):
        qdim(SIDE_GL, 2, (Fraction(1, 2), 0))  # not an int
    with pytest.raises(ValueError):
        qdim(Side(TYPE_C, spin=1), 1, Partition())  # non-integral pairing


@given(st.sampled_from(_SIDES), _boxed(), st.sampled_from([1, -1]))
@settings(max_examples=150, deadline=None)
def test_q_side_ratio_matches_qdim(side, box, delta):
    # qdim at lam times the walk's one-box q-ratio, its pairings and its
    # class q-integers, is qdim at the weight a box larger or smaller.  At
    # the empty weight a G2 side's qdim is 1, or prod_{0<=a<k} (1 + q^a) on
    # a Pin side (a spin G1 side's is its spinor q-dimension)
    rank, k, lam = box
    if side in {row.g2 for row in (*VERIFY_ROWS.values(),
                                   *multiplicity.PAIR_ROWS.values())}:
        empty = QProduct()
        if side == SIDE_PIN:
            for a in range(k):
                power_plus_one(empty, a)
        assert qdim(side, k, ()) == empty
    coords = doubled_coordinates(lam, rank, side.shift)
    rows = addable_corners(lam, rank, k) if delta > 0 else removable_corners(lam)
    for row in rows:
        new = with_row(lam, row, lam.part(row) + delta)
        ups, downs, class_ups, class_downs = multiplicity._q_side_ratio(
            side, coords, row - 1, 2 * delta)
        moved = qdim(side, rank, lam).q_ints(ups + class_ups)
        assert moved.q_ints(downs + class_downs, -1) == qdim(side, rank, new)


def test_bareiss_determinant():
    mat = [[QLaurent.of(v) for v in row]
           for row in ((2, 3, 1), (0, 1, 4), (5, 6, 0))]
    assert qlaurent_determinant(mat).at_one() == \
        2 * (1 * 0 - 4 * 6) - 3 * (0 - 20) + 1 * (0 - 5)
    assert qlaurent_determinant([]).at_one() == 1
    zero_col = [[QLaurent.of(0), QLaurent.one()],
                [QLaurent.of(0), QLaurent.one()]]
    assert qlaurent_determinant(zero_col).is_zero


# -- the pivoted Bareiss determinant against the Leibniz expansion -------------


def _leibniz_determinant(matrix: list[list[QLaurent]]) -> QLaurent:
    """sum over permutations s of sign(s) prod_i m[i][s(i)], by expansion
    along the first row: no pivot and no division."""
    if not matrix:
        return QLaurent.one()
    total = QLaurent.of(0)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero:
            continue
        minor = _leibniz_determinant([row[:j] + row[j + 1:]
                                      for row in matrix[1:]])
        term = entry * minor
        total = total + term if j % 2 == 0 else total - term
    return total


_laurents = st.one_of(
    st.just(QLaurent.of(0)),
    st.builds(QLaurent, st.integers(-3, 3),
              st.lists(st.integers(-4, 4), min_size=1, max_size=5)))


@st.composite
def _laurent_matrices(draw):
    """Square matrices of order 0..5 over Z[q, 1/q], with zero entries and
    negative min_exp; some made singular by a repeated row or a zero
    column."""
    n = draw(st.integers(0, 5))
    matrix = [[draw(_laurents) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "repeated row", "zero column"]))
    if n >= 2 and kind == "repeated row":
        i, j = draw(st.permutations(range(n)))[:2]
        matrix[j] = matrix[i][:]
    elif n >= 1 and kind == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in matrix:
            row[j] = QLaurent.of(0)
    return matrix


@given(_laurent_matrices())
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_leibniz(matrix):
    assert qlaurent_determinant(matrix) == _leibniz_determinant(matrix)


@pytest.mark.parametrize("short, det", [
    # where the first step swaps: a row and a column, the same from the
    # last row, a row only, a column only
    ((1, 1), 24),
    ((2, 1), 13),
    ((1, 0), 24),
    ((0, 1), -3),
])
def test_bareiss_pivots_on_the_shortest_entry(short, det, monkeypatch):
    # the longest entry, 1 + q + q^2 + q^3, sits at (0, 0); the constant 5
    # at short is the one entry with a single coefficient
    q = QLaurent(1, (1,))
    matrix = [[QLaurent(0, (1, 1, 1, 1)), 1 + q, 2 + q],
              [1 + 2 * q, 2 + q, 1 + q],
              [1 + q, 1 + 3 * q, 2 + q]]
    matrix[short[0]][short[1]] = QLaurent.of(5)
    divisors = []
    real = QLaurent.divide_exact

    def recording(self, other):
        divisors.append(other)
        return real(self, other)

    monkeypatch.setattr(QLaurent, "divide_exact", recording)
    value = qlaurent_determinant(matrix)
    # the last division, in the second step, is by the first pivot: the
    # shortest entry
    assert divisors[-1] == 5
    assert value == _leibniz_determinant(matrix)
    assert value.at_one() == det


def test_path_degrees_are_the_entry_degrees():
    # _fill_cost reads each entry's degree off its endpoints in closed form
    for (series, p) in VERIFY_ROWS:
        for n in range(5):
            for k in range(5):
                for lam in enumerate_in_box(n, k):
                    starts, ends = multiplicity.lgv_endpoints(series, lam, n,
                                                              k, p)
                    for start in starts:
                        for end in ends:
                            entry = multiplicity._path_count(series, start, end)
                            degree = (-1 if entry.is_zero else
                                      entry.min_exp + len(entry.coeffs) - 1)
                            assert multiplicity._path_degree(
                                series, start, end) == degree


@given(st.sampled_from(["A", "BC", "D"]), st.integers(-2, 12),
       st.integers(-2, 12), st.integers(-3, 3), st.integers(-3, 3))
@example("BC", 3, 5, 0, 0)
@example("BC", 12, 12, 1, 1)
@example("BC", 0, 0, -1, -1)
@example("A", -1, 4, 0, 0)
@example("D", 4, -2, 0, 0)
@settings(max_examples=300, deadline=None)
def test_path_count_at_one_is_the_q_count_at_one(series, dx, dy, x, y):
    # lgv_at_one's int count against the Z[q] count it stands for, on
    # vanishing steps and BC's dy > dx included; A and D ends lie dx + dy
    # = k + i or 2(k + i) + p >= 0 steps away, and q_binomial refuses a
    # negative top
    assume(series == "BC" or dx + dy >= 0)
    start, end = (x, y), (x + dx, y + dy)
    assert multiplicity._path_count_at_one(series, start, end) == \
        multiplicity._path_count(series, start, end).at_one()


def test_verify_cost_fill_is_the_path_table_sum():
    # the closed form against its definition: over the n x (n + k) path
    # counts of the table, (degree + 1) times the steps dx + dy
    for (series, p) in VERIFY_ROWS:
        for n in range(9):
            for k in range(9):
                fill = 0
                if n:
                    starts, ends = multiplicity.lgv_endpoints(
                        series, Partition(), n, k, p)
                    x, y = ends[0]
                    for sx, sy in starts:
                        for c in range(n + k):
                            degree = multiplicity._path_degree(
                                series, (sx, sy), (x + c, y - c))
                            fill += (degree + 1) * (x + y - sx - sy)
                spec = DualitySpec(series, n, k, p)
                assert multiplicity.verify_cost(spec) == fill + \
                    comb(n + k, n) * spec.row.exponent(n, k) * (n + k) ** 2
    assert [multiplicity.verify_cost(DualitySpec(series, n, 1, p))
            for series, n, p in [("BC", 60, 0), ("A", 100, 0), ("BC", 80, 0),
                                 ("D", 40, 1)]] == \
        [243386584, 445039330, 986500512, 39189316]


def _expand_steps(product) -> int:
    """The coefficients QProduct.expand walks: a stride over the polynomial
    so far for each factor 1 - q^m it multiplies in, then for each one it
    divides out."""
    ups = sorted(m for m, e in product.exps.items() for _ in range(e))
    downs = sorted((m for m, e in product.exps.items() for _ in range(-e)),
                   reverse=True)
    top = steps = 0
    for m in ups + [-m for m in downs]:
        steps += top + 1
        top += m
    return steps


def test_mult_cost_covers_the_matrix_and_the_product():
    # mult_cost is twice its matrix price plus n^3 Bareiss updates; the
    # matrix price covers every weight's n^2 path counts, (degree + 1)
    # times steps as in _fill_cost, and the product's expansion
    rng = random.Random(5)
    boxes = [(n, k) for n in range(5) for k in range(5)] + [
        (n, k) for n in range(0, 31, 6) for k in range(0, 61, 12)] + [
        (1, 300), (2, 200), (3, 100), (60, 1), (50, 0)]
    for (series, p), row in VERIFY_ROWS.items():
        for n, k in boxes:
            cost = multiplicity.mult_cost(series, n, k, p)
            matrix, odd = divmod(cost - n ** 3 * multiplicity._BAREISS_STEP, 2)
            assert not odd
            if n <= 4 and k <= 4:
                weights = list(enumerate_in_box(n, k))
            else:
                weights = [Partition(), Partition((k,) * n), Partition(sorted(
                    (rng.randint(0, k) for _ in range(n)), reverse=True))]
            for lam in weights:
                starts, ends = multiplicity.lgv_endpoints(series, lam, n, k, p)
                paths = sum((multiplicity._path_degree(series, s, e) + 1)
                            * (e[0] + e[1] - s[0] - s[1])
                            for s in starts for e in ends)
                assert paths <= matrix, (series, p, n, k, lam)
                expand = _expand_steps(row.formula("prod", lam, n, k))
                assert expand <= matrix, (series, p, n, k, lam)
    assert [multiplicity.mult_cost(series, n, k, 0)
            for series, n, k in [("BC", 12, 12), ("D", 12, 12), ("BC", 25, 0),
                                 ("BC", 30, 30), ("BC", 60, 0), ("A", 100, 1)]
            ] == [4158352, 4309628, 8709120, 392727544, 453028688, 940018460]


# -- lattice paths: the endpoint table against the index formulas it replaced --


def _ref_matrix(series: str, lam, n: int, k: int, p: int) -> list[list[QLaurent]]:
    """The determinant matrices as q-binomial and q-Catalan index formulas,
    BC's at the paper's a(i, j), b(i, j) for i, j = 1..n."""
    if series == "A":
        padded = Partition.of(lam).padded(n)
        return [[q_binomial(k + i, j + padded[n - 1 - j]) for j in range(n)]
                for i in range(n)]
    if series == "BC":
        lam = Partition.of(lam)
        return [[catalan_triangle_q(2 * n - i - j + k + p + lam.part(j),
                                    j - i + k - lam.part(j))
                 for j in range(1, n + 1)] for i in range(1, n + 1)]
    padded = Partition.of(lam).padded(n)
    return [[q_binomial(2 * (k + i) + p, k + i - j - padded[n - 1 - j])
             for j in range(n)] for i in range(n)]


# -- the dual-pair rows: their derived facts, pinned as literals -----------------

#: (series, p) -> power(k) for k = 0..6, and the (s, top, base) of
#: _factorial_ends at the boxes (0, 0), (3, 4) and (5, 2)
_ROW_FACTS = {
    ("A", 0): ([0, 1, 2, 3, 4, 5, 6], [(0, -2, 0), (0, 12, 0), (0, 12, 0)]),
    ("BC", 0): ([0, 2, 4, 6, 8, 10, 12],
                [(1, -1, -1), (1, 13, 13), (1, 13, 13)]),
    ("BC", 1): ([1, 3, 5, 7, 9, 11, 13], [(2, 0, 0), (2, 14, 14), (2, 14, 14)]),
    ("D", 0): ([0, 2, 4, 6, 8, 10, 12], [(0, -2, -2), (0, 12, 12), (0, 12, 12)]),
    ("D", 1): ([1, 3, 5, 7, 9, 11, 13], [(1, -1, -1), (1, 13, 13), (1, 13, 13)]),
}

#: pair -> its --pair spelling, its limit-shape tag and exponent(n, k) at
#: the boxes (2, 3) and (5, 1)
_PAIR_FACTS = {
    "GL": ("GL", "GL", 6, 5),
    "SO_PIN": ("SO-PIN", "HALF", 15, 11),
    "SP": ("SP", "HALF", 12, 10),
    "O_SO": ("O-SO", "HALF", 12, 10),
}


def test_row_facts_are_the_pinned_table():
    assert set(VERIFY_ROWS) == set(_ROW_FACTS)
    for key, (powers, ends) in _ROW_FACTS.items():
        row = VERIFY_ROWS[key]
        assert [row.power(k) for k in range(7)] == powers, key
        assert [multiplicity._factorial_ends(row, n, k)
                for n, k in ((0, 0), (3, 4), (5, 2))] == ends, key


def test_pair_facts_are_the_pinned_table():
    from skewhowe import cli

    assert cli._PAIR_NAMES == {flag: pair for pair, (flag, *_) in
                               _PAIR_FACTS.items()}
    for pair, (_, shape, small, thin) in _PAIR_FACTS.items():
        row = multiplicity.PAIR_ROWS[pair]
        assert (row.shape, row.exponent(2, 3), row.exponent(5, 1)) == (
            shape, small, thin), pair


def test_path_lengths_are_the_row_powers():
    # path i runs from start i to end i; its length, dx + dy, is the
    # numerator factorial [power(k + i)]! that it gives the product form
    boxes = 0
    for (series, p), row in VERIFY_ROWS.items():
        for n in range(1, 7):
            for k in range(1, 7):
                for lam in (Partition(), Partition((k,) * n)):
                    starts, ends = multiplicity.lgv_endpoints(series, lam, n, k, p)
                    lengths = [e[0] + e[1] - s[0] - s[1]
                               for s, e in zip(starts, ends)]
                    assert sorted(lengths) == [row.power(k + i) for i in range(n)]
                boxes += 1
    assert boxes == 180


def test_path_table_matrices_match_index_formulas():
    cases = 0
    for n in range(5):
        for k in range(5):
            for lam in enumerate_in_box(n, k):
                assert lgv_matrix("A", lam, n, k, 0) == \
                    _ref_matrix("A", lam, n, k, 0)
                cases += 1
                for p in (0, 1):
                    # lgv_endpoints lists BC's paths by ascending position,
                    # i, j = n..1: the paper's matrix reversed in rows and
                    # columns, which leaves its determinant unchanged
                    assert lgv_matrix("BC", lam, n, k, p) == \
                        [row[::-1] for row in _ref_matrix("BC", lam, n, k, p)[::-1]]
                    assert lgv_matrix("D", lam, n, k, p) == \
                        _ref_matrix("D", lam, n, k, p)
                    cases += 2
    assert cases == 1255


# -- series A ------------------------------------------------------------------


def test_mult_A_examples():
    assert lgv_determinant("A", Partition((2, 2)), 2, 2, 0) == QLaurent.one()
    assert lgv_determinant("A", Partition((1, 1)), 2, 2, 0).at_one() == 3
    for k in range(5):
        for m in range(k + 1):
            lam = Partition((m,)) if m else Partition()
            assert lgv_determinant("A", lam, 1, k, 0).at_one() == comb(k, m)
    with pytest.raises(ValueError):
        lgv_determinant("A", Partition((3,)), 1, 2, 0)


def mult_det_A_binomial(lam, n: int, k: int, variant: int = 1) -> int:
    """The two q=1 determinant variants over ordinary binomials."""
    padded = Partition.of(lam).padded(n)

    def entry(i, j):
        if variant == 1:
            m = k + i - j - padded[n - 1 - j]
        else:
            m = j + padded[n - 1 - j]
        return comb(k + i, m) if 0 <= m <= k + i else 0

    mat = [[QLaurent.of(entry(i, j)) for j in range(n)] for i in range(n)]
    return qlaurent_determinant(mat).at_one()


def test_mult_A_binomial_variants_agree():
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        for lam in enumerate_in_box(n, k):
            at_one = lgv_determinant("A", lam, n, k, 0).at_one()
            assert mult_det_A_binomial(lam, n, k, variant=1) == at_one
            assert mult_det_A_binomial(lam, n, k, variant=2) == at_one


_FORMULA_BOXES = [(n, k) for n in range(4) for k in range(4)] + [(4, 2), (2, 4)]


@pytest.mark.parametrize("kind", ["prod", "dual"])
@pytest.mark.parametrize("key", list(VERIFY_ROWS),
                         ids=[f"{series}-{p}" for series, p in VERIFY_ROWS])
def test_mult_formula_equals_det(key, kind):
    # each series' product and dual q-dimension, built at the weight itself
    # and not walked, equal its LGV determinant by Bareiss, which uses
    # neither the walk nor the path table's chart
    row = VERIFY_ROWS[key]
    for n, k in _FORMULA_BOXES:
        for lam in enumerate_in_box(n, k):
            assert row.formula(kind, lam, n, k).expand() == \
                lgv_determinant(row.series, lam, n, k, row.p)


# -- series BC -------------------------------------------------------------------


def test_mult_BC_examples():
    assert lgv_determinant("BC", Partition(), 1, 1, 0).at_one() == 1
    assert lgv_determinant("BC", Partition((1,)), 1, 1, 0).at_one() == 1
    assert mult_prod_BC_q(Partition(), 1, 1, 0).expand() == \
        lgv_determinant("BC", Partition(), 1, 1, 0)


def test_bc_fixture_matrix():
    # entries of the determinant at q=1 for the empty diagram, l=3, k=4
    from skewhowe.exact import catalan_triangle_q
    entries = [catalan_triangle_q(2 * 3 - i - j + 4, j - i + 4).at_one()
               for i in range(1, 4) for j in range(1, 4)]
    fixture = [[275, 75, 20], [297, 90, 28], [132, 42, 14]]
    flat = [v for row in fixture for v in row]
    assert sorted(entries) == sorted(flat)
    mine = [[QLaurent.of(catalan_triangle_q(10 - i - j + 0, j - i + 4).at_one())
             for j in range(1, 4)] for i in range(1, 4)]
    fixture_mat = [[QLaurent.of(v) for v in row] for row in fixture]
    assert qlaurent_determinant(mine) == qlaurent_determinant(fixture_mat)


def test_bc_spinor_factor_division_is_exact():
    lam = Partition((1,))
    value = VERIFY_ROWS["BC", 0].formula("dual", lam, 2, 2)
    assert value.expand() == lgv_determinant("BC", lam, 2, 2, 0)


# -- series D ---------------------------------------------------------------------


def test_mult_D_examples():
    for k in (1, 2, 3):
        assert lgv_determinant("D", Partition(), 1, k, 0).at_one() == \
            comb(2 * k, k)
    lam = Partition((2, 1, 1))  # and its sign flip 2,1,-1 (see test_cli)
    for p in (0, 1):
        assert mult_prod_D_q(lam, 3, 3, p).expand() == \
            lgv_determinant("D", lam, 3, 3, p)


def _ref_dual_qdim_identity_D0(lam: Partition, n: int, k: int) -> QLaurent:
    """The D p = 0 dual side from the plain SO side: the type D_k
    q-dimension at mu times the O class count, with every boundary column
    (q^(mu_i + k - i) + 1) / (q^(k - i) + 1) multiplied in densely, the
    last column's 1 + q^0 = 2 as the Fraction constant 1/2."""
    comp = lam.complement(n, k)
    mu = comp.conjugate()
    num, den = qdim(Side(TYPE_D), k, mu).expand(), QLaurent.one()
    if mu.part(k):
        num = num * QLaurent.of(2)
    for i in range(1, k + 1):
        num = num * q_power_plus_one(mu.part(i) + k - i)
    for i in range(1, k):
        den = den * q_power_plus_one(k - i)
    const = Fraction(1, 2) if k else Fraction(1)
    coeffs = [const * c for c in num.divide_exact(den).coeffs]
    assert all(c.denominator == 1 for c in coeffs)
    return QLaurent(num.min_exp - den.min_exp + comp.weighted_size,
                    [c.numerator for c in coeffs])


def test_d_boundary_column_folds_into_an_int_constant():
    # the class factor 2 of a full-length mu takes the last column's 1/2
    for n in range(6):
        for k in range(6):
            for lam in enumerate_in_box(n, k):
                value = VERIFY_ROWS["D", 0].formula("dual", lam, n, k)
                assert type(value.const) is int
                assert value.expand() == _ref_dual_qdim_identity_D0(lam, n, k)


#: (series, p, n, k) -> weight -> the canonical form (const, shift, exps) of
#: the dual side, formula("dual", lam, n, k), as the per-(series, p) code
#: built it: BC p = 0 divided by the spinor factor, D p = 0 times the
#: boundary-column ratio.  A QProduct's canonical form is unique for each
#: rational function (QProduct.__eq__), so these hold the values, not the code
_DUAL_PINS = {
    ('BC', 0, 3, 3): {
        "": (1, 9, {2: -1, 3: -1, 4: -1, 8: 1, 9: 1, 10: 1}),
        "3": (1, 3, {2: -1, 3: -1, 4: -1, 6: 1, 7: 1, 8: 1}),
        "3,3": (1, 0, {2: -1, 3: -1, 5: 1, 6: 1}),
        "3,3,3": (1, 0, {}),
        "3,3,2": (1, 0, {1: -1, 5: 1}),
        "3,3,1": (1, 0, {1: -1, 2: -1, 3: 1, 6: 1}),
        "3,2": (1, 1, {1: -1, 2: -1, 6: 1, 7: 1}),
        "3,2,2": (1, 1, {1: -1, 2: -1, 5: 1, 6: 1}),
        "3,2,1": (1, 1, {1: -2, 5: 1, 7: 1}),
        "3,1": (1, 2, {1: -1, 2: -1, 4: -1, 5: 1, 6: 1, 8: 1}),
        "3,1,1": (1, 2, {1: -1, 2: -2, 4: 1, 5: 1, 8: 1}),
        "2": (1, 5, {1: -1, 2: -1, 4: -1, 6: 1, 8: 1, 9: 1}),
        "2,2": (1, 3, {1: -1, 2: -2, 4: 1, 7: 1, 8: 1}),
        "2,2,2": (1, 3, {1: -1, 2: -1, 3: -1, 5: 1, 6: 1, 7: 1}),
        "2,2,1": (1, 3, {1: -2, 2: -1, 3: 1, 4: -1, 5: 1, 6: 1, 8: 1}),
        "2,1": (1, 4, {1: -2, 3: -1, 5: 1, 7: 1, 9: 1}),
        "2,1,1": (1, 4, {1: -2, 2: -1, 5: 1, 6: 1, 9: 1}),
        "1": (1, 7, {1: -1, 2: -1, 4: -1, 7: 1, 8: 1, 10: 1}),
        "1,1": (1, 6, {1: -1, 2: -2, 6: 1, 7: 1, 10: 1}),
        "1,1,1": (1, 6, {1: -1, 2: -2, 3: -1, 5: 2, 6: 1, 10: 1}),
    },
    ('BC', 0, 2, 4): {
        "": (1, 4, {2: -1, 3: -1, 4: -2, 5: -1, 7: 1, 8: 2, 9: 1, 10: 1}),
        "4": (1, 0, {2: -1, 3: -1, 4: -1, 6: 1, 7: 1, 8: 1}),
        "4,4": (1, 0, {}),
        "4,3": (1, 0, {1: -1, 7: 1}),
        "4,2": (1, 0, {1: -1, 2: -1, 5: 1, 8: 1}),
        "4,1": (1, 0, {1: -1, 2: -1, 7: 1, 8: 1}),
        "3": (1, 1, {1: -1, 2: -1, 3: -1, 7: 1, 8: 1, 9: 1}),
        "3,3": (1, 1, {1: -1, 2: -1, 7: 1, 8: 1}),
        "3,2": (1, 1, {1: -2, 3: -1, 5: 1, 7: 1, 9: 1}),
        "3,1": (1, 1, {1: -2, 2: -1, 3: 1, 4: -1, 6: 1, 8: 1, 9: 1}),
        "2": (1, 2, {1: -1, 2: -2, 5: -1, 7: 2, 8: 1, 10: 1}),
        "2,2": (1, 2, {1: -1, 2: -2, 3: -1, 5: 1, 6: 1, 7: 1, 10: 1}),
        "2,1": (1, 2, {1: -2, 2: -1, 4: -1, 5: 1, 7: 1, 8: 1, 10: 1}),
        "1": (1, 3, {1: -1, 2: -1, 3: -1, 4: -1, 7: 1, 8: 1, 9: 1, 10: 1}),
        "1,1": (1, 3, {1: -1, 2: -2, 3: -1, 5: 1, 8: 1, 9: 1, 10: 1}),
    },
    ('D', 0, 3, 3): {
        "": (1, 9, {2: -1, 3: -2, 4: -2, 5: -1, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1}),
        "3": (1, 3, {2: -2, 3: -2, 4: -1, 5: 1, 6: 2, 7: 1, 8: 1}),
        "3,3": (1, 0, {1: -1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1}),
        "3,3,3": (1, 0, {}),
        "3,3,2": (1, 0, {1: -1, 6: 1}),
        "3,3,1": (1, 0, {1: -1, 2: -1, 5: 1, 6: 1}),
        "3,2": (1, 1, {1: -2, 2: -1, 3: 1, 4: -1, 5: 1, 6: 1, 8: 1}),
        "3,2,2": (1, 1, {1: -1, 2: -1, 5: 1, 8: 1}),
        "3,2,1": (1, 1, {1: -2, 3: -1, 4: 1, 6: 1, 8: 1}),
        "3,1": (1, 2, {1: -2, 3: -1, 4: -1, 5: 1, 6: 1, 7: 1, 8: 1}),
        "3,1,1": (1, 2, {1: -1, 2: -2, 6: 1, 7: 1, 8: 1}),
        "2": (1, 5, {1: -1, 2: -2, 3: -1, 6: 1, 7: 1, 8: 1, 10: 1}),
        "2,2": (1, 3, {1: -2, 2: -2, 3: 1, 4: 1, 5: -1, 6: 1, 7: 1, 10: 1}),
        "2,2,2": (1, 3, {1: -1, 2: -1, 3: -1, 5: 1, 6: 1, 10: 1}),
        "2,2,1": (1, 3, {1: -2, 2: -1, 5: 1, 7: 1, 10: 1}),
        "2,1": (1, 4, {1: -3, 2: 1, 3: -2, 4: 1, 5: -1, 6: 2, 8: 1, 10: 1}),
        "2,1,1": (1, 4, {1: -2, 2: -1, 4: -1, 5: 1, 6: 1, 8: 1, 10: 1}),
        "1": (1, 7, {1: -1, 2: -2, 4: -1, 5: -1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}),
        "1,1": (1, 6, {1: -2, 2: -1, 4: -1, 6: 1, 8: 1, 9: 1, 10: 1}),
        "1,1,1": (1, 6, {1: -1, 2: -2, 3: -1, 5: 1, 8: 1, 9: 1, 10: 1}),
    },
    ('D', 0, 2, 4): {
        "": (1, 4, {2: -2, 3: -2, 4: -2, 5: -1, 6: 1, 7: 2, 8: 2, 9: 1, 10: 1}),
        "4": (1, 0, {1: -1, 2: -1, 3: -1, 4: -1, 5: 1, 6: 1, 7: 1, 8: 1}),
        "4,4": (1, 0, {}),
        "4,3": (1, 0, {1: -1, 8: 1}),
        "4,2": (1, 0, {1: -1, 2: -1, 7: 1, 8: 1}),
        "4,1": (1, 0, {1: -1, 2: -1, 3: -1, 6: 1, 7: 1, 8: 1}),
        "3": (1, 1, {1: -2, 2: -1, 3: -1, 4: 1, 5: -1, 6: 1, 7: 1, 8: 1, 10: 1}),
        "3,3": (1, 1, {1: -1, 2: -1, 7: 1, 10: 1}),
        "3,2": (1, 1, {1: -2, 3: -1, 6: 1, 8: 1, 10: 1}),
        "3,1": (1, 1, {1: -2, 2: -1, 4: -1, 5: 1, 7: 1, 8: 1, 10: 1}),
        "2": (1, 2, {1: -2, 2: -2, 3: 1, 4: -1, 5: -1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}),
        "2,2": (1, 2, {1: -1, 2: -2, 3: -1, 5: 1, 8: 1, 9: 1, 10: 1}),
        "2,1": (1, 2, {1: -2, 2: -1, 3: -1, 7: 1, 8: 1, 9: 1, 10: 1}),
        "1": (1, 3, {1: -2, 3: -2, 4: -1, 5: -1, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1}),
        "1,1": (1, 3, {1: -1, 2: -2, 3: -1, 4: -1, 7: 1, 8: 2, 9: 1, 10: 1}),
    },
}


def test_dual_sides_are_the_pinned_values():
    for (series, p, n, k), pins in _DUAL_PINS.items():
        weights = list(enumerate_in_box(n, k))
        assert [str(lam) for lam in weights] == list(pins)
        for lam, (const, shift, exps) in zip(weights, pins.values()):
            want = QProduct(const, shift)
            want.exps = dict(exps)
            got = VERIFY_ROWS[series, p].formula("dual", lam, n, k)
            assert got == want, (series, p, n, k, str(lam))


# -- duality reports ----------------------------------------------------------------


def test_verify_duality_small():
    report = verify_duality(DualitySpec("A", 2, 2))
    assert report.ok and report.checked == 6
    report = verify_duality(DualitySpec("BC", 2, 2, 1))
    assert report.ok
    report = verify_duality(DualitySpec("D", 2, 2, 0))
    assert report.ok


def test_verify_duality_rectangular_boxes():
    for spec in (DualitySpec("A", 4, 2), DualitySpec("BC", 4, 2, 0),
                 DualitySpec("BC", 2, 4, 1), DualitySpec("D", 4, 2, 1),
                 DualitySpec("D", 2, 4, 0)):
        report = verify_duality(spec)
        assert report.ok, (spec, report.violations[:2])


def test_duality_spec_validation():
    with pytest.raises(ValueError):
        DualitySpec("A", 2, 2, 1)
    with pytest.raises(ValueError):
        DualitySpec("E", 2, 2)


def test_complement_symmetry_at_q_one():
    for n in range(1, 5):
        for k in range(1, 5):
            for lam in enumerate_in_box(n, k):
                comp = lam.complement(n, k)
                assert lgv_determinant("A", lam, n, k, 0).at_one() == \
                    lgv_determinant("A", comp, n, k, 0).at_one()


def test_nonneg_coefficients():
    for lam in enumerate_in_box(3, 3):
        assert lgv_determinant("A", lam, 3, 3, 0).has_nonnegative_coeffs()
        assert lgv_determinant("BC", lam, 3, 3, 0).has_nonnegative_coeffs()
        assert lgv_determinant("D", lam, 3, 3, 1).has_nonnegative_coeffs()


# -- Hoggatt ---------------------------------------------------------------------------


def _b_product(n: int, k: int) -> int:
    return prod(comb(j + n - 1, n) for j in range(1, k + 1))


def hoggatt(n: int, k: int, m: int) -> int:
    """Entry H_{km} = b_n(k) / (b_n(m) b_n(k-m)) of the n-row triangle."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    out, rem = divmod(_b_product(n, k), _b_product(n, m) * _b_product(n, k - m))
    assert not rem, "Hoggatt entry is not an integer"
    return out


def hoggatt_q(n: int, k: int, m: int) -> QLaurent:
    """q-analog: the q-dimension of the n x m rectangle for gl_k."""
    return qdim(SIDE_GL, k, Partition((n,) * m)).expand()


def test_hoggatt_examples():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            assert hoggatt(n, k, 0) == 1
            for m in range(k + 1):
                assert hoggatt(n, k, m) == hoggatt(n, k, k - m)
    for k in range(5):
        for m in range(k + 1):
            assert hoggatt(1, k, m) == comb(k, m)
    with pytest.raises(ValueError):
        hoggatt(2, 3, 4)


def test_hoggatt_is_rectangle_multiplicity():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for m in range(k + 1):
                lam = Partition((m,) * n) if m else Partition()
                assert lgv_determinant("A", lam, n, k, 0).at_one() == \
                    hoggatt(n, k, k - m)


def test_hoggatt_q():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for m in range(k + 1):
                poly = hoggatt_q(n, k, m)
                assert poly.at_one() == hoggatt(n, k, m)
                rect = Partition((n,) * m) if m else Partition()
                assert poly == qdim(SIDE_GL, k, rect).expand()


def test_verify_duality_computes_each_determinant_once(monkeypatch):
    tables = []

    class CountedMinors(dict):
        stored = 0

        def __setitem__(self, cols, minor):
            CountedMinors.stored += 1
            super().__setitem__(cols, minor)

    class Recorded(multiplicity.PathTable):
        def __init__(self, *args):
            super().__init__(*args)
            self.minors = CountedMinors()
            tables.append(self)

    def refused(matrix):
        raise AssertionError("a Bareiss determinant")

    monkeypatch.setattr(multiplicity, "qlaurent_determinant", refused)
    monkeypatch.setattr(multiplicity, "PathTable", Recorded)
    report = verify_duality(DualitySpec("A", 5, 6))
    assert report.ok and report.checked == comb(11, 5)
    # one table; each (R, C) of the chart is a weight other than the full
    # box, and is stored at most once
    assert len(tables) == 1
    assert CountedMinors.stored == len(tables[0].minors)
    assert CountedMinors.stored <= comb(11, 5) - 1 == 461


@given(st.sampled_from(sorted(VERIFY_ROWS)), st.integers(0, 4),
       st.integers(0, 5))
@example(("A", 0), 0, 3)
@example(("A", 0), 16, 1)
@example(("A", 0), 6, 2)
@example(("BC", 0), 25, 0)
@example(("BC", 1), 3, 0)
@example(("D", 0), 0, 0)
@settings(max_examples=60, deadline=None)
def test_path_table_minors_match_bareiss(key, n, k):
    row = VERIFY_ROWS[key]
    table = PathTable(row.series, n, k, row.p)
    for lam in enumerate_in_box(n, k):
        det = lgv_determinant(row.series, lam, n, k, row.p)
        packed = table.packed(lam)
        assert table.matches(packed, det), lam
        assert _unpacked(table, packed) == det, lam


def _ref_columns(series: str, lam, n: int, k: int,
                 p: int) -> tuple[int, int, int]:
    """(R, C, sign) of lam's minor of the path table, read off the ends:
    each end is a column, the full box's n ends the pivots in the order it
    lists them, the others in x order.  A weight trades the pivots R (a
    bitmask) for the other columns C; its columns, read as positions (pivot
    j at j, the t-th column of C at the t-th position of R), give the sign
    as the parity of their inversions."""
    starts, low = multiplicity.lgv_endpoints(series, Partition(), n, k, p)
    _, pivots = multiplicity.lgv_endpoints(series, Partition((k,) * n), n, k, p)
    columns = {end: j for j, end in enumerate(pivots)}
    if starts:
        d = sum(low[0])
        xs = [x for x, _ in low + pivots]
        others = [(x, d - x) for x in range(min(xs), max(xs) + 1)
                  if (x, d - x) not in columns]
        columns.update((end, ~c) for c, end in enumerate(others))
    _, ends = multiplicity.lgv_endpoints(series, lam, n, k, p)
    places = [columns[end] for end in ends]
    rows, cols = (1 << n) - 1, 0
    for j in places:
        if j >= 0:
            rows ^= 1 << j
        else:
            cols |= 1 << ~j
    traded = dict(zip((c for c in range(k) if cols >> c & 1),
                      (j for j in range(n) if rows >> j & 1)))
    places = [j if j >= 0 else traded[~j] for j in places]
    inversions = sum(a > b for i, a in enumerate(places) for b in places[i + 1:])
    return rows, cols, -1 if inversions % 2 else 1


@given(st.sampled_from(sorted(VERIFY_ROWS)), st.integers(0, 6),
       st.integers(0, 6))
@example(("BC", 0), 4, 0)
@example(("D", 1), 3, 0)
@example(("A", 0), 0, 4)
@example(("BC", 1), 0, 2)
@example(("BC", 0), 6, 6)
@example(("BC", 1), 5, 3)
@settings(max_examples=40, deadline=None)
def test_path_table_positions_match_the_end_map(key, n, k):
    # packed reads each weight's columns off its particle positions; the
    # map from ends to columns is the reference, in lgv_endpoints' order
    class Probe(PathTable):
        def minor(self, rows, cols):
            self.seen = rows, cols
            return 1

    series, p = key
    table = Probe(series, n, k, p)
    table.chart = []  # no lookup reaches the chart
    for lam in enumerate_in_box(n, k):
        sign = table.packed(lam)
        assert (*table.seen, sign) == _ref_columns(series, lam, n, k, p), lam


def test_path_table_refuses_a_weight_outside_its_box():
    with pytest.raises(ValueError):
        PathTable("A", 2, 3, 0).packed(Partition((4,)))


def _unpacked(table: PathTable, packed: int) -> QLaurent:
    """The polynomial of a packed minor, read off its balanced digits."""
    slot = table.slot
    return QLaurent(0, _unpack(packed, packed.bit_length() // (8 * slot) + 1,
                               slot))


def test_path_table_matches_is_a_proof():
    table = PathTable("A", 3, 3, 0)
    lam = Partition((2, 1))
    det, packed = lgv_determinant("A", lam, 3, 3, 0), table.packed(lam)
    slot = table.slot
    assert table.matches(packed, det)
    # X added to one coefficient and 1 taken from the next: the same
    # packed int, but a coefficient past X/2, so no proof
    x = 1 << (8 * slot)
    carried = QLaurent(det.min_exp, (det.coeffs[0] + x, det.coeffs[1] - 1)
                       + det.coeffs[2:])
    assert carried(x) == det(x)
    assert not table.matches(packed, carried)
    assert not table.matches(packed, det + QLaurent(0, (1,)))
    assert not table.matches(packed, -det)
    assert not table.matches(packed, QLaurent(-1, det.coeffs))
    assert table.matches(0, QLaurent(0, ()))
    assert not table.matches(1, QLaurent(0, ()))


def test_product_formulas_need_no_general_qlaurent_product(monkeypatch):
    from test_ensembles import q_measure_normalization

    def refused(self, other):
        raise AssertionError("a general QLaurent product")

    monkeypatch.setattr(QLaurent, "__mul__", refused)
    monkeypatch.setattr(QLaurent, "__rmul__", refused)
    mu = Partition((1, 1))  # full length, so every class rule doubles it
    assert sum(side.doubles(2, mu.part(2)) for side in _SIDES) == 2  # O and Pin
    for side in _SIDES:
        assert qdim(side, 2, mu).expand().at_one() == weyl_dimension(side, 2, mu)
    for row in VERIFY_ROWS.values():
        for lam in enumerate_in_box(2, 2):
            assert row.formula("prod", lam, 2, 2) == \
                row.formula("dual", lam, 2, 2)
            row.formula("prod", lam, 2, 2).expand()
    q_measure_normalization("A", 3, 3)  # the proven variant asserts itself
    assert hoggatt_q(2, 3, 1).at_one() == hoggatt(2, 3, 1)


# -- the walk over the box ------------------------------------------------------------


def _conjugate_qdim(lam: Partition, n: int, k: int):
    """The q-dimension of lam's conjugate, shifted as verify reads it."""
    value = qdim(SIDE_GL, k, lam.conjugate())
    value.shift += lam.complement(n, k).weighted_size
    return value


@given(st.sampled_from(sorted(VERIFY_ROWS)), st.integers(0, 5),
       st.integers(0, 5))
@example(("A", 0), 5, 5)
@example(("BC", 0), 5, 5)
@example(("BC", 1), 5, 5)
@example(("D", 0), 5, 5)
@example(("D", 1), 5, 5)
@settings(max_examples=30, deadline=None)
def test_walked_sides_equal_their_formulas(key, n, k):
    # each walked side is built from scratch once, at the empty diagram;
    # at every weight it must be the same factored form as its formula
    # there, also once the whole walk is done (no weight's sides are moved
    # on to the next)
    row = VERIFY_ROWS[key]
    weights = []
    for lam, sides, dim in list(multiplicity._walk(DualitySpec(row.series, n,
                                                               k, row.p))):
        want = [row.formula("prod", lam, n, k), row.formula("dual", lam, n, k)]
        if row.series == "A":
            want.append(_conjugate_qdim(lam, n, k))
        assert [side for _, side in sides] == want, lam
        assert dim == weyl_dimension(row.g1, n, lam), lam
        weights.append(lam)
    assert weights == list(enumerate_in_box(n, k))


@pytest.mark.parametrize("n, k", [(3, 3), (6, 6), (2, 9), (9, 2)])
def test_walk_moves_each_side_by_o_of_n_plus_k_q_integers(n, k, monkeypatch):
    from skewhowe.exact import QProduct

    real = QProduct.q_ints
    counted = []

    def counting(self, ks, e=1):
        ks = list(ks)
        counted.append(len(ks))
        return real(self, ks, e)

    for series, p in VERIFY_ROWS:
        walk = multiplicity._walk(DualitySpec(series, n, k, p))
        next(walk)  # the empty diagram, where each side is built from scratch
        monkeypatch.setattr(QProduct, "q_ints", counting)
        weights = 1 + sum(1 for _ in walk)
        monkeypatch.setattr(QProduct, "q_ints", real)
        # each weight but the empty one is grown by one box, which moves
        # the pairings of one coordinate on each side: at most 4(n + k) + 4
        # q-integers a weight, where building the sides at each weight
        # takes O(n^2 + nk) (29 (n + k) a weight for BC 6x6)
        assert sum(counted) <= (4 * (n + k) + 4) * weights, (series, p)
        counted.clear()
