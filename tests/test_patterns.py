"""The GT pattern engine, and the counting oracles no command runs:
Proctor patterns, King and Sundaram tableaux, MacMahon boxes,
semistandard tableaux and the psi involution, the NILP enumeration behind
the LGV determinants, and the inverse lozenge bijection."""

import random
from dataclasses import dataclass
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from skewhowe.multiplicity import (SIDE_GL, Side, TYPE_B, TYPE_C, TYPE_D,
                                   lgv_endpoints, weyl_dimension)
from skewhowe.partitions import Partition
from boxes import enumerate_in_box, lgv_determinant
from skewhowe import patterns
from skewhowe.patterns import (GTPattern, count_gt, count_gt_and_pattern_at,
                               gt_to_lozenge)

# -- GT patterns -----------------------------------------------------------


def gt_patterns(lam, k: int) -> list[GTPattern]:
    """The GT patterns with top row lam, listed by rank from one engine
    (count_gt_and_pattern_at builds one per rank)."""
    engine, top = patterns._gt_engine(lam, k)
    return [GTPattern(engine.pattern_at(top, i)[::-1])
            for i in range(engine.count(top))]


def test_gt_validation():
    GTPattern(((1,), (2, 0)))
    with pytest.raises(ValueError):
        GTPattern(((2,), (1, 0)))  # interlacing violated
    with pytest.raises(ValueError):
        GTPattern(((1, 1),))


def test_count_gt_examples():
    assert count_gt(Partition(), 4) == 1
    assert count_gt(Partition((1,)), 2) == 2
    assert count_gt(Partition((2, 1)), 2) == 2


def test_count_gt_is_weyl_dimension():
    for k in (1, 2, 3, 4):
        for lam in enumerate_in_box(min(k, 4), 4):
            assert count_gt(lam, k) == weyl_dimension(SIDE_GL, k, lam)


def test_enumerate_gt_matches_count():
    # the ranks give count_gt distinct patterns
    for lam in enumerate_in_box(3, 3):
        assert len(set(gt_patterns(lam, 3))) == count_gt(lam, 3)


def _reference_interlacings(upper):
    """All rows of length len(upper)-1 interlacing below the given row."""
    if len(upper) == 1:
        yield ()
        return

    def rec(i, acc):
        if i == len(upper) - 1:
            yield acc
            return
        prev = acc[-1] if acc else None
        for v in range(upper[i], upper[i + 1] - 1, -1):
            if prev is not None and v > prev:
                continue
            yield from rec(i + 1, acc + (v,))

    yield from rec(0, ())


def _reference_gt_rows(lam, k):
    """Rows of the GT patterns by their own row recursion, in the order
    of their ranks."""
    def rec(row):
        if len(row) == 1:
            yield (row,)
            return
        for below in _reference_interlacings(row):
            for rest in rec(below):
                yield rest + (row,)

    yield from rec(Partition.of(lam).padded(k))


def test_enumerate_gt_keeps_the_reference_order():
    cases = 0
    for k in range(1, 6):
        for lam in enumerate_in_box(k, 5):
            assert [g.rows for g in gt_patterns(lam, k)] == \
                list(_reference_gt_rows(lam, k)), (lam, k)
            cases += 1
    assert cases == 461


def test_gt_pattern_at_is_the_enumeration_index():
    for k in range(1, 5):
        for lam in enumerate_in_box(k, 4):
            listed = gt_patterns(lam, k)
            total = len(listed)
            for i, pattern in enumerate(listed):
                assert count_gt_and_pattern_at(lam, k, i) == (total, pattern), \
                    (lam, k, i)
            for i in (total, -1):
                with pytest.raises(ValueError, match=(
                        rf"index {i} out of range \(count {total}\)")):
                    count_gt_and_pattern_at(lam, k, i)


def test_gt_needs_a_row():
    for call in (lambda: count_gt((), 0),
                 lambda: count_gt_and_pattern_at((), 0, 0)):
        with pytest.raises(ValueError, match="a GT pattern needs k >= 1 rows"):
            call()


def test_pattern_budget(monkeypatch):
    # 64 patterns of (3, 2, 1) in gl_4, counted from 56 generated rows
    assert count_gt((3, 2, 1), 4) == 64
    monkeypatch.setattr(patterns, "EXHAUSTIVE_BUDGET", 30)
    for call in (lambda: count_gt((3, 2, 1), 4),
                 lambda: count_gt_and_pattern_at((3, 2, 1), 4, 63),
                 lambda: count_proctor("C", (3, 2, 1), 3)):
        with pytest.raises(ValueError, match="budget of 30"):
            call()


# -- Proctor patterns --------------------------------------------------------
#
# The Proctor oracle (Proctor, J. Algebra 164, 1994): one interlacing engine
# over a row plan per series, on doubled entries so that type B rows may
# carry a half-integer last entry and type D rows a signed one.  Under the
# A plan it lists the GT patterns, which checks the engine of patterns.py.


def _row_plan(series: str, k: int):
    """Length and kind of each pattern row, top first.

    Kinds: "int" (all entries integers, nonnegative), "half" (last entry
    may be a half-integer, stored doubled), "signed" (last entry may be
    negative).  Doubled-entry interlacing chains run top to bottom.
    """
    if series == "A":
        # GT rows k, k-1, ..., 1
        return [(m, "int") for m in range(k, 0, -1)]
    if series == "C":
        # full rows 2k, 2k-1, ..., 1 -> halves k, k, k-1, k-1, ..., 1, 1
        return [(m, "int") for m in range(k, 0, -1) for _ in (0, 1)]
    if series == "B":
        # odd-origin rows may carry a half-integer last entry
        return [(m, kind) for m in range(k, 0, -1) for kind in ("int", "half")]
    if series == "D":
        # full rows 2k-1, ..., 1 -> halves k, k-1, k-1, ..., 1, 1 where the
        # odd-origin rows (first of each pair) have a signed last entry
        plan = [(k, "signed")]
        for m in range(k - 1, 0, -1):
            plan.append((m, "int"))
            plan.append((m, "signed"))
        return plan
    raise ValueError(f"unknown series {series!r}")


def _child_values(row: tuple[int, ...], length: int, kind: str):
    """Per entry, top value first, the values of a row of the given
    length and kind interlacing below `row` (doubled values).

    Interlacing compares absolute values; the sign or half-integer
    freedom lives only in the last entry of its row.  Entry i lies
    between |row[i+1]| and |row[i]|, so neighbouring entries share at most
    an endpoint and the rows are the product of these value lists.
    """
    values = []
    for i in range(length):
        hi = abs(row[i])
        lo = abs(row[i + 1]) if i + 1 < len(row) else 0
        if i == length - 1 and kind == "half":
            values.append(range(hi, lo - 1, -1))  # any half-integer step
        elif i == length - 1 and kind == "signed":
            values.append([s for v in range(hi - (hi & 1), lo - 1, -2)
                           for s in ((v, -v) if v else (0,))])
        else:
            values.append(range(hi - (hi & 1), lo - 1, -2))  # integers only
    return values


class PlanInterlacing:
    """The interlacing engine: patterns below a doubled top row whose rows
    follow a row plan, counted and ranked in one order.

    count(row, depth) is the number of ways to complete a pattern below
    the row at that depth of the plan; it is memoized and shared by
    counting and ranking.  Rows are generated in batches, one batch of
    children per row, and more than patterns.EXHAUSTIVE_BUDGET of them
    raise.
    """

    def __init__(self, plan):
        self.plan = plan
        self.rows = 0
        self.counts = {}

    def children(self, row: tuple[int, ...], depth: int):
        values = _child_values(row, *self.plan[depth])
        self.rows += prod(map(len, values))
        if self.rows > patterns.EXHAUSTIVE_BUDGET:
            raise ValueError("the patterns take more rows than the budget "
                             f"of {patterns.EXHAUSTIVE_BUDGET}")
        return product(*values)

    def count(self, row: tuple[int, ...], depth: int) -> int:
        if depth >= len(self.plan):
            return 1
        key = (row, depth)
        if key not in self.counts:
            self.counts[key] = sum(self.count(child, depth + 1)
                                   for child in self.children(row, depth))
        return self.counts[key]

    def pattern_at(self, top: tuple[int, ...], index: int):
        """The index-th pattern below top: walk down the plan, skipping
        whole subtrees by their counts."""
        total = self.count(top, 1)
        if not 0 <= index < total:
            raise ValueError(f"index {index} out of range (count {total})")
        rows = (top,)
        for depth in range(1, len(self.plan)):
            for child in self.children(rows[-1], depth):
                below = self.count(child, depth + 1)
                if index < below:
                    break
                index -= below
            rows += (child,)
        return rows


def plan_engine(series: str, lam, k: int):
    """The engine of the series' row plan, and lam's doubled top row."""
    lam = Partition.of(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    return PlanInterlacing(_row_plan(series, k)), tuple(2 * v for v in lam.padded(k))


def count_proctor(series: str, lam, k: int) -> int:
    """Number of Proctor patterns with the given top row: the dimension
    of the irreducible for sp_2k (C), so_{2k+1} (B), or so_2k (D)."""
    engine, top = plan_engine(series, lam, k)
    return engine.count(top, 1)


def proctor_patterns(series: str, lam, k: int) -> list[tuple]:
    """The Proctor patterns with top row lam, listed by rank, as tuples of
    doubled rows, top row first."""
    engine, top = plan_engine(series, lam, k)
    return [engine.pattern_at(top, i) for i in range(engine.count(top, 1))]


@st.composite
def gt_tops(draw):
    """A top row of at most 6 entries, each at most 8, and a rank."""
    k = draw(st.integers(1, 6))
    parts = sorted(draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)),
                   reverse=True)
    return Partition.of(tuple(v for v in parts if v)), k


@settings(max_examples=150, deadline=None)
@given(gt_tops(), st.integers(0, 2**64))
def test_gt_engine_matches_the_plan_engine(top, draw):
    # every top row drawn stays inside the pattern budget
    lam, k = top
    total = count_gt(lam, k)
    engine, doubled = plan_engine("A", lam, k)
    assert total == weyl_dimension(SIDE_GL, k, lam) == engine.count(doubled, 1)
    index = draw % total
    halved = tuple(tuple(v // 2 for v in row)
                   for row in engine.pattern_at(doubled, index))
    assert count_gt_and_pattern_at(lam, k, index) == \
        (total, GTPattern(halved[::-1]))



def test_count_proctor_examples():
    assert count_proctor("C", Partition(), 3) == 1
    assert count_proctor("C", Partition((1,)), 1) == 2
    assert count_proctor("B", Partition((1,)), 1) == 3


@pytest.mark.parametrize("series,lie", [("B", TYPE_B), ("C", TYPE_C), ("D", TYPE_D)])
def test_count_proctor_is_weyl_dimension(series, lie):
    for k in (1, 2, 3):
        for lam in enumerate_in_box(k, 4 if k < 3 else 3):
            assert count_proctor(series, lam, k) == weyl_dimension(Side(lie), k, lam), \
                (series, k, lam)


def test_enumerate_proctor_matches_count_and_fixture():
    # worked type C_3 pattern with top row (3,2,0): rows
    # (3,2,0),(3,1,0),(2,1),(2,0),(2),(1) -- doubled below
    fixture = ((6, 4, 0), (6, 2, 0), (4, 2), (4, 0), (4,), (2,))
    listed = set(proctor_patterns("C", Partition((3, 2)), 3))
    assert fixture in listed
    assert len(listed) == count_proctor("C", Partition((3, 2)), 3)
    for series in ("B", "C", "D"):
        for lam in enumerate_in_box(2, 2):
            got = set(proctor_patterns(series, lam, 2))
            assert len(got) == count_proctor(series, lam, 2)


@pytest.mark.parametrize("series,lie", [("B", TYPE_B), ("C", TYPE_C), ("D", TYPE_D)])
def test_proctor_rank_zero(series, lie):
    assert count_proctor(series, Partition(), 0) == 1
    assert weyl_dimension(Side(lie), 0, Partition()) == 1
    assert proctor_patterns(series, Partition(), 0) == [((),)]


# A second, independent tableau model for the B/C dimensions.  The alphabet
# is 1 < 1bar < 2 < 2bar < ... < k < kbar, encoded as integers 1..2k (symbol
# j is 2j-1, jbar is 2j); the entries of row i must be at least the symbol i
# (encoded 2i-1).  Sundaram tableaux append a maximal symbol (encoded 2k+1)
# that appears at most once per row but, unlike the finite symbols, may
# repeat down a column.


def count_king_tableaux(lam, k: int, with_infinity: bool = False) -> int:
    """King (sp_2k) or, with the extra symbol, Sundaram (so_{2k+1})
    tableaux of the given shape, by direct enumeration."""
    lam = Partition.of(lam)
    assert len(lam) <= k
    top = 2 * k + (1 if with_infinity else 0)

    def rows_from(i: int, above: tuple[int, ...]) -> int:
        if i == len(lam):
            return 1
        width = lam.part(i + 1)
        total = 0

        def build(j: int, acc: tuple[int, ...]):
            nonlocal total
            if j == width:
                total += rows_from(i + 1, acc)
                return
            lo = max(2 * i + 1, acc[-1] if acc else 1)
            if above:
                lo = max(lo, above[j] + 1)
            for v in range(lo, top + 1):
                if with_infinity and v == top and acc and acc[-1] == top:
                    continue  # at most one maximal symbol per row
                build(j + 1, acc + (v,))
            if (with_infinity and above and j < len(above)
                    and above[j] == top and lo > top
                    and not (acc and acc[-1] == top)):
                build(j + 1, acc + (top,))  # maximal symbol repeats downward

        build(0, ())
        return total

    return rows_from(0, ())


def test_king_and_sundaram_tableaux_dimensions():
    assert count_king_tableaux(Partition((1,)), 1) == 2
    assert count_king_tableaux(Partition((1,)), 1, with_infinity=True) == 3
    assert count_king_tableaux(Partition((1, 1)), 2) == 5
    for k in (1, 2):
        for lam in enumerate_in_box(k, 3):
            assert count_king_tableaux(lam, k) == \
                weyl_dimension(Side(TYPE_C), k, lam), ("C", k, lam)
            assert count_king_tableaux(lam, k, with_infinity=True) == \
                weyl_dimension(Side(TYPE_B), k, lam), ("B", k, lam)


def test_count_proctor_signed_type_d():
    # a top row is a partition; the sign flip of a D weight has the
    # dimension of its partition of absolute values
    with pytest.raises(ValueError):
        count_proctor("D", (1, -2), 2)
    assert count_proctor("D", Partition((2, 1)), 2) == \
        weyl_dimension(Side(TYPE_D), 2, (2, -1)) == \
        weyl_dimension(Side(TYPE_D), 2, (2, 1))


# -- MacMahon ---------------------------------------------------------------


def plane_partition_count(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box:
    prod_{i<=a, j<=b, m<=c} (i+j+m-1)/(i+j+m-2)."""
    if min(a, b, c) < 0:
        raise ValueError("box sides must be nonnegative")
    cells = [i + j + m for i in range(1, a + 1) for j in range(1, b + 1)
             for m in range(1, c + 1)]
    out, rem = divmod(prod(s - 1 for s in cells), prod(s - 2 for s in cells))
    assert not rem, "MacMahon product is not an integer"
    return out


def plane_partition_count_exhaustive(a: int, b: int, c: int) -> int:
    """Direct enumeration of weakly decreasing a x b arrays with entries <= c."""

    def rows_below(above: tuple[int, ...]):
        rows = [()]
        for cap in above:
            rows = [r + (v,) for r in rows for v in range(min((cap,) + r[-1:]) + 1)]
        return rows

    def rec(i: int, above: tuple[int, ...]) -> int:
        return 1 if i == a else sum(rec(i + 1, row) for row in rows_below(above))

    return rec(0, (c,) * b)


def test_plane_partition_examples():
    assert plane_partition_count(1, 1, 1) == 2
    assert plane_partition_count(3, 0, 7) == 1
    assert plane_partition_count(2, 2, 2) == 20


def test_plane_partition_exhaustive_agreement():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert plane_partition_count(a, b, c) == \
                    plane_partition_count_exhaustive(a, b, c)


# -- semistandard tableaux and the psi involution -------------------------------


@dataclass(frozen=True)
class SemistandardTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("rows must weakly increase")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("shape must be a partition")
            if any(upper[i] >= lower[i] for i in range(len(lower))):
                raise ValueError("columns must strictly increase")
        if any(v < 1 for row in self.rows for v in row):
            raise ValueError("entries must be positive")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))


def psi_involution(t: SemistandardTableau) -> SemistandardTableau:
    """Entry-shifting conjugation: cell (i, j) with entry m maps to cell
    (j, i) with entry m + j - i.  An involution exchanging semistandard
    tableaux of conjugate shapes; it carries the flagged tableaux
    counting the tensor multiplicity onto tableaux with bounded entries.
    """
    conj = t.shape.conjugate()
    return SemistandardTableau(tuple(
        tuple(t.rows[j - 1][i - 1] + i - j for j in range(1, conj.part(i) + 1))
        for i in range(1, len(conj) + 1)))


def enumerate_ssyt(shape, max_entry: int, flags=None):
    """Semistandard tableaux of the given shape with entries <= max_entry;
    optional per-row flags cap row i (1-based) at flags[i-1]."""
    shape = Partition.of(shape)
    caps = list(flags) if flags is not None else [max_entry] * len(shape)

    def rec(i: int, rows: tuple[tuple[int, ...], ...]):
        if i == len(shape):
            yield SemistandardTableau(rows)
            return
        above = rows[i - 1] if i else None

        def build(j: int, acc: tuple[int, ...]):
            if j == shape.part(i + 1):
                yield acc
                return
            lo = acc[-1] if acc else 1
            if above is not None:
                lo = max(lo, above[j] + 1)
            for v in range(lo, min(max_entry, caps[i]) + 1):
                yield from build(j + 1, acc + (v,))

        for row in build(0, ()):
            yield from rec(i + 1, rows + (row,))

    yield from rec(0, ())


def flagged_multiplicity_tableaux(lam, n: int, k: int):
    """SSYT of the box complement of lam flagged by f_i = i + 1 + lam_{n-i}
    (i = 0..n-1); these count the tensor multiplicity of lam."""
    lam = Partition.of(lam)
    flags = [i + 1 + lam.part(n - i) for i in range(n)]
    return enumerate_ssyt(lam.complement(n, k), max(flags, default=0), flags)


REFERENCE_FLAGGED = SemistandardTableau(
    ((1, 1, 1, 1, 2), (2, 2, 2, 2), (3, 5), (7, 8), (8,)))
REFERENCE_IMAGE = SemistandardTableau(
    ((1, 1, 1, 4, 4), (2, 2, 4, 6), (3, 3), (4, 4), (6,)))


def test_psi_single_cell():
    t = SemistandardTableau(((7,),))
    assert psi_involution(t) == t


def test_psi_reference_example():
    assert psi_involution(REFERENCE_FLAGGED) == REFERENCE_IMAGE
    assert psi_involution(REFERENCE_IMAGE) == REFERENCE_FLAGGED


def test_psi_is_involution_on_random_ssyt():
    rng = random.Random(7)
    shapes = [Partition((3, 2)), Partition((4, 2, 1)), Partition((2, 2, 2))]
    for shape in shapes:
        pool = list(enumerate_ssyt(shape, 5))
        for t in rng.sample(pool, min(20, len(pool))):
            img = psi_involution(t)
            assert img.shape == shape.conjugate()
            assert psi_involution(img) == t


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 3)])
def test_flagged_bijection(n, k):
    for lam in enumerate_in_box(n, k):
        flagged = list(flagged_multiplicity_tableaux(lam, n, k))
        assert len(flagged) == lgv_determinant("A", lam, n, k, 0).at_one()
        target_shape = lam.complement(n, k).conjugate()
        images = {psi_involution(t) for t in flagged}
        assert images == set(enumerate_ssyt(target_shape, k))


# -- NILPs -----------------------------------------------------------------------

#: The most path tuples the NILP enumeration may try.
NILP_BUDGET = 10**6


def _lattice_paths(start: tuple[int, int], end: tuple[int, int], below: bool):
    """E/N paths from start to end; with below, staying weakly below y = x."""
    ex, ey = end

    def rec(x: int, y: int, acc: str):
        if (x, y) == (ex, ey):
            yield acc
            return
        if x < ex:
            yield from rec(x + 1, y, acc + "E")
        if y < ey and (not below or y < x):
            yield from rec(x, y + 1, acc + "N")

    if not below or start[1] <= start[0]:
        yield from rec(*start, "")


def _path_vertices(start: tuple[int, int], steps: str):
    x, y = start
    verts = [(x, y)]
    for s in steps:
        x, y = (x + 1, y) if s == "E" else (x, y + 1)
        verts.append((x, y))
    return verts


def nilp_count(series: str, n: int, k: int, p: int, lam) -> int:
    """Nonintersecting path families between the lgv_endpoints of the
    series, by direct enumeration of vertex-disjoint path tuples.

    Series D paths live weakly below the diagonal and carry weight
    2^(number of diagonal touch points after the start), realizing the
    two-way steps onto the diagonal.  The LGV determinant over the same
    endpoints is boxes.lgv_determinant.
    """
    starts, ends = lgv_endpoints(series, lam, n, k, p)
    all_paths = [list(_lattice_paths(s, e, below=series != "A"))
                 for s, e in zip(starts, ends)]
    if prod(max(1, len(paths)) for paths in all_paths) > NILP_BUDGET:
        raise ValueError("exhaustive NILP budget exceeded")

    def rec(idx: int, used: frozenset) -> int:
        if idx == n:
            return 1
        total = 0
        for steps in all_paths[idx]:
            verts = _path_vertices(starts[idx], steps)
            if used.isdisjoint(verts):
                touches = sum(x == y for x, y in verts[1:]) if series == "D" else 0
                total += 2**touches * rec(idx + 1, used | set(verts))
        return total

    return rec(0, frozenset())


def test_nilp_single_free_path():
    for k in range(5):
        for m in range(k + 1):
            lam = Partition((m,)) if m else Partition()
            assert nilp_count("A", 1, k, 0, lam) == comb(k, m)


def test_nilp_type_d_single_path_lemma():
    # one path from (0,0) to (x,y) on the folded grid counts binom(x+y, y)
    for x in range(1, 5):
        for y in range(x + 1):
            got = nilp_count_exhaustive_single_d(x, y)
            assert got == comb(x + y, y), (x, y)


def nilp_count_exhaustive_single_d(x, y):
    total = 0
    for steps in _lattice_paths((0, 0), (x, y), below=True):
        verts = _path_vertices((0, 0), steps)
        touches = sum(1 for (a, b) in verts[1:] if a == b)
        total += 2 ** touches
    return total


def test_nilp_example_two_paths():
    assert lgv_determinant("A", Partition((1, 1)), 2, 2, 0).at_one() == 3
    assert nilp_count("A", 2, 2, 0, Partition((1, 1))) == 3


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_nilp_a_lgv_vs_exhaustive_vs_det(n, k):
    for lam in enumerate_in_box(n, k):
        lgv = lgv_determinant("A", lam, n, k, 0).at_one()
        assert lgv == nilp_count("A", n, k, 0, lam)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("p", [0, 1])
def test_nilp_bc_d_lgv_vs_exhaustive_vs_det(n, k, p):
    for lam in enumerate_in_box(n, k):
        bc = lgv_determinant("BC", lam, n, k, p).at_one()
        assert bc == nilp_count("BC", n, k, p, lam)
        d = lgv_determinant("D", lam, n, k, p).at_one()
        assert d == nilp_count("D", n, k, p, lam)


def test_nilp_budget():
    with pytest.raises(ValueError):
        nilp_count("A", 4, 16, 0, Partition())


@pytest.mark.parametrize("series", ["A", "BC", "D"])
def test_nilp_weight_outside_box_rejected(series):
    with pytest.raises(ValueError, match="does not fit in a 2x2 box"):
        nilp_count(series, 2, 2, 0, Partition((3,)))


# -- lozenge tilings ---------------------------------------------------------------


def tile_grid(tiling) -> dict:
    return {(r, c): kind for r, c, kind in tiling.tiles}


def lozenge_to_gt(tiling) -> GTPattern:
    """The inverse of gt_to_lozenge: read the B-tile heights column by
    column, column x = k - j holding the j entries of GT row j."""
    n, k = tiling.n, tiling.k
    grid = tile_grid(tiling)
    rows = []
    for j in range(1, k + 1):
        heights = sorted((h for h in range(n + j) if grid.get((h, k - j)) == "B"),
                         reverse=True)
        assert len(heights) == j, f"column {k - j} must hold {j} B tiles"
        rows.append(tuple(heights[i - 1] - (j - i) for i in range(1, j + 1)))
    return GTPattern(tuple(rows))


REFERENCE_PATTERN = GTPattern(
    ((3,), (3, 2), (3, 2, 2), (5, 3, 2, 2), (5, 3, 2, 2, 0), (5, 4, 2, 2, 1, 0)))

REFERENCE_TILING_STRIPS = {
    0: ({0, 2, 4, 5, 8, 10}, {1, 7}, {3, 6, 9}),
    1: ({0, 3, 4, 6, 9}, set(), {1, 2, 5, 7, 8}),
    2: ({2, 3, 5, 8}, {0, 1, 4, 6, 7}, set()),
    3: ({2, 3, 5}, {0, 1}, {4, 6, 7}),
    4: ({2, 4}, {0, 1}, {3, 5, 6}),
    5: ({3}, {0, 1, 2}, {4, 5}),
}


def test_lozenge_reference_fixture():
    tiling = gt_to_lozenge(REFERENCE_PATTERN, 5, 6)
    grid = tile_grid(tiling)
    for col, (bs, gs, rs) in REFERENCE_TILING_STRIPS.items():
        assert {h for (h, c), v in grid.items() if c == col and v == "B"} == bs
        assert {h for (h, c), v in grid.items() if c == col and v == "G"} == gs
        assert {h for (h, c), v in grid.items() if c == col and v == "R"} == rs
    assert lozenge_to_gt(tiling) == REFERENCE_PATTERN


def test_lozenge_trivial_pattern():
    k, n = 4, 3
    zero = GTPattern(tuple((0,) * j for j in range(1, k + 1)))
    tiling = gt_to_lozenge(zero, n, k)
    grid = tile_grid(tiling)
    for col in range(k):
        heights = sorted(h for (h, c), v in grid.items()
                         if c == col and v == "B")
        assert heights == list(range(k - col))
    assert lozenge_to_gt(tiling) == zero


def test_lozenge_roundtrip_all_small():
    n, k = 2, 3
    for lam in enumerate_in_box(k, n):
        for g in gt_patterns(lam, k):
            tiling = gt_to_lozenge(g, n, k)
            assert lozenge_to_gt(tiling) == g


def test_lozenge_tilings_count_matches_multiplicity():
    n, k = 2, 3
    for lam in enumerate_in_box(n, k):
        mu = lam.complement(n, k).conjugate()
        tilings = {gt_to_lozenge(g, n, k).tiles for g in gt_patterns(mu, k)}
        assert len(tilings) == lgv_determinant("A", lam, n, k, 0).at_one()


def test_lozenge_json():
    tiling = gt_to_lozenge(REFERENCE_PATTERN, 5, 6)
    payload = tiling.to_json()
    assert payload["domain"]["boundary"] == "5,4,2,2,1"
    assert ["R", "G", "B"] and all(kind in ("R", "G", "B")
                                   for _, _, kind in payload["tiles"])
