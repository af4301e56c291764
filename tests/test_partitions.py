from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from skewhowe.partitions import Partition, doubled_coordinates, walk_box
from boxes import enumerate_in_box, parse_partition
from test_ensembles import addable_corners, removable_corners, with_row


# -- a per-series spelling of the shifted coordinates as half-integers, over
# doubled_coordinates; the package itself reads only doubled_coordinates --

SERIES_A = "A"
SERIES_BC = "BC"
SERIES_D = "D"
SERIES_SO_ODD_MEASURE = "SO_odd_measure"
SERIES_SP_MEASURE = "Sp_measure"
SERIES_SO_EVEN_MEASURE = "SO_even_measure"

#: series -> (doubled shift at p = 0, whether p adds to it, whether the
#: coordinate is the doubled value halved or the doubled value itself)
_SERIES = {
    SERIES_A: (0, False, True),
    SERIES_BC: (1, True, True),
    SERIES_D: (0, True, True),
    SERIES_SO_ODD_MEASURE: (1, False, False),
    SERIES_SP_MEASURE: (2, False, True),
    SERIES_SO_EVEN_MEASURE: (0, False, False),
}


@dataclass(frozen=True)
class SeriesCoords:
    series: str
    values: tuple[Fraction, ...]

    def __post_init__(self):
        for a, b in zip(self.values, self.values[1:]):
            if not a > b:
                raise ValueError(f"coordinates not strictly decreasing: {self.values}")

    def as_ints(self):
        if any(v.denominator != 1 for v in self.values):
            raise ValueError(f"{self.values} are not all integers")
        return tuple(v.numerator for v in self.values)


def coordinates(lam, series: str, n: int, p: int = 0) -> SeriesCoords:
    """Shifted coordinates a_i used by the formulas and measures.

    A:  a_i = lambda_i + n - i
    BC: a_i = lambda_i + n - i + (p+1)/2
    D:  a_i = lambda_i + n - i + p/2
    SO_odd_measure:  a_i = 2(lambda_i + l - i) + 1     (l = n)
    Sp_measure:      a_i = lambda_i + l - i + 1
    SO_even_measure: a_i = 2 lambda_i + 2(l - i)
    """
    if series not in _SERIES:
        raise ValueError(f"unknown series {series!r}")
    shift, with_p, halved = _SERIES[series]
    doubled = doubled_coordinates(lam, n, shift + (p if with_p else 0))
    return SeriesCoords(series, tuple(Fraction(a, 2) if halved else Fraction(a)
                                      for a in doubled))


def boxed_partitions(n, k):
    return st.builds(
        lambda cuts: Partition(tuple(sorted(cuts, reverse=True))),
        st.lists(st.integers(0, k), min_size=0, max_size=n))


def test_parse_and_str():
    assert parse_partition("") == Partition()
    assert parse_partition("5,4,4,2,1").parts == (5, 4, 4, 2, 1)
    assert str(parse_partition("3,1")) == "3,1"
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_trailing_zeros_trimmed():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert len(Partition((2, 2))) == 2


def test_conjugate_examples():
    assert Partition().conjugate() == Partition()
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition((5, 4, 4, 2, 1)).conjugate() == Partition((5, 4, 3, 3, 1))


def test_complement_examples():
    assert Partition().complement(2, 3) == Partition((3, 3))
    assert Partition((3, 3)).complement(2, 3) == Partition()
    lam = Partition((5, 4, 4, 2, 1))
    comp = lam.complement(5, 6)
    assert comp == Partition((5, 4, 2, 2, 1))
    assert comp.conjugate().padded(6) == (5, 4, 2, 2, 1, 0)
    with pytest.raises(ValueError):
        Partition((4,)).complement(2, 3)


@given(boxed_partitions(4, 5))
@settings(max_examples=50, deadline=None)
def test_involutions(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.complement(4, 5).complement(4, 5) == lam
    # conjugate of complement is complement of conjugate in the flipped box
    assert lam.complement(4, 5).conjugate() == lam.conjugate().complement(5, 4)


def test_weighted_size():
    assert Partition().weighted_size == 0
    assert Partition((2, 1)).weighted_size == 1
    assert Partition((5, 4, 4, 2, 1)).weighted_size == 22


def test_box_size_pairing():
    for n in range(1, 7):
        for k in range(1, 7):
            for lam in enumerate_in_box(n, k):
                assert sum(lam.parts) + sum(lam.complement(n, k).parts) == n * k


def test_enumerate_in_box():
    assert list(enumerate_in_box(0, 5)) == [Partition()]
    for n, k in [(2, 2), (3, 3), (2, 4), (4, 1)]:
        lams = list(enumerate_in_box(n, k))
        assert len(lams) == comb(n + k, n)
        assert len(set(lams)) == len(lams)
        assert all(lam.fits_in_box(n, k) for lam in lams)


def _recursive_enumerate_in_box(n, k):
    """The order of the recursion enumerate_in_box replaced, one generator
    per row."""
    def rec(rows_left, cap, acc):
        yield Partition(acc)
        for nxt in range(cap, 0, -1) if rows_left else ():
            yield from rec(rows_left - 1, nxt, acc + (nxt,))

    return rec(n, k, ())


def test_enumerate_in_box_keeps_the_recursive_order():
    for n in range(5):
        for k in range(6):
            assert list(enumerate_in_box(n, k)) == \
                list(_recursive_enumerate_in_box(n, k)), (n, k)


def test_enumerate_in_box_takes_any_number_of_rows():
    # one generator per row raised RecursionError at about 1,000 rows
    lams = list(enumerate_in_box(1200, 1))
    assert len(lams) == 1201 and lams[-1] == Partition((1,) * 1200)


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_walk_box_grows_each_diagram_from_one_box_less(n, k):
    # with the parts tuple as the state, each grow call must receive the
    # child less its last box: its parent, or its previous sibling
    grown = []

    def grow(state, child):
        less = child[:-1] + ((child[-1] - 1,) if child[-1] > 1 else ())
        assert state == less, (state, child)
        grown.append(child)
        return child

    walked = list(walk_box(n, k, (), grow))
    assert walked == [(lam.parts, lam.parts) for lam in enumerate_in_box(n, k)]
    assert sorted(grown) == sorted(parts for parts, _ in walked[1:])


def test_walk_box_checks_the_budget_at_the_call():
    with pytest.raises(ValueError, match="more partitions than the budget"):
        walk_box(20, 20, None, None)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_box(-1, 2, None, None)


def test_coordinates_examples():
    assert coordinates(Partition(), SERIES_A, 3).as_ints() == (2, 1, 0)
    assert coordinates(Partition((5, 4, 4, 2, 1)), SERIES_A, 5).as_ints() == \
        (9, 7, 6, 3, 1)
    assert coordinates(Partition(), SERIES_SO_ODD_MEASURE, 2).as_ints() == (3, 1)
    assert coordinates(Partition((1,)), SERIES_SP_MEASURE, 2).as_ints() == (3, 1)
    assert coordinates(Partition(), SERIES_SO_EVEN_MEASURE, 2).as_ints() == (2, 0)
    bc = coordinates(Partition((1,)), SERIES_BC, 2, p=0)
    assert bc.values == (Fraction(5, 2), Fraction(1, 2))
    d = coordinates(Partition((1,)), SERIES_D, 2, p=1)
    assert d.values == (Fraction(5, 2), Fraction(1, 2))


@given(boxed_partitions(4, 4), st.sampled_from(
    [SERIES_A, SERIES_BC, SERIES_D, SERIES_SO_ODD_MEASURE,
     SERIES_SP_MEASURE, SERIES_SO_EVEN_MEASURE]))
@settings(max_examples=60, deadline=None)
def test_coordinates_strictly_decreasing(lam, series):
    coords = coordinates(lam, series, 4, p=0)
    assert all(a > b for a, b in zip(coords.values, coords.values[1:]))


def test_series_coords_validation():
    with pytest.raises(ValueError):
        SeriesCoords(SERIES_A, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        coordinates(Partition(), "bogus", 2)


def test_corners():
    lam = Partition((2, 1))
    assert addable_corners(lam, 3, 3) == [1, 2, 3]
    assert addable_corners(lam, 2, 2) == [2]
    assert removable_corners(lam) == [1, 2]
    assert addable_corners(Partition(), 2, 2) == [1]
    assert with_row(lam, 2, 2) == Partition((2, 2))
