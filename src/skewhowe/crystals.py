"""Crystal oracle for tensor-power multiplicities.

The highest-weight elements of a tensor power of the relevant crystal are
counted by weight, with no multiplicity formula assumed.  This is ground
truth for every multiplicity formula in the package.

Letters by series (rank n):
  A: subsets of {1..n}, the crystal of the exterior algebra of the
     natural gl_n representation (one column per subset).
  B: sign vectors in {+,-}^n, the spinor crystal.
  C: subsets of the alphabet 1 < 2 < ... < n < nbar < ... < 1bar,
     the crystal of the exterior algebra of the natural sp_2n
     representation (admissible columns of every height, 2^(2n) total).
  D: sign vectors in {+,-}^n with no product constraint, realizing the
     direct sum of the two half-spinor crystals.

The signature rule reads a word leftmost factor first (the tensor
convention puts the rightmost factor at index 0), each atom contributing
"-" times phi_i then "+" times eps_i; deleting "+-" pairs leaves the
reduced signature, and e_i acts when a "+" survives.  So b (x) u is highest
weight iff u is, and eps_i(b) <= phi_i(u) = <wt(u), alpha_i^vee> for every
i (Kashiwara's tensor product rule).  The oracle walks the dominant
weights: k steps from zero, each adding every letter whose eps fits under
the weight's coroot pairings.  The operators e_i and f_i, the size of each
crystal and the scan of all |B|^k words live in tests/test_crystals.py,
which checks the walk against them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, le

from .exact import doubled_half_integer
from .partitions import Partition, TypeDWeight

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    pass


# -- letters ------------------------------------------------------------
#
# A letter is a tuple of "atoms", primitive crystal elements whose
# i-strings all have length <= 1:
#   series A: atom j in {1..n}
#   series C: atom c in {1..2n}; c <= n is the letter c, c > n is the
#             barred letter (2n+1-c)bar; every f_i acts as c -> c+1
#   series B/D: the whole sign vector is a single atom.
# Columns (series A/C) are read bottom-to-top, which for a subset sorted
# increasingly means largest atom first.


@dataclass(frozen=True)
class Letter:
    series: str
    rank: int
    content: tuple

    def atoms(self) -> tuple:
        if self.series in ("A", "C"):
            return tuple(sorted(self.content, reverse=True))
        return (self.content,)


def letters(series: str, n: int) -> list[Letter]:
    """The full crystal of V for the given series at rank n."""
    if series == "A":
        return [Letter("A", n, tuple(sorted(s)))
                for s in _subsets(range(1, n + 1))]
    if series == "C":
        return [Letter("C", n, tuple(sorted(s)))
                for s in _subsets(range(1, 2 * n + 1))]
    if series in ("B", "D"):
        return [Letter(series, n, signs)
                for signs in product((1, -1), repeat=n)]
    raise ValueError(f"unknown series {series!r}")


def _subsets(universe):
    items = list(universe)
    for mask in range(1 << len(items)):
        yield tuple(items[j] for j in range(len(items)) if mask >> j & 1)


def letter_weight(letter: Letter) -> tuple[Fraction, ...]:
    n = letter.rank
    w = [Fraction(0)] * n
    if letter.series == "A":
        for j in letter.content:
            w[j - 1] += 1
    elif letter.series == "C":
        for c in letter.content:
            if c <= n:
                w[c - 1] += 1
            else:
                w[2 * n - c] -= 1
    else:
        w = [Fraction(s, 2) for s in letter.content]
    return tuple(w)


def index_set(series: str, n: int) -> range:
    if series == "A":
        return range(1, n)
    if series == "D" and n == 1:
        return range(0)  # so_2 is abelian
    return range(1, n + 1)


def _atom_phi(series: str, n: int, atom, i: int) -> int:
    """1 if f_i acts on the atom, else 0."""
    if series == "A":
        return 1 if atom == i else 0
    if series == "C":
        if i < n:
            return 1 if atom == i or atom == 2 * n - i else 0
        return 1 if atom == n else 0
    s = atom
    if i < n:
        return 1 if (s[i - 1], s[i]) == (1, -1) else 0
    if series == "B":
        return 1 if s[n - 1] == 1 else 0
    return 1 if (s[n - 2], s[n - 1]) == (1, 1) else 0


def _atom_eps(series: str, n: int, atom, i: int) -> int:
    """1 if e_i acts on the atom, else 0."""
    if series == "A":
        return 1 if atom == i + 1 else 0
    if series == "C":
        if i < n:
            return 1 if atom == i + 1 or atom == 2 * n + 1 - i else 0
        return 1 if atom == n + 1 else 0
    s = atom
    if i < n:
        return 1 if (s[i - 1], s[i]) == (-1, 1) else 0
    if series == "B":
        return 1 if s[n - 1] == -1 else 0
    return 1 if (s[n - 2], s[n - 1]) == (-1, -1) else 0


def _letter_eps(series: str, n: int, letter: Letter, i: int) -> int:
    """eps_i of one letter: the "+" left in its atoms' signature once the
    "+-" pairs are deleted."""
    plus = 0
    for atom in letter.atoms():
        if _atom_phi(series, n, atom, i) and plus:
            plus -= 1
        plus += _atom_eps(series, n, atom, i)
    return plus


def _doubled_pairings(series: str, n: int, doubled: tuple) -> tuple:
    """2<wt, alpha_i^vee> for i in the index set, from the doubled weight."""
    pairings = [doubled[i - 1] - doubled[i] for i in range(1, n)]
    if n in index_set(series, n):
        pairings.append(2 * doubled[n - 1] if series == "B" else
                        doubled[n - 1] if series == "C" else
                        doubled[n - 2] + doubled[n - 1])
    return tuple(pairings)


def multiplicity_oracle(series: str, n: int, k: int) -> dict:
    """Highest-weight counts by dominant weight in the k-fold tensor power.

    For series B and D, k is the number of spinor factors (so a power
    V^(x)2m+p uses k = 2m+p).  Weights are returned as Partition (or
    TypeDWeight in series D; half-integer weights as tuples of Fraction).
    Raises BudgetExceeded when the alphabet, or the weights times the
    letter classes of a step, pass DEFAULT_BUDGET.
    """
    if k == 0:
        zero = weight_key(series, tuple(Fraction(0) for _ in range(n)))
        return {zero: 1}
    base = 4 if series == "C" else 2
    if base ** n > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{base}^{n} letters exceeds the budget of {DEFAULT_BUDGET}")
    # letters with the same eps and weight extend the same words: the
    # classes by eps, each a Counter of doubled weights
    classes: dict = {}
    for letter in letters(series, n):
        eps = tuple(2 * _letter_eps(series, n, letter, i)
                    for i in index_set(series, n))
        step = tuple(map(doubled_half_integer, letter_weight(letter)))
        classes.setdefault(eps, Counter())[step] += 1
    width = sum(map(len, classes.values()))
    states = {(0,) * n: 1}
    for _ in range(k):
        if len(states) * width > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"{len(states)} weights x {width} letter classes "
                f"exceeds the budget of {DEFAULT_BUDGET}")
        grown = Counter()
        for doubled, count in states.items():
            pairings = _doubled_pairings(series, n, doubled)
            for eps, steps in classes.items():
                if all(map(le, eps, pairings)):
                    for step, size in steps.items():
                        grown[tuple(map(add, doubled, step))] += count * size
        states = grown
    return {weight_key(series, tuple(Fraction(v, 2) for v in doubled)): count
            for doubled, count in states.items()}


def weight_key(series: str, wt: tuple[Fraction, ...]):
    """The key multiplicity_oracle files the weight wt under (rank 0, which
    has no type D weight, under the empty Partition)."""
    if series == "D" and wt:
        if all(w.denominator == 1 for w in wt):
            return TypeDWeight(tuple(int(w) for w in wt))
        return tuple(wt)
    if all(w.denominator == 1 for w in wt):
        return Partition(tuple(int(w) for w in wt))
    return tuple(wt)
