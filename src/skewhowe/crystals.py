"""Brute-force crystal oracle for tensor-power multiplicities.

Tensor powers of the relevant crystal are enumerated exhaustively and the
highest-weight elements counted by weight.  This is ground truth at tiny
rank for every multiplicity formula in the package.

Letters by series (rank n):
  A: subsets of {1..n}, the crystal of the exterior algebra of the
     natural gl_n representation (one column per subset).
  B: sign vectors in {+,-}^n, the spinor crystal.
  C: subsets of the alphabet 1 < 2 < ... < n < nbar < ... < 1bar,
     the crystal of the exterior algebra of the natural sp_2n
     representation (admissible columns of every height, 2^(2n) total).
  D: sign vectors in {+,-}^n with no product constraint, realizing the
     direct sum of the two half-spinor crystals.

A word is highest weight when no e_i acts on it, read off the signature
rule: within each factor the letters are read bottom-to-top, factors
right-to-left, each atom contributing "-" times phi_i then "+" times
eps_i; deleting "+-" pairs leaves the reduced signature, and e_i acts
when a "+" survives.  The tensor convention puts the rightmost factor at
index 0.  The operators e_i and f_i themselves, and the size of each
crystal, live in tests/test_crystals.py, which checks the shortcut
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


@dataclass(frozen=True)
class TensorWord:
    """factors[0] is the rightmost tensor factor."""

    factors: tuple[Letter, ...]

    def __post_init__(self):
        series = {(f.series, f.rank) for f in self.factors}
        if len(series) > 1:
            raise ValueError("mixed series or ranks in a tensor word")

    @property
    def series(self) -> str:
        return self.factors[0].series

    @property
    def rank(self) -> int:
        return self.factors[0].rank

    def weight(self) -> tuple[Fraction, ...]:
        n = self.rank
        w = [Fraction(0)] * n
        for f in self.factors:
            fw = letter_weight(f)
            w = [a + b for a, b in zip(w, fw)]
        return tuple(w)


def _signature_atoms(word: TensorWord):
    """Atoms in signature order (leftmost factor first, bottom-to-top
    within a factor), each tagged with its factor index and position."""
    out = []
    for fi in range(len(word.factors) - 1, -1, -1):
        letter = word.factors[fi]
        atoms = letter.atoms()
        for pi, atom in enumerate(atoms):
            out.append((fi, pi, atom))
    return out


def is_highest_weight(word: TensorWord) -> bool:
    """True iff every e_i kills the word.

    Scans the signature right to left per index, short-circuiting on the
    first surviving "+" (an unmatched eps).
    """
    series, n = word.series, word.rank
    tagged = _signature_atoms(word)
    for i in index_set(series, n):
        unmatched_minus = 0
        for tag in reversed(tagged):
            atom = tag[2]
            # right-to-left: eps contributions are scanned before phi
            # contributions of the same atom
            if _atom_eps(series, n, atom, i):
                if unmatched_minus > 0:
                    unmatched_minus -= 1
                else:
                    return False
            if _atom_phi(series, n, atom, i):
                unmatched_minus += 1
        del unmatched_minus
    return True


def multiplicity_oracle(series: str, n: int, k: int) -> dict:
    """Highest-weight counts by dominant weight in the k-fold tensor power.

    For series B and D, k is the number of spinor factors (so a power
    V^(x)2m+p uses k = 2m+p).  Weights are returned as Partition (or
    TypeDWeight in series D; half-integer weights as tuples of Fraction).
    Raises BudgetExceeded when |B|^k passes DEFAULT_BUDGET.
    """
    if k == 0:
        zero = weight_key(series, tuple(Fraction(0) for _ in range(n)))
        return {zero: 1}
    alphabet = letters(series, n)
    if len(alphabet) ** k > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{len(alphabet)}^{k} words exceeds the budget of {DEFAULT_BUDGET}")
    counts: dict = {}
    for combo in product(alphabet, repeat=k):
        word = TensorWord(combo)
        if is_highest_weight(word):
            wt = word.weight()
            key = weight_key(series, wt)
            counts[key] = counts.get(key, 0) + 1
    return counts


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
