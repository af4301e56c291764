"""Crystal oracle for tensor-power multiplicities.

The highest-weight elements of a tensor power of the relevant crystal are
counted by weight, with no multiplicity formula assumed.  This is ground
truth for every multiplicity formula in the package.

A letter is its doubled weight 2 wt(b) at rank n: a column of the exterior
algebra of C^n for A (entries 0 and 2), an element of the spinor crystal
for B or of the sum of the two half-spinor crystals for D (entries +1 and
-1).  Each alphabet is a sum of minuscule crystals, whose i-strings have
length at most 1, so eps_i(b) = max(0, -<wt(b), alpha_i^vee>).

Kashiwara's tensor product rule, with the rightmost factor at index 0 and
the signature read leftmost factor first, makes b (x) u highest weight iff
u is and eps_i(b) <= phi_i(u) = <wt(u), alpha_i^vee> for every i.  So the
oracle walks the dominant weights: k steps from zero, each adding every
letter whose eps fits under the weight's coroot pairings (the lattice walks
in the Weyl chamber of Grabiner and Magyar).  The atoms, the signature
rule, the operators e_i and f_i, the type C alphabet and the scan of all
|B|^k words live in tests/test_crystals.py, which checks the walk against
them.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import add, le

DEFAULT_BUDGET = 10**7

#: the entries of a letter's doubled weight, by series
_ENTRIES = {"A": (0, 2), "B": (1, -1), "D": (1, -1)}


class BudgetExceeded(RuntimeError):
    pass


def _doubled_pairings(series: str, n: int, doubled: tuple) -> tuple:
    """2<wt, alpha_i^vee> for i in the index set, from the doubled weight
    (D_1 = so_2 is abelian and has no index)."""
    pairings = [doubled[i - 1] - doubled[i] for i in range(1, n)]
    if series == "B" and n:
        pairings.append(2 * doubled[n - 1])
    elif series == "D" and n > 1:
        pairings.append(doubled[n - 2] + doubled[n - 1])
    return tuple(pairings)


def _eps(series: str, n: int, letter: tuple) -> tuple:
    """2 eps_i of a letter of a minuscule crystal, read off its doubled
    weight: max(0, -2<wt, alpha_i^vee>)."""
    return tuple(max(0, -p) for p in _doubled_pairings(series, n, letter))


def multiplicity_oracle(series: str, n: int, k: int) -> dict:
    """Highest-weight counts by doubled dominant weight 2 wt in the k-fold
    tensor power of the series' alphabet at rank n.

    For series B and D, k is the number of spinor factors (so a power
    V^(x)2m+p uses k = 2m+p).  Raises BudgetExceeded when the alphabet's
    n * 2^n doubled coordinates, or the weights times the letter classes
    of a step, pass DEFAULT_BUDGET.
    """
    if k == 0:
        return {(0,) * n: 1}
    if n << n > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{n} x 2^{n} letter coordinates exceeds the "
                             f"budget of {DEFAULT_BUDGET}")
    # letters with the same eps and weight extend the same words: the
    # classes by doubled eps, each a Counter of doubled weights
    classes: dict = {}
    for step in product(_ENTRIES[series], repeat=n):
        classes.setdefault(_eps(series, n, step), Counter())[step] += 1
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
    return dict(states)
