"""Crystal oracle for tensor-power multiplicities.

The highest-weight elements of a tensor power of the relevant crystal are
counted by weight, with no multiplicity formula assumed.  This is ground
truth for every multiplicity formula in the package.

A letter is its doubled weight 2 wt(b) at rank n: a column of the exterior
algebra of C^n for A (entries 0 and 2), an element of the spinor crystal
for B or of the sum of the two half-spinor crystals for D (entries +1 and
-1).  Each alphabet is a sum of minuscule crystals.

Kashiwara's tensor product rule, with the rightmost factor at index 0 and
the signature read leftmost factor first, makes b (x) u highest weight iff
u is and eps_i(b) <= phi_i(u) for every i.  For a minuscule letter b and a
dominant u that holds iff u + wt(b) is dominant (Stembridge; Grabiner and
Magyar).  So the oracle walks the dominant weights: k steps from zero, each
adding every letter that keeps the weight dominant.  A step builds those
letters a coordinate at a time, keeping each prefix weakly decreasing (the
roots e_i - e_{i+1}), and checks the last root of B or D at the end.  The
atoms, the signature rule, the operators e_i and f_i, the type C alphabet,
the walk by eps and the scan of all |B|^k words live in
tests/test_crystals.py, which checks the walk against them.
"""

from __future__ import annotations

from collections import Counter

DEFAULT_BUDGET = 10**7

#: the entries of a letter's doubled weight, by series
_ENTRIES = {"A": (0, 2), "B": (1, -1), "D": (1, -1)}


def multiplicity_oracle(series: str, n: int, k: int) -> dict:
    """Highest-weight counts by doubled dominant weight 2 wt in the k-fold
    tensor power of the series' alphabet at rank n.

    For series B and D, k is the number of spinor factors (so a power
    V^(x)2m+p uses k = 2m+p).  Raises KeyError for a series with no
    alphabet here, and ValueError when the letters one step builds pass
    DEFAULT_BUDGET.
    """
    entries = _ENTRIES[series]
    states = {(0,) * n: 1}
    for _ in range(k):
        grown = Counter()
        built = 0
        for doubled, count in states.items():
            # u + wt(b) for the letters b that keep it dominant, built a
            # coordinate at a time with every prefix weakly decreasing
            heads = [()]
            for u in doubled:
                heads = [head + (u + e,) for head in heads for e in entries
                         if not head or u + e <= head[-1]]
                if built + len(heads) > DEFAULT_BUDGET:
                    raise ValueError(
                        f"{built + len(heads)} letters built in one step "
                        f"exceed the budget of {DEFAULT_BUDGET}")
            built += len(heads)
            if series == "B" and n:  # the short root e_n
                heads = [head for head in heads if head[-1] >= 0]
            elif series == "D" and n > 1:  # the root e_{n-1} + e_n
                heads = [head for head in heads if head[-2] + head[-1] >= 0]
            for head in heads:
                grown[head] += count
        states = grown
    return dict(states)
