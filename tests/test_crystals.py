import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from skewhowe import cli, crystals
from skewhowe.crystals import (BudgetExceeded, Letter, _atom_eps, _atom_phi,
                               index_set, letter_weight, letters,
                               multiplicity_oracle, weight_key)
from skewhowe.multiplicity import TYPE_A, TYPE_B, TYPE_C, TYPE_D, weyl_dimension
from skewhowe.partitions import Partition, TypeDWeight

# -- tensor words and the scan of all |B|^k of them: the oracle of the walk ----


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
        w = [Fraction(0)] * self.rank
        for f in self.factors:
            w = [a + b for a, b in zip(w, letter_weight(f))]
        return tuple(w)


def _signature_atoms(word: TensorWord):
    """Atoms in signature order (leftmost factor first, bottom-to-top
    within a factor), each tagged with its factor index and position."""
    out = []
    for fi in range(len(word.factors) - 1, -1, -1):
        for pi, atom in enumerate(word.factors[fi].atoms()):
            out.append((fi, pi, atom))
    return out


def is_highest_weight(word: TensorWord) -> bool:
    """True iff every e_i kills the word: scanning the signature right to
    left, some "+" (an eps) finds no unmatched "-" (a phi) to its right."""
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
    return True


def word_scan_oracle(series: str, n: int, k: int) -> dict:
    """multiplicity_oracle at k >= 1 by testing every one of the |B|^k
    words."""
    counts = Counter()
    for combo in product(letters(series, n), repeat=k):
        word = TensorWord(combo)
        if is_highest_weight(word):
            counts[weight_key(series, word.weight())] += 1
    return dict(counts)


# -- the crystal operators: the oracle of the highest-weight shortcut ----------

RAISE = "raise"
LOWER = "lower"


def crystal_dimension(series: str, n: int) -> int:
    return 2 ** (2 * n) if series == "C" else 2**n


def _apply_atom(series: str, n: int, atom, i: int, direction: str):
    if series in ("A", "C"):
        return atom + 1 if direction == LOWER else atom - 1
    s = list(atom)
    if i < n:
        s[i - 1], s[i] = (-1, 1) if direction == LOWER else (1, -1)
    elif series == "B":
        s[n - 1] = -1 if direction == LOWER else 1
    else:
        s[n - 2] = s[n - 1] = -1 if direction == LOWER else 1
    return tuple(s)


def apply_operator(word: TensorWord, i: int, direction: str) -> TensorWord | None:
    """Apply e_i (raise) or f_i (lower) via the signature rule; None for
    the zero element (the operator annihilates the word)."""
    series, n = word.series, word.rank
    if i not in index_set(series, n):
        raise ValueError(f"index {i} not in the index set of {series}_{n}")
    # the +/- string left to right: "-" x phi then "+" x eps per atom, with
    # "+-" pairs (in that order) deleted as they meet
    stack = []
    for tag in _signature_atoms(word):
        for symbol, acts in (("-", _atom_phi), ("+", _atom_eps)):
            if not acts(series, n, tag[2], i):
                continue
            if symbol == "-" and stack and stack[-1][0] == "+":
                stack.pop()
            else:
                stack.append((symbol, tag))
    if direction == RAISE:  # the leftmost surviving +
        targets = [tag for symbol, tag in stack if symbol == "+"][:1]
    else:  # the rightmost surviving -
        targets = [tag for symbol, tag in stack if symbol == "-"][-1:]
    if not targets:
        return None
    fi, pi, atom = targets[0]
    new_atom = _apply_atom(series, n, atom, i, direction)
    if series in ("A", "C"):
        atoms = list(word.factors[fi].atoms())
        atoms[pi] = new_atom
        content = tuple(sorted(atoms))
        assert len(set(content)) == len(content), "an invalid column"
        new_atom = content
    factors = list(word.factors)
    factors[fi] = Letter(series, n, new_atom)
    return TensorWord(tuple(factors))


def test_letters_counts():
    assert len(letters("A", 3)) == 8
    assert len(letters("B", 2)) == 4
    assert len(letters("D", 3)) == 8
    assert len(letters("C", 2)) == 16  # exterior algebra of C^4


def test_rank1_spinor_flip():
    word = TensorWord((Letter("B", 1, (-1,)),))
    up = apply_operator(word, 1, RAISE)
    assert up.factors[0].content == (1,)
    assert apply_operator(up, 1, RAISE) is None


def test_type_a_signature_example():
    # [{1}] (x) [{1}]: lowering acts on the rightmost factor
    word = TensorWord((Letter("A", 2, (1,)), Letter("A", 2, (1,))))
    low = apply_operator(word, 1, LOWER)
    assert low.factors[0].content == (2,)
    assert low.factors[1].content == (1,)


def test_exhausted_signature_is_none():
    word = TensorWord((Letter("A", 2, (1, 2)),))
    assert apply_operator(word, 1, RAISE) is None
    assert apply_operator(word, 1, LOWER) is None


def test_index_set():
    assert list(index_set("A", 3)) == [1, 2]
    assert list(index_set("B", 2)) == [1, 2]
    assert list(index_set("D", 1)) == []


@pytest.mark.parametrize("series,n,k", [
    ("A", 2, 2), ("A", 2, 3), ("B", 2, 2), ("C", 1, 2), ("D", 2, 2),
])
def test_raise_lower_inverse(series, n, k):
    for combo in product(letters(series, n), repeat=k):
        word = TensorWord(combo)
        for i in index_set(series, n):
            up = apply_operator(word, i, RAISE)
            if up is not None:
                assert apply_operator(up, i, LOWER) == word
            down = apply_operator(word, i, LOWER)
            if down is not None:
                assert apply_operator(down, i, RAISE) == word


def _coroot_pairing(series, n, wt, i):
    if series in ("A", "C") and i < n or series in ("B", "D") and i < n:
        return wt[i - 1] - wt[i]
    if series == "B":
        return 2 * wt[n - 1]
    if series == "C":
        return wt[n - 1]
    return wt[n - 2] + wt[n - 1]


@pytest.mark.parametrize("series,n,k", [
    ("A", 3, 2), ("B", 2, 2), ("C", 2, 1), ("D", 2, 3),
])
def test_weight_string_axiom(series, n, k):
    # <wt(b), coroot_i> + eps_i(b) = phi_i(b)
    for combo in product(letters(series, n), repeat=k):
        word = TensorWord(combo)
        wt = word.weight()
        for i in index_set(series, n):
            eps = 0
            probe = word
            while True:
                probe = apply_operator(probe, i, RAISE)
                if probe is None:
                    break
                eps += 1
            phi = 0
            probe = word
            while True:
                probe = apply_operator(probe, i, LOWER)
                if probe is None:
                    break
                phi += 1
            assert _coroot_pairing(series, n, wt, i) + eps == phi


def test_oracle_examples():
    got = multiplicity_oracle("A", 2, 2)
    assert got == {Partition(()): 1, Partition((1,)): 2, Partition((1, 1)): 3,
                   Partition((2,)): 1, Partition((2, 1)): 2, Partition((2, 2)): 1}
    assert multiplicity_oracle("B", 1, 2) == {Partition((1,)): 1, Partition(()): 1}
    assert multiplicity_oracle("A", 3, 0) == {Partition(()): 1}
    assert multiplicity_oracle("D", 2, 0) == {TypeDWeight((0, 0)): 1}


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.sampled_from("ABCD"), st.integers(0, 3), st.integers(1, 4))
       .filter(lambda c: crystal_dimension(c[0], c[1]) ** c[2] <= 10**4))
def test_walk_matches_the_word_scan(case):
    assert multiplicity_oracle(*case) == word_scan_oracle(*case)


def test_oracle_budget(monkeypatch):
    def never(series, n):
        raise AssertionError("listed the letters before the budget was checked")

    monkeypatch.setattr(crystals, "letters", never)
    for series, n, size in (("A", 24, "2^24"), ("C", 12, "4^12")):
        with pytest.raises(BudgetExceeded, match=re.escape(f"{size} letters")):
            multiplicity_oracle(series, n, 1)


def test_oracle_budget_per_step(monkeypatch):
    # A_2: 4 letter classes, and 1, 3, 6 weights before steps 1, 2, 3
    monkeypatch.setattr(crystals, "DEFAULT_BUDGET", 12)
    assert multiplicity_oracle("A", 2, 2) == word_scan_oracle("A", 2, 2)
    with pytest.raises(BudgetExceeded, match="6 weights x 4 letter classes"):
        multiplicity_oracle("A", 2, 3)


def test_wrong_eps_fails_verify(monkeypatch, capsys):
    # eps_1 of the letter {1} of A_2 is 0: read as 1, the walk never puts
    # it on the zero weight, and the counts disagree
    letter_eps = crystals._letter_eps

    def off_by_one(series, n, letter, i):
        eps = letter_eps(series, n, letter, i)
        return eps + 1 if letter.content == (1,) else eps

    monkeypatch.setattr(crystals, "_letter_eps", off_by_one)
    code = cli.run("verify --series A --n 2 --k 2 --oracle".split())
    out = capsys.readouterr().out
    assert code == 1
    assert "crystal oracle: FAILED" in out.splitlines()


_LIE_TYPE = {"A": TYPE_A, "B": TYPE_B, "C": TYPE_C, "D": TYPE_D}


@pytest.mark.parametrize("series,n,k", [
    ("A", 2, 3), ("A", 3, 2), ("B", 2, 3), ("C", 2, 2), ("D", 2, 4),
])
def test_dimension_sum(series, n, k):
    counts = multiplicity_oracle(series, n, k)
    total = 0
    for wt, mult in counts.items():
        coords = wt.parts if hasattr(wt, "parts") else tuple(wt)
        total += mult * weyl_dimension(_LIE_TYPE[series], n, coords)
    assert total == crystal_dimension(series, n) ** k


def test_letter_weights():
    assert letter_weight(Letter("A", 3, (1, 3))) == (1, 0, 1)
    assert letter_weight(Letter("C", 2, (1, 4))) == (0, 0)  # 1 and 1bar cancel
    assert letter_weight(Letter("B", 2, (1, -1))) == \
        (Fraction(1, 2), Fraction(-1, 2))


def test_highest_weight_shortcut_matches_operators():
    for combo in product(letters("C", 1), repeat=3):
        word = TensorWord(combo)
        direct = all(apply_operator(word, i, RAISE) is None
                     for i in index_set("C", 1))
        assert is_highest_weight(word) == direct


def _word(series, n, *factors_left_to_right):
    # displayed tensor products list the leftmost factor first
    return TensorWord(tuple(Letter(series, n, f)
                            for f in reversed(factors_left_to_right)))


def test_reference_highest_weight_word_type_a():
    # gl_5 exterior-algebra word of 6 factors with weight (5,4,4,2,1)
    word = _word("A", 5, (1, 3, 4), (1, 2, 3, 4, 5), (), (1, 2, 3), (1, 2, 3),
                 (1, 2))
    assert is_highest_weight(word)
    assert word.weight() == (5, 4, 4, 2, 1)


def test_reference_highest_weight_word_type_d():
    # so_8 spinor-sum word of 12 factors with weight (3,2,2,0)
    signs = [(-1, 1, 1, 1), (1, 1, 1, -1), (1, -1, -1, -1), (-1, 1, 1, -1),
             (1, -1, -1, 1), (1, -1, 1, 1), (1, 1, 1, 1), (1, 1, -1, 1),
             (-1, 1, 1, -1), (1, -1, -1, -1), (1, 1, 1, 1), (1, 1, 1, -1)]
    word = _word("D", 4, *signs)
    assert is_highest_weight(word)
    assert word.weight() == (3, 2, 2, 0)


def test_reference_highest_weight_word_rank_two():
    # D_2 word of 6 factors with weight zero
    signs = [(-1, 1), (-1, -1), (1, 1), (1, -1), (-1, -1), (1, 1)]
    word = _word("D", 2, *signs)
    assert is_highest_weight(word)
    assert word.weight() == (0, 0)
