import inspect
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import add, le

import pytest
from hypothesis import given, settings, strategies as st

from skewhowe import cli, crystals
from skewhowe.crystals import multiplicity_oracle
from skewhowe.multiplicity import (TYPE_A, TYPE_B, TYPE_C, TYPE_D, Side,
                                   weyl_dimension)

# -- letters as columns and sign vectors of atoms: the alphabet of the scan ----
#
# A letter is a tuple of "atoms", primitive crystal elements whose
# i-strings all have length <= 1:
#   series A: atom j in {1..n}
#   series C: atom c in {1..2n}; c <= n is the letter c, c > n is the
#             barred letter (2n+1-c)bar; every f_i acts as c -> c+1
#   series B/D: the whole sign vector is a single atom.
# Columns (series A/C) are read bottom-to-top, which for a subset sorted
# increasingly means largest atom first.  Series C, the exterior algebra of
# the natural sp_2n representation (2^(2n) letters), is not minuscule: its
# eps is not read off the weight, and no verify row has G1 of type C.


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


def letter_weight(letter: Letter) -> tuple[int, ...]:
    """The doubled weight 2 wt(b), the key multiplicity_oracle files by."""
    n = letter.rank
    w = [0] * n
    if letter.series == "A":
        for j in letter.content:
            w[j - 1] += 2
    elif letter.series == "C":
        for c in letter.content:
            if c <= n:
                w[c - 1] += 2
            else:
                w[2 * n - c] -= 2
    else:
        w = list(letter.content)
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
    """eps_i of one letter by the signature rule: the "+" left in its
    atoms' signature once the "+-" pairs are deleted."""
    plus = 0
    for atom in letter.atoms():
        if _atom_phi(series, n, atom, i) and plus:
            plus -= 1
        plus += _atom_eps(series, n, atom, i)
    return plus


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

    def weight(self) -> tuple[int, ...]:
        """The doubled weight."""
        w = [0] * self.rank
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
    """Highest-weight counts by doubled weight, as multiplicity_oracle
    files them, by testing every one of the |B|^k words (k >= 1)."""
    counts = Counter()
    for combo in product(letters(series, n), repeat=k):
        word = TensorWord(combo)
        if is_highest_weight(word):
            counts[word.weight()] += 1
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


def _coroot_pairing(series, n, doubled, i):
    """2<wt, alpha_i^vee> from the doubled weight."""
    if i < n:
        return doubled[i - 1] - doubled[i]
    if series == "B":
        return 2 * doubled[n - 1]
    if series == "C":
        return doubled[n - 1]
    return doubled[n - 2] + doubled[n - 1]


# -- the walk by eps: the oracle's step read off Kashiwara's rule --------------


def _eps(series: str, n: int, letter: tuple) -> tuple:
    """2 eps_i of a letter of a minuscule crystal, read off its doubled
    weight: max(0, -2<wt, alpha_i^vee>)."""
    return tuple(max(0, -_coroot_pairing(series, n, letter, i))
                 for i in index_set(series, n))


def class_walk_oracle(series: str, n: int, k: int) -> dict:
    """multiplicity_oracle by the tensor product rule itself: each step
    adds every letter whose eps fits under the weight's coroot pairings.
    The 2^n letters are grouped into classes by eps, since letters with
    the same eps extend the same words."""
    classes: dict = {}
    for letter in product(crystals._ENTRIES[series], repeat=n):
        classes.setdefault(_eps(series, n, letter), []).append(letter)
    states = {(0,) * n: 1}
    for _ in range(k):
        grown = Counter()
        for doubled, count in states.items():
            pairings = [_coroot_pairing(series, n, doubled, i)
                        for i in index_set(series, n)]
            for eps, members in classes.items():
                if all(map(le, eps, pairings)):
                    for letter in members:
                        grown[tuple(map(add, doubled, letter))] += count
        states = grown
    return dict(states)


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


@pytest.mark.parametrize("series,n,k", [
    ("A", 3, 2), ("B", 2, 2), ("C", 2, 1), ("D", 2, 3),
])
def test_weight_string_axiom(series, n, k):
    # <wt(b), coroot_i> + eps_i(b) = phi_i(b), doubled
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
            assert _coroot_pairing(series, n, wt, i) + 2 * eps == 2 * phi


@pytest.mark.parametrize("series", "ABD")
def test_eps_read_off_the_weight(series):
    # the A, B and D alphabets are minuscule: the signature rule on atoms
    # gives eps_i(b) = max(0, -<wt(b), alpha_i^vee>) for every letter
    for n in range(8):
        for letter in letters(series, n):
            by_atoms = tuple(2 * _letter_eps(series, n, letter, i)
                             for i in index_set(series, n))
            assert _eps(series, n, letter_weight(letter)) == by_atoms


def test_oracle_examples():
    got = multiplicity_oracle("A", 2, 2)
    assert got == {(0, 0): 1, (2, 0): 2, (2, 2): 3, (4, 0): 1, (4, 2): 2,
                   (4, 4): 1}
    assert multiplicity_oracle("B", 1, 2) == {(2,): 1, (0,): 1}
    assert multiplicity_oracle("A", 3, 0) == {(0, 0, 0): 1}
    assert multiplicity_oracle("D", 2, 0) == {(0, 0): 1}
    with pytest.raises(KeyError):  # the walk has no type C alphabet
        multiplicity_oracle("C", 2, 1)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.sampled_from("ABD"), st.integers(0, 4), st.integers(1, 5))
       .filter(lambda c: crystal_dimension(c[0], c[1]) ** c[2] <= 10**4))
def test_walk_matches_the_word_scan(case):
    assert multiplicity_oracle(*case) == word_scan_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from("ABD"), st.integers(0, 4), st.integers(0, 5))
def test_walk_matches_the_class_walk(series, n, k):
    # the minuscule rule: eps_i(b) <= phi_i(u) for every i iff u + wt(b)
    # is dominant, for each letter b and dominant weight u
    assert multiplicity_oracle(series, n, k) == class_walk_oracle(series, n, k)


def test_oracle_budget(monkeypatch):
    # one step from zero at rank 20: the weakly decreasing prefixes of
    # length j number j + 1, so the list passes 10 at its tenth coordinate
    monkeypatch.setattr(crystals, "DEFAULT_BUDGET", 10)
    for series in "ABD":
        with pytest.raises(ValueError, match="^11 letters built in one step "
                           "exceed the budget of 10$"):
            multiplicity_oracle(series, 20, 1)
    assert multiplicity_oracle("A", 20, 0) == {(0,) * 20: 1}
    # the A 100x50 walk, out of reach, is refused once a step has built
    # a thousand letters
    monkeypatch.setattr(crystals, "DEFAULT_BUDGET", 1000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceed the budget of 1000$"):
        multiplicity_oracle("A", 100, 50)
    assert time.perf_counter() - start < 2


def test_oracle_budget_per_step(monkeypatch):
    # A_2: the steps build 3, 10 and 21 letters; the budget holds each
    # step to itself, not the walk.  The third step has built 10 letters
    # from three weights when the two prefixes of the fourth pass 10
    monkeypatch.setattr(crystals, "DEFAULT_BUDGET", 10)
    assert multiplicity_oracle("A", 2, 2) == word_scan_oracle("A", 2, 2)
    with pytest.raises(ValueError, match="^12 letters built in one step"):
        multiplicity_oracle("A", 2, 3)


def test_wrong_eps_fails_verify(monkeypatch, capsys):
    # a step that also admits the letter {2} of A_2, doubled weight (0, 2),
    # on the zero weight: eps_1 of it is 1 > phi_1 = 0, and (0, 2) is not
    # dominant, so the counts disagree
    source = inspect.getsource(crystals)
    rule = "u + e <= head[-1]"
    assert source.count(rule) == 1
    mutant = {"__name__": "mutant"}
    exec(compile(source.replace(rule, rule + " or head + (u + e,) == (0, 2)"),
                 crystals.__file__, "exec"), mutant)
    assert (0, 2) in mutant["multiplicity_oracle"]("A", 2, 1)
    monkeypatch.setattr(crystals, "multiplicity_oracle",
                        mutant["multiplicity_oracle"])
    code = cli.run("verify --series A --n 2 --k 2 --oracle".split())
    out = capsys.readouterr().out
    assert code == 1
    assert "crystal oracle: FAILED" in out.splitlines()


_LIE_TYPE = {"A": TYPE_A, "B": TYPE_B, "C": TYPE_C, "D": TYPE_D}


def doubled_weight_dimension(series: str, doubled) -> int:
    """The Weyl dimension of the series' Lie type at a doubled weight.  The
    entries of a weight of a tensor power share one parity, which is the
    spin of the Side that reads the halved ints."""
    spin = doubled[0] % 2 if doubled else 0
    assert all(v % 2 == spin for v in doubled), doubled
    return weyl_dimension(Side(_LIE_TYPE[series], spin), len(doubled),
                          tuple((v - spin) // 2 for v in doubled))


@pytest.mark.parametrize("series,n,k", [
    ("A", 2, 3), ("A", 3, 2), ("B", 2, 3), ("C", 2, 2), ("D", 2, 4),
])
def test_dimension_sum(series, n, k):
    # the walk has no type C alphabet: C reads the scan
    oracle = word_scan_oracle if series == "C" else multiplicity_oracle
    total = 0
    for doubled, mult in oracle(series, n, k).items():
        total += mult * doubled_weight_dimension(series, doubled)
    assert total == crystal_dimension(series, n) ** k


def test_letter_weights():
    assert letter_weight(Letter("A", 3, (1, 3))) == (2, 0, 2)
    assert letter_weight(Letter("C", 2, (1, 4))) == (0, 0)  # 1 and 1bar cancel
    assert letter_weight(Letter("B", 2, (1, -1))) == (1, -1)


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
    assert word.weight() == (10, 8, 8, 4, 2)


def test_reference_highest_weight_word_type_d():
    # so_8 spinor-sum word of 12 factors with weight (3,2,2,0)
    signs = [(-1, 1, 1, 1), (1, 1, 1, -1), (1, -1, -1, -1), (-1, 1, 1, -1),
             (1, -1, -1, 1), (1, -1, 1, 1), (1, 1, 1, 1), (1, 1, -1, 1),
             (-1, 1, 1, -1), (1, -1, -1, -1), (1, 1, 1, 1), (1, 1, 1, -1)]
    word = _word("D", 4, *signs)
    assert is_highest_weight(word)
    assert word.weight() == (6, 4, 4, 0)


def test_reference_highest_weight_word_rank_two():
    # D_2 word of 6 factors with weight zero
    signs = [(-1, 1), (-1, -1), (1, 1), (1, -1), (-1, -1), (1, 1)]
    word = _word("D", 2, *signs)
    assert is_highest_weight(word)
    assert word.weight() == (0, 0)
