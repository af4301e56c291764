"""Probability measures on Young diagrams from the four dual pairs.

A box of partitions carries the measure
    mu(lambda) = dim V_G1(lambda) * dim V_G2(complement-conjugate) / 2^N
for one of the pairs GL (gl_n x gl_k), SO_PIN (so_{2n+1} x pin_{2k}), SP
(sp_2n x sp_2k) and O_SO (o_2n x o_2k), whose sides and N are its
multiplicity.PAIR_ROWS row.  A pin dimension is twice the type D_k one at
the spin-shifted weight mu + (1/2,...,1/2); an O dimension doubles the SO
one when the weight has full length (its two sign choices are one class).

Every table is exact: one int weight over 2^N per diagram, keyed by its
parts tuple, and the weights sum to exactly 2^N at construction (no
Fraction or Partition is built per entry).  The weights are walked from
the one Weyl evaluation at the empty diagram by partitions.walk_box, each
diagram grown from the one a box smaller: a box at row r moves one
doubled coordinate on each side, and the step multiplies by the ratio of
the pairings that involve those coordinates (_side_ratio, one loop over
plain ints), an exact division.  A remainder, or weights that do not sum
to 2^N, raise ExactDivisionError: a falsified identity.  The most
probable diagram is the table's heaviest entry.
Also here: dual RSK sampling and exact inverse-CDF sampling (a bisection
of the integer CDF).  The identities about these measures that no command
runs are checked in tests/test_ensembles.py: the Krawtchouk factorization
of the GL measure, the BC z-measure specialization, the exterior power
(fixed |lambda|) measures with the binomialization, and the q-deformed
normalizations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .exact import ExactDivisionError
from .multiplicity import PAIR_ROWS, _side_ratio, pair_row, weyl_dimension
from .partitions import (Partition, check_box_budget, doubled_coordinates,
                         walk_box)

PAIRS = tuple(PAIR_ROWS)
PAIR_GL, PAIR_SO_PIN, PAIR_SP, PAIR_O_SO = PAIRS

# Bits in one GL sample's n x k matrix (acceptance 8 draws 60 x 240 = 14,400).
GL_BITS_BUDGET = 10**6


def unnormalized_weight(pair: str, n: int, k: int, lam: Partition) -> int:
    """dim of the G1 class of lam times dim of the G2 class of its
    complement conjugate, with the pair's conventions (multiplicity.PAIR_ROWS)."""
    row = pair_row(pair)
    mu = lam.complement(n, k).conjugate()
    return weyl_dimension(row.g1, n, lam) * weyl_dimension(row.g2, k, mu)


@dataclass(frozen=True)
class MeasureTable:
    """The measure on the n x k box as integer weights over 2^exponent.

    entries maps each partition's parts tuple to its weight, in
    partitions.walk_box's order; the weights sum to exactly 2^exponent.
    """
    pair: str
    n: int
    k: int
    entries: dict  # parts tuple -> int weight over 2^exponent

    @property
    def exponent(self) -> int:
        """N: the weights are over 2^N."""
        return pair_row(self.pair).exponent(self.n, self.k)

    def __post_init__(self):
        denom = 1 << self.exponent
        total = sum(self.entries.values())
        if total != denom:
            raise ExactDivisionError(
                f"measure for {self.pair} ({self.n},{self.k}) sums to "
                f"{Fraction(total, denom)}, not 1 in weights over {denom}")


def measure_table(pair: str, n: int, k: int) -> MeasureTable:
    """Exact table of the measure on partitions in the n x k box.

    The weights are walked from W(empty) by partitions.walk_box, whose state
    is the weight with the doubled coordinates of both sides (g1, g2).  A
    box in row r and column m moves g1[r] by 2 and g2[k - m] by -2 and
    multiplies the weight by the two sides' _side_ratio; a ratio that is
    not positive or leaves a remainder raises ExactDivisionError.
    """
    check_box_budget(n, k)  # before W(empty), which walk_box is handed
    sides = pair_row(pair)
    lam = Partition()
    root = (unnormalized_weight(pair, n, k, lam),
            doubled_coordinates(lam, n, sides.g1.shift),
            doubled_coordinates(lam.complement(n, k).conjugate(), k,
                                sides.g2.shift))

    def grow(state, child):
        weight, g1, g2 = state
        r, j = len(child) - 1, k - child[-1]
        num, den = _side_ratio(sides.g1, g1, r, 2)
        n2, d2 = _side_ratio(sides.g2, g2, j, -2)
        num, den = num * n2, den * d2
        if not num or not den or (num < 0) != (den < 0):
            raise ExactDivisionError(f"measure at weight ({Partition(child)}): "
                                     f"the ratio {num}/{den} is not positive")
        weight, rem = divmod(weight * num, den)
        if rem:
            raise ExactDivisionError(f"measure at weight ({Partition(child)}): "
                                     f"the ratio {num}/{den} leaves a remainder")
        g1, g2 = g1[:], g2[:]
        g1[r] += 2
        g2[j] -= 2
        return weight, g1, g2

    entries = {parts: state[0] for parts, state in walk_box(n, k, root, grow)}
    return MeasureTable(pair, n, k, entries)


def most_probable_diagram(table: MeasureTable) -> Partition:
    """The table's heaviest diagram; a tie goes to the smallest parts tuple."""
    top = max(table.entries.values())
    return Partition(min(parts for parts, w in table.entries.items() if w == top))


# -- dual RSK ----------------------------------------------------------------

# Matrices in one dual_rsk_shapes batch, one per lane, chosen by timing 200
# samples at 50 x 150 and 150 x 50 (README "GL sampler").
RSK_LANES = 64
# Bits of one batch's packed rows plus its tableau, at most 2 * rows * lanes
# * (width + 1): 2^24 bits (2 MiB) hold 8 lanes of 1000 x 1000 matrices.
RSK_BATCH_BITS = 1 << 24


def dual_rsk_shape(rows) -> Partition:
    """Shape of the dual RSK insertion tableau of one 0/1 matrix, given as
    k-bit row ints (see dual_rsk_shapes)."""
    return dual_rsk_shapes([rows])[0]


def dual_rsk_shapes(matrices) -> list[Partition]:
    """Shapes of the insertion tableaux of 0/1 matrices under dual RSK.

    Each matrix is a list of rows, each row an int with bit j-1 standing
    for column j; each tableau row, being strictly increasing, is kept
    the same way.  The biword runs through the 1 entries in lexicographic
    order and each column index is row-inserted with an equal entry
    bumped (leftmost entry >= j is bumped).  The resulting shape of an
    n x k matrix lies in the k^n box and is distributed per the GL
    measure when the entries are independent fair bits.

    matrices may be any iterable; it is read RSK_LANES matrices at a time
    (fewer when a batch would pass RSK_BATCH_BITS), and each batch is
    inserted by _lane_shapes, one matrix per lane.
    """
    shapes: list[Partition] = []
    batch: list[list[int]] = []
    rows = width = 0
    for matrix in matrices:
        size = len(matrix), max(map(int.bit_length, matrix), default=0)
        rows, width = max(rows, size[0]), max(width, size[1])
        if batch and (len(batch) == RSK_LANES or
                      2 * rows * (len(batch) + 1) * (width + 1) > RSK_BATCH_BITS):
            shapes += _lane_shapes(batch)
            batch, (rows, width) = [], size
        batch.append(matrix)
    if batch:
        shapes += _lane_shapes(batch)
    return shapes


def _lane_shapes(batch: list[list[int]]) -> list[Partition]:
    """dual RSK shapes of a batch of matrices, inserted side by side.

    Lane s of an int is its bits s*w .. s*w + w - 1, where w is one more
    than the widest row in the batch: lane s holds matrix s's row or
    tableau row and its top bit is a guard, never set.  Row i of every
    matrix is inserted at once (a matrix without a row i inserts 0).

    A matrix row is inserted into a tableau row as a set: within one row
    the entries it bumps come out increasing, so every tableau row sees
    its inputs in the same order as with entry-by-entry insertion.  Each
    s in the set S bumps the smallest r >= s of the row R not bumped by a
    smaller s: one addition of S to the free positions of R (lanes ^ R,
    every bit of R's lane but R's and the guard) carries each s up to its
    r.  Two carries meeting on a free position leave one stuck there, and
    it is injected again (bumped positions now free) until none are left.
    A carry that finds no r runs through the free bits above the top of R
    and stops on the guard, where it ends: its s is appended to the row.
    The new row is R minus the bumped set B, plus S, and B goes on to the
    next row.  No carry leaves its lane, so lanes never interact; a lane
    whose S is 0 is left as it was, and one whose R is empty takes S as
    its row.  Lane s's tableau rows stay contiguous from the first, and
    its shape is their bit counts.
    """
    width = max((row.bit_length() for matrix in batch for row in matrix),
                default=0) + 1
    lanes = 0
    for _ in batch:
        lanes = lanes << width | ((1 << width - 1) - 1)
    tableau: list[int] = []
    for i in range(max(map(len, batch))):
        s = 0
        for matrix in reversed(batch):
            s = s << width | (matrix[i] if i < len(matrix) else 0)
        depth = 0
        while s:
            if depth == len(tableau):
                tableau.append(s)
                break
            row = tableau[depth]
            free = lanes ^ row
            x = s
            while x:
                carry_in = (free + x) ^ free ^ x
                hit = row & (carry_in | x)
                x &= carry_in & free
                free |= hit
            bumped = row & free
            tableau[depth] = (row ^ bumped) | s
            s = bumped
            depth += 1
    mask = (1 << width) - 1
    return [Partition(tuple((row >> offset & mask).bit_count() for row in tableau))
            for offset in range(0, width * len(batch), width)]


# -- counter-based RNG --------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The 64-bit finalizer of the splitmix64 generator."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_bit_matrix(n: int, k: int, seed: int, stream: int) -> list[int]:
    """n rows of k fair bits as k-bit ints (bit j-1 is column j), a pure
    function of its args.

    The stream is splitmix64 in counter mode: its key is the mix of seed +
    stream * golden, and its word i (from 0) mixes key + (i+1) * golden.
    The words are joined into one little-endian int and row i is its bits
    i*k .. i*k+k-1, the stream read in order."""
    key = _mix64((seed + stream * _GOLDEN) & _MASK64)
    words = b"".join(_mix64((key + i * _GOLDEN) & _MASK64).to_bytes(8, "little")
                     for i in range(1, -(-n * k // 64) + 1))
    bits = int.from_bytes(words, "little")
    mask = (1 << k) - 1
    return [(bits >> (i * k)) & mask for i in range(n)]


def sample(pair: str, n: int, k: int, count: int, seed: int) -> list[Partition]:
    """Draw diagrams from the pair's measure, deterministically in seed.

    GL uses uniform 0/1 matrices plus dual RSK (up to GL_BITS_BUDGET
    matrix bits); the other pairs invert the exact CDF of the enumerated
    table, so their support must be enumerable.  Sample s uses stream
    index s.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if pair == PAIR_GL:
        if n * k > GL_BITS_BUDGET:
            raise ValueError(f"a {n}x{k} GL sample needs {n * k} bits, over the "
                             f"budget of {GL_BITS_BUDGET}")
        return dual_rsk_shapes(random_bit_matrix(n, k, seed, s)
                               for s in range(count))
    table = measure_table(pair, n, k)
    keys = sorted(table.entries)
    cdf = list(accumulate(map(table.entries.__getitem__, keys)))
    out = []
    for s in range(count):
        # u uniform in [0, 1): the stream's first two words as 128 binary
        # digits.  The draw is the first lam with u < cdf / 2^N, that is
        # with floor(u 2^N) < cdf, as cdf is an integer.
        high, low = random_bit_matrix(2, 64, seed, s)
        u = high << 64 | low
        out.append(Partition(keys[bisect_right(cdf, (u << table.exponent) >> 128)]))
    return out
