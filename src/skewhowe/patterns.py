"""Gelfand-Tsetlin patterns and lozenge tilings.

Gelfand-Tsetlin pattern counting (type A branching), an oracle
independent of the Weyl dimension formula: one interlacing engine counts
the GT patterns with a given top row and ranks them, and the bijection
from GT patterns to lozenge tilings of a half hexagon gives the tiling
that `tiling` prints.  The oracles no command runs live in
tests/test_patterns.py: the Proctor patterns of types B, C and D, the
NILP enumeration between multiplicity.lgv_endpoints, King and Sundaram
tableaux, MacMahon's boxed plane partitions, semistandard tableaux with
the entry-shifting involution, and the inverse bijection lozenge_to_gt.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .partitions import Partition

#: The most pattern rows one engine may generate, counting and ranking.
EXHAUSTIVE_BUDGET = 10**6

# -- Gelfand-Tsetlin patterns ---------------------------------------------

class _Interlacing:
    """The GT engine: the patterns below a top row, counted and ranked in
    one order.

    The rows below a row are the rows one shorter that interlace with it,
    entry i running down from row[i] to row[i + 1], listed as the product
    of these ranges.  count(row) is the number of ways to complete a
    pattern below the row, down to a row of length 1; it is memoized and
    shared by counting and ranking.  Rows are generated in batches, one
    batch of children per row, and more than EXHAUSTIVE_BUDGET of them
    raise.
    """

    def __init__(self):
        self.rows = 0
        self.counts = {}

    def children(self, row: tuple[int, ...]):
        values = [range(row[i], row[i + 1] - 1, -1) for i in range(len(row) - 1)]
        self.rows += prod(map(len, values))
        if self.rows > EXHAUSTIVE_BUDGET:
            raise ValueError("the patterns take more rows than the budget "
                             f"of {EXHAUSTIVE_BUDGET}")
        return product(*values)

    def count(self, row: tuple[int, ...]) -> int:
        if len(row) <= 1:
            return 1
        if row not in self.counts:
            self.counts[row] = sum(map(self.count, self.children(row)))
        return self.counts[row]

    def pattern_at(self, top: tuple[int, ...], index: int):
        """The index-th pattern below top, its rows top first: walk down
        until a row has length 1, skipping whole subtrees by their
        counts."""
        total = self.count(top)
        if not 0 <= index < total:
            raise ValueError(f"index {index} out of range (count {total})")
        rows = (top,)
        while len(rows[-1]) > 1:
            for child in self.children(rows[-1]):
                below = self.count(child)
                if index < below:
                    break
                index -= below
            rows += (child,)
        return rows


@dataclass(frozen=True)
class GTPattern:
    """Triangular array; rows[j-1] has j entries, rows interlace upward.

    rows[-1] (length k) is the top row; entry conventions follow English
    reading of semistandard tableaux: row j is the shape of the tableau
    restricted to entries at most j.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for j, row in enumerate(self.rows, start=1):
            if len(row) != j:
                raise ValueError("row lengths must be 1, 2, ..., k")
        for upper, lower in zip(self.rows[1:], self.rows):
            for i, low in enumerate(lower):
                if not upper[i] >= low >= upper[i + 1]:
                    raise ValueError(f"interlacing fails: {upper} over {lower}")
        if any(v < 0 for row in self.rows for v in row):
            raise ValueError("entries must be nonnegative")

    @property
    def length(self) -> int:
        return len(self.rows)

    def top_row(self) -> tuple[int, ...]:
        return self.rows[-1]

    def to_json(self):
        return [list(row) for row in self.rows]


def _gt_engine(lam, k: int):
    """A fresh engine and lam's top row of k entries."""
    lam = Partition.of(lam)
    if k < 1:
        raise ValueError("a GT pattern needs k >= 1 rows")
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    return _Interlacing(), lam.padded(k)


def count_gt(lam, k: int) -> int:
    """Number of GT patterns with top row lam: the gl_k dimension."""
    engine, top = _gt_engine(lam, k)
    return engine.count(top)


def count_gt_and_pattern_at(lam, k: int, index: int) -> tuple[int, GTPattern]:
    """count_gt(lam, k) and the index-th GT pattern with top row lam,
    found without listing the ones before it, from one engine, so the
    patterns are counted once."""
    engine, top = _gt_engine(lam, k)
    rows = engine.pattern_at(top, index)
    return engine.count(top), GTPattern(rows[::-1])


# -- lozenge tilings -----------------------------------------------------------

@dataclass(frozen=True)
class LozengeTiling:
    """Tiling of the half hexagon with boundary partition mu.

    Column x (0 = rightmost, k-1 = leftmost) has n + k - x cells at
    heights 0 .. n+k-1-x, each carrying one tile: "B" tiles sit at the
    shifted particle positions of GT row k - x, and the "R"/"G" tiles
    trace the n lattice paths through the non-particle cells (an "R"
    step raises the path by one as it moves right, a "G" step keeps its
    height).
    """

    n: int
    k: int
    boundary: Partition
    tiles: tuple  # ((row, col, kind), ...) sorted

    def to_json(self) -> dict:
        return {
            "domain": {"shape": "half_hexagon", "n": self.n, "k": self.k,
                       "boundary": str(self.boundary)},
            "tiles": [[r, c, kind] for r, c, kind in self.tiles],
        }


def _b_heights(row: tuple[int, ...]) -> set[int]:
    j = len(row)
    return {row[i - 1] + j - i for i in range(1, j + 1)}


def gt_to_lozenge(pattern: GTPattern, n: int, k: int) -> LozengeTiling:
    """Half-hexagon tiling of a GT pattern with top row in the k x n box.

    B tiles in column x sit at heights (row entry) + j - i for GT row
    j = k - x; the remaining cells split into R and G along the n
    nonintersecting paths entering the left boundary at heights 0..n-1.
    """
    if pattern.length != k:
        raise ValueError(f"pattern has {pattern.length} rows, expected {k}")
    if pattern.top_row()[0] > n:
        raise ValueError("top row does not fit the domain")
    tiles = []
    prev_gaps = list(range(n))  # virtual column k: paths enter at 0..n-1
    for x in range(k - 1, -1, -1):
        j = k - x
        row = pattern.rows[j - 1]
        heights = _b_heights(row)
        ncells = n + k - x
        gaps = [h for h in range(ncells) if h not in heights]
        if len(gaps) != n:
            raise ValueError("wrong number of path cells in a column")
        for h in heights:
            tiles.append((h, x, "B"))
        for path_idx, h in enumerate(gaps):
            step = h - prev_gaps[path_idx]
            if step == 0:
                tiles.append((h, x, "G"))
            elif step == 1:
                tiles.append((h, x, "R"))
            else:
                raise ValueError("paths may climb at most one cell per column")
        prev_gaps = gaps
    return LozengeTiling(n, k, Partition(pattern.top_row()), tuple(sorted(tiles)))
