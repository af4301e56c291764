"""Interlacing patterns and lozenge tilings.

Counting oracles independent of the Weyl dimension formula:

  * Gelfand-Tsetlin patterns (type A branching),
  * Proctor half-patterns for types B, C, D (symplectic and orthogonal
    branching; type B allows a half-integer last entry per row pair,
    type D a signed one), counted and ranked by the same interlacing
    engine as the GT patterns.

Also the bijection from GT patterns to lozenge tilings of a half
hexagon that `tiling` prints.  The oracles no command runs live in
tests/test_patterns.py: the NILP enumeration between
multiplicity.lgv_endpoints, King and Sundaram tableaux, MacMahon's
boxed plane partitions, semistandard tableaux with the entry-shifting
involution, and the inverse bijection lozenge_to_gt.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .partitions import Partition

#: The most pattern rows one engine may generate, counting and ranking.
EXHAUSTIVE_BUDGET = 10**6

# -- the interlacing engine of GT and Proctor patterns ------------------------

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


class _Interlacing:
    """The interlacing engine: patterns below a doubled top row whose rows
    follow a row plan, counted and ranked in one order.

    count(row, depth) is the number of ways to complete a pattern below
    the row at that depth of the plan; it is memoized and shared by
    counting and ranking.  Rows are generated in batches, one batch of
    children per row, and more than EXHAUSTIVE_BUDGET of them raise.
    """

    def __init__(self, plan):
        self.plan = plan
        self.rows = 0
        self.counts = {}

    def children(self, row: tuple[int, ...], depth: int):
        values = _child_values(row, *self.plan[depth])
        self.rows += prod(map(len, values))
        if self.rows > EXHAUSTIVE_BUDGET:
            raise ValueError("the patterns take more rows than the budget "
                             f"of {EXHAUSTIVE_BUDGET}")
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


def _engine(series: str, lam, k: int):
    """The engine of the series' row plan, and lam's doubled top row."""
    lam = Partition.of(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    return _Interlacing(_row_plan(series, k)), tuple(2 * v for v in lam.padded(k))


# -- Gelfand-Tsetlin patterns ---------------------------------------------


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
    lam = Partition.of(lam)
    if k < 1:
        raise ValueError("a GT pattern needs k >= 1 rows")
    return _engine("A", lam, k)


def _gt_pattern(rows) -> GTPattern:
    """The GTPattern of the engine's doubled, top-first rows."""
    return GTPattern(tuple(tuple(v // 2 for v in row) for row in reversed(rows)))


def count_gt(lam, k: int) -> int:
    """Number of GT patterns with top row lam: the gl_k dimension."""
    engine, top = _gt_engine(lam, k)
    return engine.count(top, 1)


def count_gt_and_pattern_at(lam, k: int, index: int) -> tuple[int, GTPattern]:
    """count_gt(lam, k) and the index-th GT pattern with top row lam,
    found without listing the ones before it, from one engine, so the
    patterns are counted once."""
    engine, top = _gt_engine(lam, k)
    rows = engine.pattern_at(top, index)
    return engine.count(top, 1), _gt_pattern(rows)


# -- Proctor patterns -------------------------------------------------------

def count_proctor(series: str, lam, k: int) -> int:
    """Number of Proctor patterns with the given top row: the dimension
    of the irreducible for sp_2k (C), so_{2k+1} (B), or so_2k (D)."""
    engine, top = _engine(series, lam, k)
    return engine.count(top, 1)


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
