"""Interlacing patterns, tableaux, lattice paths, and lozenge tilings.

Counting oracles independent of the Weyl dimension formula:

  * Gelfand-Tsetlin patterns (type A branching),
  * Proctor half-patterns for types B, C, D (symplectic and orthogonal
    branching; type B allows a half-integer last entry per row pair,
    type D a signed one), counted, listed and ranked by the same
    interlacing engine as the GT patterns,
  * nonintersecting lattice paths between multiplicity.lgv_endpoints,
    counted by exhaustive enumeration,
  * MacMahon's boxed plane partition product.

Also the bijections: GT pattern <-> lozenge tiling of a half hexagon,
and the entry-shifting involution on semistandard tableaux that realizes
the conjugate-shape pairing behind the flagged-tableau count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .multiplicity import lgv_endpoints
from .partitions import Partition, TypeDWeight

#: The most pattern rows one count, listing or rank walk may generate, and
#: the most path tuples the NILP enumeration may try.
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
    follow a row plan, counted, listed and ranked in one order.

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

    def patterns(self, rows: tuple):
        """The patterns that complete the given top rows, as tuples of rows."""
        depth = len(rows)
        if depth >= len(self.plan):
            yield rows
            return
        for child in self.children(rows[-1], depth):
            yield from self.patterns(rows + (child,))

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
    plan = _row_plan(series, k)
    if series == "D":
        top = TypeDWeight.of(lam, k).parts
        if len(top) != k:
            raise ValueError("top row length must equal the rank")
    else:
        lam = Partition.of(lam)
        if len(lam) > k:
            raise ValueError(f"{lam} has more than {k} rows")
        top = lam.padded(k)
    return _Interlacing(plan), tuple(2 * v for v in top)


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


def enumerate_gt(lam, k: int):
    """All GT patterns with top row lam padded to length k."""
    engine, top = _gt_engine(lam, k)
    for rows in engine.patterns((top,)):
        yield _gt_pattern(rows)


def count_gt(lam, k: int) -> int:
    """Number of GT patterns with top row lam: the gl_k dimension."""
    engine, top = _gt_engine(lam, k)
    return engine.count(top, 1)


def count_gt_and_pattern_at(lam, k: int, index: int) -> tuple[int, GTPattern]:
    """count_gt(lam, k) and gt_pattern_at(lam, k, index) from one engine,
    so the patterns are counted once."""
    engine, top = _gt_engine(lam, k)
    rows = engine.pattern_at(top, index)
    return engine.count(top, 1), _gt_pattern(rows)


def gt_pattern_at(lam, k: int, index: int) -> GTPattern:
    """The index-th pattern of enumerate_gt(lam, k), found without listing
    the ones before it."""
    return count_gt_and_pattern_at(lam, k, index)[1]


# -- Proctor patterns -------------------------------------------------------

def count_proctor(series: str, lam, k: int) -> int:
    """Number of Proctor patterns with the given top row: the dimension
    of the irreducible for sp_2k (C), so_{2k+1} (B), or so_2k (D)."""
    engine, top = _engine(series, lam, k)
    return engine.count(top, 1)


def enumerate_proctor(series: str, lam, k: int):
    """All Proctor patterns with the given top row, as tuples of rows in
    doubled coordinates (top row first; halve to recover the entries)."""
    engine, top = _engine(series, lam, k)
    yield from engine.patterns((top,))


# -- King and Sundaram tableaux ------------------------------------------------
#
# A second, independent tableau model for the B/C dimensions.  The
# alphabet is 1 < 1bar < 2 < 2bar < ... < k < kbar, encoded as integers
# 1..2k (symbol j is 2j-1, jbar is 2j); the entries of row i must be at
# least the symbol i (encoded 2i-1).  Sundaram tableaux append a maximal
# symbol (encoded 2k+1) that appears at most once per row but, unlike
# the finite symbols, may repeat down a column.


def count_king_tableaux(lam, k: int, with_infinity: bool = False) -> int:
    """King (sp_2k) or, with the extra symbol, Sundaram (so_{2k+1})
    tableaux of the given shape, by direct enumeration."""
    lam = Partition.of(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    top = 2 * k + (1 if with_infinity else 0)
    nrows = len(lam)

    def rows_from(i: int, above: tuple[int, ...]) -> int:
        if i == nrows:
            return 1
        width = lam.part(i + 1)
        total = 0

        def build(j: int, acc: tuple[int, ...]):
            nonlocal total
            if j == width:
                total += rows_from(i + 1, acc)
                return
            lo = max(2 * i + 1, acc[-1] if acc else 1)
            if above:
                lo = max(lo, above[j] + 1)
            for v in range(lo, top + 1):
                if with_infinity and v == top and acc and acc[-1] == top:
                    continue  # at most one maximal symbol per row
                build(j + 1, acc + (v,))
            if (with_infinity and above and j < len(above)
                    and above[j] == top and lo > top
                    and not (acc and acc[-1] == top)):
                build(j + 1, acc + (top,))  # maximal symbol repeats downward

        build(0, ())
        return total

    return rows_from(0, ())


# -- MacMahon box counting ---------------------------------------------------

def plane_partition_count(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box:
    prod_{i<=a, j<=b, m<=c} (i+j+m-1)/(i+j+m-2)."""
    if min(a, b, c) < 0:
        raise ValueError("box sides must be nonnegative")
    num = 1
    den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for m in range(1, c + 1):
                num *= i + j + m - 1
                den *= i + j + m - 2
    out, rem = divmod(num, den)
    if rem:
        raise AssertionError("MacMahon product is not an integer")
    return out


def plane_partition_count_exhaustive(a: int, b: int, c: int) -> int:
    """Direct enumeration of weakly decreasing a x b arrays with entries <= c."""

    def rec(row_idx: int, above: tuple[int, ...]):
        if row_idx == a:
            return 1
        total = 0
        for row in _weakly_decreasing_rows(b, above):
            total += rec(row_idx + 1, row)
        return total

    def _weakly_decreasing_rows(width: int, cap_row: tuple[int, ...]):
        def build(i: int, acc: tuple[int, ...]):
            if i == width:
                yield acc
                return
            hi = min(cap_row[i], acc[-1] if acc else c)
            for v in range(hi, -1, -1):
                yield from build(i + 1, acc + (v,))
        yield from build(0, ())

    return rec(0, (c,) * b)


# -- semistandard tableaux and the conjugation involution ---------------------

@dataclass(frozen=True)
class SemistandardTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("rows must weakly increase")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("shape must be a partition")
            if any(upper[i] >= lower[i] for i in range(len(lower))):
                raise ValueError("columns must strictly increase")
        if any(v < 1 for row in self.rows for v in row):
            raise ValueError("entries must be positive")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]


def psi_involution(t: SemistandardTableau) -> SemistandardTableau:
    """Entry-shifting conjugation: cell (i, j) with entry m maps to cell
    (j, i) with entry m + j - i.  An involution exchanging semistandard
    tableaux of conjugate shapes; it carries the flagged tableaux
    counting the tensor multiplicity onto tableaux with bounded entries.
    """
    shape = t.shape
    conj = shape.conjugate()
    rows = []
    for i in range(1, len(conj) + 1):
        row = []
        for j in range(1, conj.part(i) + 1):
            row.append(t.entry(j, i) + i - j)
        rows.append(tuple(row))
    return SemistandardTableau(tuple(rows))


def enumerate_ssyt(shape, max_entry: int, flags=None):
    """Semistandard tableaux of the given shape with entries <= max_entry;
    optional per-row flags cap row i (1-based) at flags[i-1]."""
    shape = Partition.of(shape)
    nrows = len(shape)
    caps = list(flags) if flags is not None else [max_entry] * nrows

    def rec(i: int, rows: tuple[tuple[int, ...], ...]):
        if i == nrows:
            yield SemistandardTableau(rows)
            return
        width = shape.part(i + 1)
        above = rows[i - 1] if i else None

        def build(j: int, acc: tuple[int, ...]):
            if j == width:
                yield acc
                return
            lo = acc[-1] if acc else 1
            if above is not None:
                lo = max(lo, above[j] + 1)
            for v in range(lo, min(max_entry, caps[i]) + 1):
                yield from build(j + 1, acc + (v,))

        for row in build(0, ()):
            yield from rec(i + 1, rows + (row,))

    yield from rec(0, ())


def flagged_multiplicity_tableaux(lam, n: int, k: int):
    """SSYT of the box complement of lam flagged by f_i = i + 1 + lam_{n-i}
    (i = 0..n-1); these count the tensor multiplicity of lam."""
    lam = Partition.of(lam)
    comp = lam.complement(n, k)
    flags = [i + 1 + lam.part(n - i) for i in range(n)]
    return enumerate_ssyt(comp, max(flags, default=0), flags)


# -- nonintersecting lattice paths ---------------------------------------------

def _lattice_paths(start: tuple[int, int], end: tuple[int, int], below: bool):
    """E/N paths from start to end; with below, staying weakly below y = x."""
    sx, sy = start
    ex, ey = end

    def rec(x: int, y: int, acc: str):
        if (x, y) == (ex, ey):
            yield acc
            return
        if x < ex:
            yield from rec(x + 1, y, acc + "E")
        if y < ey and (not below or y < x):
            yield from rec(x, y + 1, acc + "N")

    if not below or sy <= sx:
        yield from rec(sx, sy, "")


def _path_vertices(start: tuple[int, int], steps: str):
    x, y = start
    verts = [(x, y)]
    for s in steps:
        if s == "E":
            x += 1
        else:
            y += 1
        verts.append((x, y))
    return verts


def nilp_count(series: str, n: int, k: int, p: int, lam) -> int:
    """Nonintersecting path families between the lgv_endpoints of the
    series, by direct enumeration of vertex-disjoint path tuples.

    Series D paths live weakly below the diagonal and carry weight
    2^(number of diagonal touch points after the start), realizing the
    two-way steps onto the diagonal.  The LGV determinant over the same
    endpoints is multiplicity.mult_det_*_q.
    """
    starts, ends = lgv_endpoints(series, lam, n, k, p)
    all_paths = []
    total = 1
    for s, e in zip(starts, ends):
        paths = list(_lattice_paths(s, e, below=series != "A"))
        all_paths.append(paths)
        total *= max(1, len(paths))
        if total > EXHAUSTIVE_BUDGET:
            raise ValueError("exhaustive NILP budget exceeded")

    count = 0

    def rec(idx: int, used: frozenset, weight: int):
        nonlocal count
        if idx == n:
            count += weight
            return
        for steps in all_paths[idx]:
            verts = _path_vertices(starts[idx], steps)
            vset = set(verts)
            if vset & used:
                continue
            w = weight
            if series == "D":
                touches = sum(1 for (x, y) in verts[1:] if x == y)
                w = weight * (2**touches)
            rec(idx + 1, used | vset, w)

    rec(0, frozenset(), 1)
    return count


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

    def tile_grid(self) -> dict:
        return {(r, c): kind for r, c, kind in self.tiles}

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


def lozenge_to_gt(tiling: LozengeTiling) -> GTPattern:
    """Inverse bijection: read the B-tile heights column by column."""
    n, k = tiling.n, tiling.k
    grid = tiling.tile_grid()
    rows = []
    for j in range(1, k + 1):
        x = k - j
        ncells = n + k - x
        heights = sorted((h for h in range(ncells) if grid.get((h, x)) == "B"),
                         reverse=True)
        if len(heights) != j:
            raise ValueError(f"column {x} must hold {j} B tiles")
        row = tuple(heights[i - 1] - (j - i) for i in range(1, j + 1))
        rows.append(row)
    return GTPattern(tuple(rows))
