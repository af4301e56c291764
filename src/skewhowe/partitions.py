"""Partitions, box complements, conjugates, and the doubled shifted coordinates.

A Partition is a weakly decreasing tuple of nonnegative integers with
trailing zeros trimmed; it is the one weight type of the package.  A spin
weight (+1/2 in every entry) is a partition read with its Side's shift,
and a type D weight with a negative last entry has the multiplicity of
its partition of absolute values.  Partitions carry no box context: the
box dimensions (n, k) are passed explicitly wherever a complement is taken.
walk_box is the one walk of a box: measure_table and verify grow each
diagram's value from the diagram one box smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part: {parts}")
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def of(parts) -> "Partition":
        if isinstance(parts, Partition):
            return parts
        return Partition(tuple(parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-based part with zero padding beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    @property
    def weighted_size(self) -> int:
        """sum over rows of (i-1) * parts[i], rows counted from 1."""
        return sum(i * p for i, p in enumerate(self.parts))

    def fits_in_box(self, n: int, k: int) -> bool:
        return len(self.parts) <= n and (not self.parts or self.parts[0] <= k)

    def conjugate(self) -> "Partition":
        """Transpose: column lengths of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def complement(self, n: int, k: int) -> "Partition":
        """Complement inside the n x k box: row i maps to k - parts[n+1-i]."""
        if not self.fits_in_box(n, k):
            raise ValueError(f"{self} does not fit in a {n}x{k} box")
        padded = self.padded(n)
        return Partition(tuple(k - padded[n - 1 - i] for i in range(n)))


#: The most partitions a box may hold to be enumerated.
SUPPORT_BUDGET = 10**7


def check_box_budget(n: int, k: int) -> None:
    """Raise ValueError unless n, k >= 0 and the n x k box holds at most
    SUPPORT_BUDGET partitions."""
    if n < 0 or k < 0:
        raise ValueError("box dimensions must be nonnegative")
    size = 1
    for i in range(1, min(n, k) + 1):
        size = size * (max(n, k) + i) // i  # binomial(max(n, k) + i, i)
        if size > SUPPORT_BUDGET:  # stop before the binomial grows huge
            raise ValueError(f"the {n}x{k} box holds more partitions than "
                             f"the budget of {SUPPORT_BUDGET}")


def walk_box(n: int, k: int, root, grow: Callable) -> Iterator[tuple]:
    """The partitions in the n x k box, binomial(n + k, n) of them, each as
    (parts, state), where parts is its parts tuple and the empty
    partition's state is root.

    A box over check_box_budget raises ValueError at the call, before
    anything is yielded.  Each partition comes before its extensions by
    one more row, and those come with the longest new row first.  Once a
    partition is yielded its extensions are grown, shortest first:
    grow(state, child) returns the child's state, given the state of the
    child less its last box (its parent or its previous sibling), and
    leaves that state as it was.  The walk keeps its own stack, so any
    number of rows fits.
    """
    check_box_budget(n, k)

    def walk():
        stack = [((), root)]
        while stack:
            parts, state = stack.pop()
            yield parts, state
            if len(parts) < n:
                for m in range(1, (parts[-1] if parts else k) + 1):
                    child = parts + (m,)
                    state = grow(state, child)
                    stack.append((child, state))

    return walk()


# -- coordinate systems -------------------------------------------------

def doubled_coordinates(mu, rank: int, shift: int = 0) -> list[int]:
    """Doubled shifted coordinates 2(mu_i + rank - i) + shift, i = 1..rank.

    The one definition of the rho-shifted coordinates, as plain ints:
    shift is twice the part of rho_i beyond rank - i (0, 1, 2, 0 for the
    Lie types A, B, C, D), plus 1 for a spin shift of every entry by 1/2.
    mu is a Partition or a sequence of ints, padded with zeros to rank; a
    non-int entry, or more than rank entries, raises ValueError.
    """
    parts = mu.parts if isinstance(mu, Partition) else tuple(mu)
    if len(parts) > rank:
        raise ValueError(f"weight {mu} has more than {rank} entries")
    if not all(isinstance(v, int) for v in parts):
        raise ValueError(f"weight {mu} has an entry that is not an int")
    top = 2 * (rank - 1) + shift
    out = [2 * v + top - 2 * i for i, v in enumerate(parts)]
    out.extend(range(top - 2 * len(parts), shift - 1, -2))
    return out
