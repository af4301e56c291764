"""The reference order of the partitions in a box, which
partitions.walk_box must keep: the tests enumerate boxes through it."""

from skewhowe.partitions import Partition


def enumerate_in_box(n: int, k: int):
    """All partitions contained in the n x k box, binomial(n+k, n) of them.

    Each partition comes before its extensions by one more row, and those
    come with the longest new row first; the walk keeps its own stack, so
    any number of rows fits.
    """
    stack = [()]
    while stack:
        parts = stack.pop()
        yield Partition(parts)
        if len(parts) < n:
            stack.extend(parts + (m,) for m in
                         range(1, (parts[-1] if parts else k) + 1))
