"""Integer partitions: the Partition type, conjugation, and the partitions
in a box.

schur runs on these three: the dual Jacobi-Trudi determinant reads a
partition's conjugate, and the brute-force Cauchy-Binet sums that verify runs
enumerate the partitions in a box.  The test-only enumerators of plane
partitions, column-strict arrays and lattice-path families live in
tests/oracles.py.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

__all__ = [
    "Partition",
    "conjugate",
    "enumerate_partitions_in_box",
]


class Partition(tuple):
    """Weakly decreasing tuple of non-negative ints, trailing zeros stripped."""

    def __new__(cls, parts=()):
        p = tuple(int(x) for x in parts)
        if any(x < 0 for x in p):
            raise ValueError("parts must be non-negative")
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {p}")
        while p and p[-1] == 0:
            p = p[:-1]
        return super().__new__(cls, p)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)


def conjugate(p) -> Partition:
    """Transpose the Young diagram: part k of the result counts rows >= k."""
    p = Partition(p)
    if not p:
        return p
    return Partition(tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1)))


def enumerate_partitions_in_box(max_part: int, max_len: int) -> Iterator[Partition]:
    """All partitions with largest part <= max_part and at most max_len parts.

    Yields each partition exactly once, in lexicographically descending
    order on the part tuples; the count is C(max_part + max_len, max_len).
    """
    if max_part < 0 or max_len < 0:
        raise ValueError("box sides must be non-negative")
    return map(Partition, combinations_with_replacement(range(max_part, -1, -1), max_len))
