"""Partitions, plane partitions, and lattice-path enumeration.

Everything here is a brute-force oracle: closed formulas elsewhere in the
package are checked against these enumerators at desk scale.  Enumerations
stream their results and abort with EnumerationBudgetError instead of
exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, prod
from typing import Iterator

from .errors import EnumerationBudgetError
from .qexact import IndexTuples

__all__ = [
    "Partition",
    "StrictPartition",
    "BoxDims",
    "PlanePartition",
    "conjugate",
    "strict_from",
    "enumerate_partitions_in_box",
    "enumerate_plane_partitions",
    "enumerate_column_strict_pp",
    "staircase_matrix",
    "count_lattice_path_families",
]

DEFAULT_ENUM_BUDGET = 10**7


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


class StrictPartition(tuple):
    """Strictly decreasing tuple of non-negative ints."""

    def __new__(cls, parts=()):
        p = tuple(int(x) for x in parts)
        if any(x < 0 for x in p):
            raise ValueError("parts must be non-negative")
        if any(p[i] <= p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"parts must be strictly decreasing, got {p}")
        return super().__new__(cls, p)


def conjugate(p) -> Partition:
    """Transpose the Young diagram: part k of the result counts rows >= k."""
    p = Partition(p)
    if not p:
        return p
    return Partition(tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1)))


def strict_from(p, N: int) -> StrictPartition:
    """Shift to strictly decreasing coordinates: part j becomes p_j + N - j.

    p is zero-padded to length N; its length must not exceed N.
    """
    p = Partition(p)
    if len(p) > N:
        raise ValueError(f"partition length {len(p)} exceeds N={N}")
    padded = tuple(p) + (0,) * (N - len(p))
    return StrictPartition(tuple(padded[j] + N - 1 - j for j in range(N)))


@dataclass(frozen=True)
class BoxDims:
    """Side lengths of an L x N x P box."""

    L: int
    N: int
    P: int

    def __post_init__(self):
        if self.L < 0 or self.N < 0 or self.P < 0:
            raise ValueError("box sides must be non-negative")


class PlanePartition:
    """Dense rectangular array, weakly decreasing along rows and columns."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in r) for r in entries)
        for r in rows:
            if len(r) != len(rows[0]):
                raise ValueError("rows must have equal length")
            if any(x < 0 for x in r):
                raise ValueError("entries must be non-negative")
            if any(r[j] < r[j + 1] for j in range(len(r) - 1)):
                raise ValueError("rows must be weakly decreasing")
        for i in range(len(rows) - 1):
            if any(rows[i][j] < rows[i + 1][j] for j in range(len(rows[i]))):
                raise ValueError("columns must be weakly decreasing")
        self.entries = rows

    @property
    def volume(self) -> int:
        return sum(sum(r) for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, PlanePartition) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PlanePartition({list(map(list, self.entries))})"


def enumerate_partitions_in_box(max_part: int, max_len: int) -> Iterator[Partition]:
    """All partitions with largest part <= max_part and at most max_len parts.

    Yields each partition exactly once, in lexicographically descending
    order on the part tuples; the count is C(max_part + max_len, max_len).
    """
    if max_part < 0 or max_len < 0:
        raise ValueError("box sides must be non-negative")
    return map(Partition, combinations_with_replacement(range(max_part, -1, -1), max_len))


def _rows_dominated(bound: tuple[int, ...], strict: bool) -> Iterator[tuple[int, ...]]:
    # weakly decreasing rows r with r[j] <= bound[j] (strict: r[j] < bound[j])
    n = len(bound)

    def rec(j: int, cap: int):
        if j == n:
            yield ()
            return
        hi = min(cap, bound[j] - 1 if strict else bound[j])
        for v in range(hi, -1, -1):
            for rest in rec(j + 1, v):
                yield (v,) + rest

    yield from rec(0, bound[0] if n else 0)


def _enumerate_stacks(box: BoxDims, strict: bool, max_items: int) -> Iterator[PlanePartition]:
    L, N, P = box.L, box.N, box.P
    count = 0

    def rec(rows_left: int, bound: tuple[int, ...]):
        if rows_left == 0:
            yield ()
            return
        for row in _rows_dominated(bound, strict and rows_left < L):
            for rest in rec(rows_left - 1, row):
                yield (row,) + rest

    # the first row is bounded by P entrywise, never strictly
    for entries in rec(L, (P,) * N):
        count += 1
        if count > max_items:
            raise EnumerationBudgetError(
                f"plane-partition enumeration for box {box} exceeds budget {max_items}"
            )
        yield PlanePartition(entries)


def enumerate_plane_partitions(box: BoxDims, max_items: int = DEFAULT_ENUM_BUDGET) -> Iterator[PlanePartition]:
    """All plane partitions with <= L rows, <= N columns, entries <= P."""
    return _enumerate_stacks(box, strict=False, max_items=max_items)


def enumerate_column_strict_pp(box: BoxDims, max_items: int = DEFAULT_ENUM_BUDGET) -> Iterator[PlanePartition]:
    """Column-strict arrays in the box: every vertically adjacent pair decreases.

    Strictness applies across all L rows of the dense array (a zero below a
    zero is not allowed), which is the convention under which the counts in
    an N x N x P box equal the plain plane-partition counts in N x N x (P-N+1).
    """
    return _enumerate_stacks(box, strict=True, max_items=max_items)


def staircase_matrix(N: int) -> tuple[tuple[int, ...], ...]:
    """N x N matrix with constant rows N-1, N-2, ..., 0 (minimal column-strict array)."""
    return tuple(tuple(N - 1 - i for _ in range(N)) for i in range(N))


def _single_paths(a: int, b: int) -> list[frozenset[tuple[int, int]]]:
    # vertex sets of monotone lattice paths from (0, a) to (b, b),
    # unit steps east (+1, 0) and south (0, -1); empty if b > a
    out: list[frozenset[tuple[int, int]]] = []
    if b > a:
        return out

    def rec(x: int, y: int, acc: list[tuple[int, int]]):
        acc.append((x, y))
        if x == b and y == b:
            out.append(frozenset(acc))
        else:
            if x < b:
                rec(x + 1, y, acc)
            if y > b:
                rec(x, y - 1, acc)
        acc.pop()

    rec(0, a, [])
    return out


def count_lattice_path_families(a, b, max_tuples: int = DEFAULT_ENUM_BUDGET) -> int:
    """Count tuples of pairwise vertex-disjoint monotone lattice paths.

    Path i runs from (0, a_i) to (b_i, b_i), with (a, b) checked as
    qexact.IndexTuples.  Exhaustive enumeration with early pruning; this is
    deliberately independent of any determinant evaluation.
    """
    ends = IndexTuples(a, b)
    if not ends.size:
        return 1
    if prod(max(comb(ai, bi), 1) for ai, bi in zip(ends.a, ends.b)) > max_tuples:
        raise EnumerationBudgetError("path-family enumeration exceeds budget")
    families = [_single_paths(ai, bi) for ai, bi in zip(ends.a, ends.b)]

    def rec(i: int, used: frozenset) -> int:
        if i == len(families):
            return 1
        n = 0
        for verts in families[i]:
            if used.isdisjoint(verts):
                n += rec(i + 1, used | verts)
        return n

    return rec(0, frozenset())
