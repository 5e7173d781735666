"""Brute-force oracles the tests check the library's closed forms against.

Nothing in xx0chain, its commands or its benchmark calls these; each one
enumerates, sums or integrates at desk scale what a formula in the library
computes another way:

- plane partitions and column-strict arrays in a box, against boxcount's
  MacMahon products, and vertex-disjoint lattice-path families, against the
  binomial determinants of qexact;
- Schur functions as alternant ratios and tableau sums, against the dual
  Jacobi-Trudi determinant of schur;
- the q-Vandermonde convolution and e_r at geometric points, against
  qexact.q_binomial;
- the sector rows and their translation orbits from sorted and rotated tuples,
  and the dense domain-wall insertion, against edoracle's whole-array ones;
- the Gaussian-ensemble integral, Phi(N, M, beta) and the decreasing-regime
  predicate of the low-temperature estimates in asym;
- exact walk counts, against xx0core.walker_amplitude_multi, and a 40-digit
  Gram determinant of plain site sums, against the correlators.

Enumerations stream their results and abort with EnumerationBudgetError
instead of exhausting memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Iterator

import numpy as np

from xx0chain.asym import _phi_pieces, phi_n
from xx0chain.combinat import Partition
from xx0chain.edoracle import _insertion, sector_basis
from xx0chain.errors import EnumerationBudgetError
from xx0chain.qexact import _ZERO, IndexTuples, LaurentPoly, exact_half, q_binomial
from xx0chain.schur import _check_distinct, _classify, _det_auto, _quotient


# -- partitions, plane partitions and lattice paths ----------------------


DEFAULT_ENUM_BUDGET = 10**7


class StrictPartition(tuple):
    """Strictly decreasing tuple of non-negative ints."""

    def __new__(cls, parts=()):
        p = tuple(int(x) for x in parts)
        if any(x < 0 for x in p):
            raise ValueError("parts must be non-negative")
        if any(p[i] <= p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"parts must be strictly decreasing, got {p}")
        return super().__new__(cls, p)


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


# -- Schur functions -----------------------------------------------------


def schur_bialternant(lam, coords):
    """Schur value as the ratio of alternants (requires distinct coordinates)."""
    lam = Partition(lam)
    coords = tuple(coords)
    n = len(coords)
    if len(lam) > n:
        raise ValueError("partition has more parts than coordinates")
    track = _classify(coords)
    _check_distinct(coords, track)
    padded = tuple(lam) + (0,) * (n - len(lam))
    num_rows = [[coords[j] ** (padded[k] + n - 1 - k) for k in range(n)] for j in range(n)]
    den_rows = [[coords[j] ** (n - 1 - k) for k in range(n)] for j in range(n)]
    return _quotient(_det_auto(num_rows, track), _det_auto(den_rows, track), track)


def schur_ssyt_oracle(lam, coords, max_weight: int = 12, max_vars: int = 6):
    """Schur value as a sum over semistandard tableaux (test oracle only).

    Rows weakly increase, columns strictly increase, entries in 1..len(coords).
    """
    lam = Partition(lam)
    coords = tuple(coords)
    n = len(coords)
    if lam.weight > max_weight or n > max_vars:
        raise EnumerationBudgetError(
            f"tableau enumeration budget is |shape| <= {max_weight}, vars <= {max_vars}"
        )
    if len(lam) > n:
        return 0
    if not lam:
        return 1

    total = 0

    def fill_row(i: int, above: tuple[int, ...], acc):
        nonlocal total
        length = lam[i]

        def rec(j: int, prev: int, row: list[int], weight):
            nonlocal total
            if j == length:
                if i + 1 == len(lam):
                    total += weight
                else:
                    fill_row(i + 1, tuple(row), weight)
                return
            lo = prev
            if i > 0:
                lo = max(lo, above[j] + 1)
            for v in range(lo, n + 1):
                row.append(v)
                rec(j + 1, v, row, weight * coords[v - 1])
                row.pop()

        rec(0, 1, [], acc)

    fill_row(0, (), 1)
    return total


# -- q-series ------------------------------------------------------------


def q_vandermonde(N: int, Np: int, r: int) -> LaurentPoly:
    """Convolution sum_j q^((N-j)(r-j)) [N,j][N',r-j]; equals [N+N', r]."""
    if N < 0 or Np < 0 or r < 0:
        raise ValueError("q-Vandermonde requires non-negative arguments")
    out = _ZERO
    for j in range(0, min(r, N) + 1):
        out = out + LaurentPoly.monomial(1, (N - j) * (r - j)) * q_binomial(N, j) * q_binomial(Np, r - j)
    return out


def es_special_R(r: int, N: int) -> LaurentPoly:
    """R_r(N) = q^(r(r-1)/2) [N, r]: e_r at the points (1, q, ..., q^(N-1))."""
    if r < 0:
        raise ValueError("order must be non-negative")
    return LaurentPoly.monomial(1, exact_half(r * (r - 1))) * q_binomial(N, r)


def es_special_L(r: int, N: int) -> LaurentPoly:
    """L_r(N) = q^(r(r+1)/2) [N, r]: e_r at the points (q, q^2, ..., q^N)."""
    if r < 0:
        raise ValueError("order must be non-negative")
    return LaurentPoly.monomial(1, exact_half(r * (r + 1))) * q_binomial(N, r)


# -- exact diagonalization -----------------------------------------------


def sector_rows(M: int, N: int) -> list[tuple[int, ...]]:
    """The N-down-spin rows of the (M+1)-site ring: each a decreasing tuple of sites, in colex
    order, that is by ascending occupation bitmask."""
    rows = (tuple(sorted(c, reverse=True)) for c in combinations(range(M + 1), N))
    return sorted(rows, key=lambda row: sum(1 << s for s in row))


def translation_orbits(M: int, N: int) -> tuple[list[list[int]], list[int]]:
    """(table, periods) as edoracle._translation_orbits gives them, by rotating tuples: an orbit
    for each row that no earlier row reaches, table[r][l] the index of that row moved by l sites.
    Rows come in colex order, or in the colex order of their holes where holes are fewer (L - N < N)."""
    rows, L = sector_rows(M, N), M + 1
    if L - N < N:
        rows = [tuple(s for s in range(M, -1, -1) if s not in holes) for holes in sector_rows(M, L - N)]
    index, seen, table, periods = {row: i for i, row in enumerate(sector_rows(M, N))}, set(), [], []
    for row in rows:
        if row not in seen:
            orbit = [tuple(sorted(((s + l) % L for s in row), reverse=True)) for l in range(L)]
            seen.update(orbit)
            table.append([index[moved] for moved in orbit])
            periods.append(len(set(orbit)))
    return table, periods


def domain_wall_insertion(M: int, N: int, n: int) -> np.ndarray:
    """Map from the (N-n)-sector into the N-sector inserting down spins at 0..n-1.

    Configurations already occupied on 0..n-1 are annihilated.  A dense view for tests.
    """
    keep, rows = _insertion(M, N, n)
    out = np.zeros((sector_basis(M, N).dim, sector_basis(M, N - n).dim))
    out[rows, keep] = 1.0
    return out


# -- low-temperature asymptotics -----------------------------------------


def mehta_integral(N: int) -> float:
    """Gaussian-ensemble normalization: G(N+1) / (2*pi)^(N/2) = exp(phi_N).

    Raises OverflowError from N = 28 on, where the value leaves the float range.
    """
    return math.exp(phi_n(N))


def big_phi(N: int, M: int, beta: float) -> float:
    """N^2 log(2*pi/(M+1)) - (N^2/2) log(beta) + 3*phi_N."""
    if N < 1 or M < 1:
        raise ValueError("need N, M >= 1")
    return sum(_phi_pieces(N, M, beta).values())


def decreasing_regime(T: float, M: int, N: int, n: int, amplitude_constant: float) -> bool:
    """Whether the estimated empty-string correlator decreases as M, N grow.

    True when T < N*M^2 / (c^2 (M-n)^4); the constant c is not fixed by the
    theory and must be supplied by the caller.
    """
    if amplitude_constant <= 0:
        raise ValueError("amplitude constant must be positive")
    if not 0 <= n < M:
        raise ValueError("need 0 <= n < M")
    return T < N * M * M / (amplitude_constant**2 * (M - n) ** 4)


# -- walkers and correlators ---------------------------------------------


def _walk_count_amplitude(mu, nu, beta, M):
    """sum_K (beta/2)^K / K! W_K(nu -> mu), W_K the exact count of K-step walks.

    -2H is the 0/1 hop adjacency of the spin sector, so this is <mu|exp(-beta H)|nu>.
    A walk moves one of the non-colliding walkers to an empty neighbouring site of
    the ring; the frontier maps each sorted site tuple to its walk count.  The sum
    stops once the tail bound e (N beta)^K / K! falls below 1e-17 of it.
    """
    L = M + 1
    target = tuple(sorted(mu))
    frontier = {tuple(sorted(nu)): 1}
    coeff, terms, K = 1.0, [], 0
    while True:
        terms.append(coeff * frontier.get(target, 0))
        total = math.fsum(terms)
        if total > 0 and math.e * (len(mu) * beta) ** K / math.factorial(K) < 1e-17 * total:
            return total
        step = {}
        for sites, count in frontier.items():
            for i, s in enumerate(sites):
                for t in ((s + 1) % L, (s - 1) % L):
                    if t not in sites:
                        key = sites[:i] + (t,) + sites[i + 1:]
                        if abs(t - s) > 1:  # the hop crossed the seam between sites M and 0
                            key = tuple(sorted(key))
                        step[key] = step.get(key, 0) + count
        frontier = step
        K += 1
        coeff *= beta / 2 / K


def _mp_gram_log(kind, M, N, n, beta, dps=40):
    """Log of the correlator as a plain Gram determinant of complex site sums, in dps digits.

    Each site sum sum_{k=lo..M} z^k is the closed form (z^lo - z^(M+1)) / (1 - z),
    the rows carry all their phases, the Gram matrix over the whole N-particle
    momentum grid is formed entry by entry and mpmath takes its determinant;
    nothing is shared with the library.
    """
    import mpmath

    with mpmath.workdps(dps):
        Ng, lo = (N, n) if kind == "ferro" else (N - n, 0)
        unit = mpmath.pi / (M + 1)
        grid = [2 * j - (N - 1) for j in range(M + 1)]  # the momenta pi 2m/(M+1), as 2m
        ground = [2 * a - (Ng - 1) for a in range(Ng)]  # the Ng-particle ground state

        def site_sum(d):
            if d == 0:
                return mpmath.mpf(M + 1 - lo)
            z_lo, z_end = mpmath.expj(lo * d * unit), mpmath.expj((M + 1) * d * unit)
            return (z_lo - z_end) / (1 - mpmath.expj(d * unit))

        rows = [[site_sum(t - p) for p in grid] for t in ground]
        rows += [[mpmath.expj(-r * p * unit) for p in grid] for r in reversed(range(N - Ng))]  # domain wall only
        weights = [mpmath.exp(beta * mpmath.cos(p * unit)) for p in grid]
        conj_rows = [[mpmath.conj(y) for y in row] for row in rows]
        G = mpmath.matrix(N, N)
        for a in range(N):
            weighted = [w * x for w, x in zip(weights, rows[a])]
            for b in range(N):
                G[a, b] = mpmath.fdot(weighted, conj_rows[b])
        e_gs = -mpmath.fsum(mpmath.cos(t * unit) for t in ground)
        return float(mpmath.log(mpmath.re(mpmath.det(G))) + beta * e_gs - (N + Ng) * mpmath.log(M + 1))
