"""Closed-form counts and generating functions for boxed plane partitions,
and the two-block determinant identity that ties them to the chain's
form-factors under the geometric-point parametrization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt, prod

from .errors import ExactDivisionError
from .qexact import IndexTuples, LaurentPoly, _q_ratio, exact_det, exact_half, q_binomial_determinant, vandermonde

__all__ = [
    "zq",
    "macmahon",
    "zq_cspp",
    "a_cspp",
    "kuperberg_matrix",
    "staircase_qbinom_det",
    "BoxDetIdentityReport",
    "box_det_identity",
    "q_power_points",
]


def q_power_points(N: int, start: int = 1) -> tuple[LaurentPoly, ...]:
    """The points (q^start, q^(start+1), ..., q^(start+N-1)) as monomials."""
    return tuple(LaurentPoly.monomial(1, start + i) for i in range(N))


def _box_exponents(L: int, N: int, P: int) -> tuple[dict[int, int], dict[int, int]]:
    """Exponents a, b of prod (1 - q^a) / prod (1 - q^b) for an L x N x P box,
    as {exponent: multiplicity} maps: b = j + k - 1 over the cells (j, k) of
    the L x N base, which min(s, L, N, L + N - s) cells share, and a = P + b."""
    if L < 0 or N < 0 or P < 0:
        raise ValueError("box sides must be non-negative")
    den = {s: min(s, L, N, L + N - s) for s in range(1, L + N)} if L and N else {}
    return {P + s: m for s, m in den.items()}, den


def _cspp_height(N: int, P: int) -> int:
    """P - N + 1: a column-strict array in an N x N x P box, less the staircase
    N-1, N-2, ..., 0 down every column, is a plane partition in an N x N x (P-N+1) box."""
    if N < 0 or P < N - 1:
        raise ValueError(f"need N >= 0 and P >= N-1 for column-strict arrays, got N={N}, P={P}")
    return P - N + 1


def _int_ratio(num, den) -> int:
    """prod(num) / prod(den), which must be an integer; num and den are lists
    of factors or {factor: multiplicity} maps, which Counter reads alike.

    Built from prime exponents, so no big product is ever divided: e[v] starts
    as the multiplicity of v in num less that in den, and from the top down
    each composite v = p * (v // p) hands its e[v] to both factors, p being
    a prime factor of v from a sieve.  What is left on the primes is the
    factorization of the ratio.
    """
    mult = Counter(num)
    mult.subtract(Counter(den))
    top = max(mult, default=1)
    pf = list(range(top + 1))  # pf[v] is a prime factor of v, and v itself iff v is prime
    for p in range(2, isqrt(top) + 1):
        if pf[p] == p:
            pf[p * p::p] = [p] * len(range(p * p, top + 1, p))
    e = [0] * (top + 1)
    for v, m in mult.items():
        e[v] = m
    for v in range(top, 1, -1):
        p = pf[v]
        if p != v and e[v]:
            e[p] += e[v]
            e[v // p] += e[v]
    primes = [p for p in range(2, top + 1) if pf[p] == p]
    if any(e[p] < 0 for p in primes):
        raise ExactDivisionError("box count did not reduce to an integer")
    return prod(p ** e[p] for p in primes)


def zq(L: int, N: int, P: int) -> LaurentPoly:
    """Volume generating function of plane partitions in an L x N x P box.

    prod_{j<=L, k<=N} (1 - q^(P+j+k-1)) / (1 - q^(j+k-1)); symmetric in all
    three box sides.  Sorted to L <= N <= P (the work grows as L^2 N^2 P), it is
    expanded by _q_ratio one row j of the base at a time, each prefix zq(j, N, P).
    """
    _box_exponents(L, N, P)  # rejects a negative side
    L, N, P = sorted((L, N, P))
    return _q_ratio(([P + j + k - 1 for k in range(1, N + 1)], range(j, j + N)) for j in range(1, L + 1))


def macmahon(L: int, N: int, P: int) -> int:
    """Number of plane partitions in an L x N x P box, exactly."""
    return _int_ratio(*_box_exponents(L, N, P))


def zq_cspp(N: int, P: int) -> LaurentPoly:
    """Volume generating function of column-strict arrays in an N x N x P box.

    q^(N^2(N-1)/2) * zq(N, N, P-N+1): removing the staircase array, whose
    volume is the prefactor, leaves a plane partition of the N x N x (P-N+1) box.
    """
    return zq(N, N, _cspp_height(N, P)).shift(exact_half(N * N * (N - 1)))


def a_cspp(N: int, P: int) -> int:
    """Number of column-strict arrays in an N x N x P box: macmahon(N, N, P-N+1) (see zq_cspp)."""
    return macmahon(N, N, _cspp_height(N, P))


def kuperberg_matrix(L: int, N: int, P: int) -> list[list[LaurentPoly]]:
    """The two-block N x N matrix whose determinant counts boxed plane partitions.

    Rows 1..L hold the geometric kernels (1 - q^((P+1)(j+k-1)))/(1 - q^(j+k-1)),
    built directly as geometric sums; rows L+1..N hold the monomials q^(j(N-k)).
    """
    if not 0 <= L <= N:
        raise ValueError(f"need 0 <= L <= N, got L={L}, N={N}")
    if P < 0:
        raise ValueError("P must be non-negative")
    rows = []
    for k in range(1, L + 1):
        row = []
        for j in range(1, N + 1):
            step = j + k - 1
            row.append(LaurentPoly({t * step: 1 for t in range(P + 1)}))
        rows.append(row)
    for k in range(L + 1, N + 1):
        rows.append([LaurentPoly.monomial(1, j * (N - k)) for j in range(1, N + 1)])
    return rows


def staircase_qbinom_det(L: int, N: int, P: int) -> LaurentPoly:
    """det([L+N+j, L+i]_q) over i, j < P, on the shifted staircase index tuples
    (L+N, ..., L+N+P-1) and (L, ..., L+P-1); 1 when P == 0.  Negative sides raise, as in zq."""
    if L < 0 or N < 0 or P < 0:
        raise ValueError("box sides must be non-negative")
    return q_binomial_determinant(IndexTuples(tuple(range(L + N, L + N + P)), tuple(range(L, L + P))))


@dataclass(frozen=True)
class BoxDetIdentityReport:
    """Coefficient-wise comparison of the three evaluations of one determinant."""

    L: int
    N: int
    P: int
    det_value: LaurentPoly
    qbd_value: LaurentPoly
    zq_value: LaurentPoly
    all_equal: bool
    in_proved_regime: bool


def box_det_identity(L: int, N: int, P: int) -> BoxDetIdentityReport:
    """Evaluate the two-block determinant three independent ways.

    (a) the normalized exact determinant of kuperberg_matrix, (b) the
    normalized q-binomial determinant on the shifted staircase index tuples,
    (c) the box generating function zq(L, N, P-N+1).  The claim that all
    three coincide is proved only in the regime P/2 < N < P; outside it the
    report still records the outcome without interpreting it.  (a) keeps
    exact_det's Hadamard width: sizing it by its value at q = 1, as (b) is
    sized, would assume the positivity that this comparison tests.
    """
    if not 1 <= L <= N:
        raise ValueError(f"need 1 <= L <= N, got L={L}, N={N}")
    cal_p = P - N + 1
    if cal_p < 0:
        raise ValueError(f"need P >= N-1, got N={N}, P={P}")

    det = exact_det(kuperberg_matrix(L, N, P))
    v_qn = vandermonde(q_power_points(N, start=1))
    v_ql = vandermonde(q_power_points(L, start=0))
    norm = v_qn * v_ql
    det_value = LaurentPoly.monomial(1, -exact_half(L * (L - 1) * (N - L))) * det.exact_div(norm)

    qbd = staircase_qbinom_det(L, N, cal_p)
    qbd_value = LaurentPoly.monomial(1, -exact_half(N * (cal_p - 1) * cal_p)) * qbd

    zq_value = zq(L, N, cal_p)
    all_equal = det_value == qbd_value and qbd_value == zq_value
    in_regime = (P < 2 * N) and (N < P)
    return BoxDetIdentityReport(L, N, P, det_value, qbd_value, zq_value, all_equal, in_regime)
