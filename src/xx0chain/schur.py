"""Schur functions, elementary symmetric functions, and restricted
Cauchy-type kernels.

Two tracks share one code path: a numeric track (complex coordinates,
numpy determinants) and an exact track (int/Fraction or LaurentPoly
coordinates, fraction-free determinants).  The ring rule: _quotient makes
every division, exactly on exact coordinates (exact_div on LaurentPoly, a
Fraction or whole int on int/Fraction), so exact inputs give exact values.
The dual Jacobi-Trudi determinant is the Schur evaluation; the test oracles
it is checked against, the bialternant ratio and the tableau sum, live in
tests/oracles.py.  The two brute-force partition sums stay here because
`verify` runs them against binet_cauchy_kernel.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np

from . import qexact
from .combinat import Partition, conjugate, enumerate_partitions_in_box
from .errors import DegenerateInputError, EnumerationBudgetError
from .qexact import LaurentPoly, vandermonde

__all__ = [
    "elementary_symmetric",
    "vandermonde",
    "schur_jacobi_trudi",
    "binet_cauchy_kernel",
    "binet_cauchy_bruteforce",
    "padded_schur_sum_bruteforce",
]

_NUMERIC = "numeric"
_RATIONAL = "rational"
_LAURENT = "laurent"


def _classify(coords) -> str:
    has_laurent = any(isinstance(x, LaurentPoly) for x in coords)
    if has_laurent:
        if not all(isinstance(x, (LaurentPoly, int)) for x in coords):
            raise TypeError("exact and numeric coordinates cannot be mixed")
        return _LAURENT
    if all(isinstance(x, (int, Fraction)) for x in coords):
        return _RATIONAL
    return _NUMERIC


def _e_table(coords, rmax: int):
    """e_0..e_rmax by the product recurrence on (1 + t*x_i)."""
    e = [1] + [0] * rmax
    for x in coords:
        for r in range(min(rmax, len(e) - 1), 0, -1):
            e[r] = e[r] + x * e[r - 1]
    return e


def elementary_symmetric(r: int, coords):
    """e_r of the coordinates; e_0 = 1 and e_r = 0 for r > len(coords)."""
    if r < 0:
        raise ValueError("order must be non-negative")
    coords = tuple(coords)
    if r > len(coords):
        return 0
    return _e_table(coords, r)[r]


def _quotient(num, den, track: str):
    """num / den in the track's ring; exact tracks raise on an inexact quotient."""
    if track == _LAURENT:
        return (num if isinstance(num, LaurentPoly) else LaurentPoly.const(num)).exact_div(den)
    if track == _RATIONAL:
        out = Fraction(num, den)
        return int(out) if out.denominator == 1 else out
    return num / den


def _det_auto(rows, track: str):
    if not rows:
        return 1
    if track == _LAURENT:
        return qexact.exact_det(rows)
    if track == _RATIONAL:
        return _quotient(qexact.exact_det_rational(rows), 1, track)
    return complex(np.linalg.det(np.asarray(rows, dtype=complex)))


def schur_jacobi_trudi(lam, coords):
    """Schur value via the dual Jacobi-Trudi determinant.

    det(e_{conj(lam)_i - i + j}) of size lam_1; valid for arbitrary,
    including repeated, coordinates.
    """
    lam = Partition(lam)
    coords = tuple(coords)
    n = len(coords)
    if len(lam) > n:
        return 0
    if not lam:
        return 1
    track = _classify(coords)
    width = lam[0]
    lbar = conjugate(lam)
    etab = _e_table(coords, n)
    rows = []
    for i in range(1, width + 1):
        row = []
        for j in range(1, width + 1):
            idx = lbar[i - 1] - i + j
            row.append(etab[idx] if 0 <= idx <= n else 0)
        rows.append(row)
    return _det_auto(rows, track)


def _check_distinct(coords, track: str = _NUMERIC):
    exact = track != _NUMERIC
    if not exact:
        coords = [complex(x) for x in coords]
        tol = 1e-10 * (max(map(abs, coords), default=0.0) or 1.0)
    for a, b in combinations(coords, 2):
        if a == b if exact else abs(a - b) <= tol:
            raise DegenerateInputError(
                "coincident coordinates; use schur_jacobi_trudi or a brute-force sum instead"
            )


def kernel_entry(z, exponent: int):
    """(1 - z**m)/(1 - z) with the analytic value m at z = 1.

    Numeric track: the closed form for |z - 1| > 0.1, nearer 1 expm1(m t) /
    expm1(t) with t = log z, at O(1) cost.  Against 40-digit values the closed
    form is off by about 1/|z - 1| ulps, cancelling in 1 - z, and the ratio by
    about m |t| ulps; the switch is where the closed form is back within a few
    ulps for small m.  Exact track: the closed form, divided exactly.
    """
    track = _classify((z,))
    if track != _NUMERIC:
        return exponent if z == 1 else _quotient(1 - z**exponent, 1 - z, track)
    zc = complex(z)
    if abs(zc - 1.0) > 0.1:
        return (1.0 - zc**exponent) / (1.0 - zc)
    t = cmath.log(zc)
    return complex(np.expm1(exponent * t) / np.expm1(t)) if t else complex(exponent)


def _check_shape(L: int, n: int, y, x):
    x = tuple(x)
    y = tuple(y)
    if len(x) > len(y) or (n and len(x) != len(y)):
        raise ValueError("coordinate tuples must have equal length, or len(x) < len(y) with n = 0")
    if not 0 <= n <= L:
        raise ValueError("need 0 <= n <= L")
    return x, y


def binet_cauchy_kernel(L: int, n: int, y, x):
    """Restricted two-sided Schur sum in determinant form.

    Equals sum over partitions with N parts in [n, L] of S(y) * S(x); the
    matrix entries are geometric kernels in x_k * y_j with exponent
    N + L - n, and the prefactor is prod (x_l y_l)^n over the Vandermondes.
    With n = 0, x may be shorter than y = (y_0..y_{N-1}): rows k >= len(x)
    are the monomials y_j^(N-1-k), and the value is prod x_l^(N - len x)
    times the L x len(x) box sum of binet_cauchy_bruteforce, its oracle in
    both shapes.
    """
    x, y = _check_shape(L, n, y, x)
    N = len(y)
    if N == 0:
        return 1
    track = _classify(x + y)
    _check_distinct(x, track)
    _check_distinct(y, track)
    m = N + L - n
    rows = [[kernel_entry(x[k] * y[j], m) for j in range(N)] for k in range(len(x))]
    rows += [[y[j] ** (N - 1 - k) for j in range(N)] for k in range(len(x), N)]
    det = _det_auto(rows, track)
    pref = prod((xl * yl) ** n for xl, yl in zip(x, y))
    return _quotient(pref * det, vandermonde(y) * vandermonde(x), track)


def binet_cauchy_bruteforce(L: int, n: int, y, x, max_terms: int = 10**6):
    """Direct sum of S(y)*S(x): binet_cauchy_kernel's oracle in both shapes.

    The sum runs over partitions with all len(x) parts in [n, L]; with n = 0
    and len(x) < len(y), the kernel is this sum times prod x_l^(len y - len x).
    """
    x, y = _check_shape(L, n, y, x)
    n_terms = comb(L - n + len(x), len(x))
    if n_terms > max_terms:
        raise EnumerationBudgetError(f"partition sum has {n_terms} terms, budget is {max_terms}")
    total = 0
    for mu in enumerate_partitions_in_box(L - n, len(x)):
        lam = tuple(v + n for v in mu + (0,) * (len(x) - len(mu)))
        total = total + schur_jacobi_trudi(lam, y) * schur_jacobi_trudi(lam, x)
    return total


def padded_schur_sum_bruteforce(K: int, n: int, v, u, max_terms: int = 10**6):
    """Sum of S(v^-2) * S(u^2) over partitions in a K x (N-n) box.

    v has N entries and u has N-n: binet_cauchy_bruteforce's two-block
    shape, the oracle of the kernel behind the domain-wall insertion.
    """
    v = tuple(v)
    u = tuple(u)
    N = len(v)
    if not 0 <= n <= N or len(u) != N - n:
        raise ValueError("need len(v) = N, len(u) = N - n with 0 <= n <= N")
    if K < 0:
        raise ValueError("box width K must be non-negative")
    return binet_cauchy_bruteforce(K, 0, tuple(x ** (-2) for x in v), tuple(x * x for x in u), max_terms)
