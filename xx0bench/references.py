"""Independent reference values for the benchmark's output checks.

Nothing here imports xx0chain.  The correlators are evaluated in log space
from the single-particle propagator on the twisted ring; the box counts and
their generating functions come from integer recurrences on the product
formulas.  The tests in test_references.py tie these references to exact
diagonalization, to an extended-precision Gram determinant and to the
emptiness formation probability.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# -- correlators ---------------------------------------------------------
#
# A momentum of the N-particle sector on a ring of M+1 sites is
# 2*pi*m/(M+1) with m in (j - (N-1)/2 for j = 0..M): the solutions of
# exp(i(M+1)phi) = (-1)^(N-1), listed so that the first N are the
# ground-state momenta (the N largest cosines).  Momenta are carried as the
# integers 2m, and every phase exp(i*k*phi) is reduced modulo 2(M+1) before
# it is exponentiated, so long chains lose no accuracy to large angles.


def _twice_m(M: int, N: int) -> np.ndarray:
    """2m for the M+1 momenta of the N-particle sector, ground state first."""
    return 2 * np.arange(M + 1) - (N - 1)


def _cosines(M: int, twice_m: np.ndarray) -> np.ndarray:
    return np.cos(np.pi * twice_m / (M + 1))


def _site_sums(M: int, n: int, twice_a: np.ndarray, twice_phi: np.ndarray) -> np.ndarray:
    """Entry [a, p] = sum_{k=n..M} exp(i k (theta_a - phi_p)), in closed form."""
    t = 2 * (M + 1)
    r = np.subtract.outer(twice_a, twice_phi) % t
    out = np.full(r.shape, complex(M + 1 - n))
    nz = r != 0
    rz = r[nz]
    z_n = np.exp(2j * np.pi * ((n * rz) % t) / t)
    z_end = np.where(rz % 2 == 0, 1.0, -1.0)  # exp(i (M+1) d) = (-1)^r
    one_minus_z = -2j * np.sin(np.pi * rz / t) * np.exp(1j * np.pi * rz / t)
    out[nz] = (z_n - z_end) / one_minus_z
    return out


def _gram_logdet(C: np.ndarray, cos_phi: np.ndarray, beta: float) -> float:
    """log det(C W C^H) with W = diag(exp(beta * cos_phi)), without forming C W C^H.

    det(C W C^H) = |det R|^2 for the R factor of Y = W^(1/2) C^H.  The rows
    of Y are graded by weight: at large beta they span e^(2 beta), and at
    small beta with few particles on a long ring the orbitals restricted to
    the ground-state modes are nearly collinear.  Householder QR with the
    rows sorted by decreasing weight and with column pivoting is row-wise
    backward stable (Cox & Higham, BIT 38, 1998), so neither case costs
    accuracy.  The weights are scaled by the largest one so nothing
    overflows.
    """
    order = np.argsort(-cos_phi, kind="stable")
    c_max = float(cos_phi[order[0]])
    Y = C[:, order].conj().T * np.exp(0.5 * beta * (cos_phi[order] - c_max))[:, None]
    R = scipy.linalg.qr(Y, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    if not np.all(diag > 0.0):
        raise FloatingPointError("scaled weights underflow: beta too large for double precision")
    return 2.0 * float(np.sum(np.log(diag))) + beta * C.shape[0] * c_max


def log_ferro(M: int, N: int, n: int, beta: float) -> float:
    """log of the empty-string correlator <P_n e^{-beta H} P_n> / <e^{-beta H}> on the ground state."""
    if n == 0 or N == 0:
        return 0.0
    if n > M + 1 - N:
        return -math.inf
    tm = _twice_m(M, N)
    C = _site_sums(M, n, tm[:N], tm)
    cos_phi = _cosines(M, tm)
    log_num = _gram_logdet(C, cos_phi, beta)
    return log_num - beta * float(np.sum(cos_phi[:N])) - 2 * N * math.log(M + 1)


def log_domain_wall(M: int, N: int, n: int, beta: float) -> float:
    """log of the n-site down-spin insertion correlator on the (N-n)-particle ground state."""
    if n == 0:
        return 0.0
    Nn = N - n
    tm_N = _twice_m(M, N)
    tm_g = _twice_m(M, Nn)[:Nn]
    t = 2 * (M + 1)
    rows = [_site_sums(M, n, tm_g, tm_N)] if Nn else []
    sites = np.arange(n)
    rows.append(np.exp(-2j * np.pi * (np.multiply.outer(sites, tm_N) % t) / t))
    C = np.vstack(rows)
    cos_N = _cosines(M, tm_N)
    cos_g = _cosines(M, tm_g)
    log_num = _gram_logdet(C, cos_N, beta)
    return log_num - beta * float(np.sum(cos_g)) - (2 * N - n) * math.log(M + 1)


# -- box counts and their generating functions ----------------------------
#
# Each generating function is a ratio of products of (1 - q^a) that is a
# polynomial of known degree D.  It is evaluated as a power series modulo
# q^(D+1): multiplying by (1 - q^a) is a shift-and-subtract and dividing by
# (1 - q^b) is a stride-b prefix sum, both exact on Python integers.


def _product_series(numer: list[int], denom: list[int], degree: int) -> list[int]:
    """Coefficients 0..degree of prod(1 - q^a for a in numer) / prod(1 - q^b for b in denom)."""
    c = [1] + [0] * degree
    for a in numer:
        for i in range(degree, a - 1, -1):
            c[i] -= c[i - a]
    for b in denom:
        for i in range(b, degree + 1):
            c[i] += c[i - b]
    return c


def box_series(L: int, N: int, P: int) -> list[int]:
    """Volume generating function of plane partitions in an L x N x P box, degree L*N*P."""
    cells = [(j, k) for j in range(1, L + 1) for k in range(1, N + 1)]
    return _product_series([P + j + k - 1 for j, k in cells], [j + k - 1 for j, k in cells], L * N * P)


def cspp_series(N: int, P: int) -> tuple[int, list[int]]:
    """(lowest exponent, coefficients) of the column-strict generating function in an N x N x P box.

    The lowest exponent is the staircase volume N^2 (N-1)/2 and the span is
    N^2 (P+1-N).
    """
    cells = [(j, k) for j in range(1, N + 1) for k in range(1, N + 1)]
    coeffs = _product_series(
        [P + 1 + j - k for j, k in cells], [j + k - 1 for j, k in cells], N * N * (P + 1 - N)
    )
    return N * N * (N - 1) // 2, coeffs


def _exact_ratio(numer: list[int], denom: list[int]) -> int:
    num, den = math.prod(numer), math.prod(denom)
    if num % den:
        raise ArithmeticError("product formula did not give an integer")
    return num // den


def box_count(L: int, N: int, P: int) -> int:
    """MacMahon's count of plane partitions in an L x N x P box."""
    cells = [(j, k) for j in range(1, L + 1) for k in range(1, N + 1)]
    return _exact_ratio([P + j + k - 1 for j, k in cells], [j + k - 1 for j, k in cells])


def cspp_count(N: int, P: int) -> int:
    """Number of column-strict arrays in an N x N x P box."""
    cells = [(j, k) for j in range(1, N + 1) for k in range(1, N + 1)]
    return _exact_ratio([P + 1 + j - k for j, k in cells], [j + k - 1 for j, k in cells])


def series_to_json(lowest: int, coeffs: list[int]) -> dict[str, str]:
    """The {exponent: coefficient} strings the CLI prints, zeros omitted."""
    return {str(lowest + e): str(c) for e, c in enumerate(coeffs) if c}


# -- low-temperature estimates ---------------------------------------------
#
# The asymptotic pieces printed by `asym`, recomputed from their defining
# sums: log counts as sums of logs of the product formulas, the Mehta term
# from log-gamma values.


def log_box_count(L: int, N: int, P: int) -> float:
    return math.fsum(
        math.log(P + j + k - 1) - math.log(j + k - 1) for j in range(1, L + 1) for k in range(1, N + 1)
    )


def log_cspp_count(N: int, P: int) -> float:
    return math.fsum(
        math.log(P + 1 + j - k) - math.log(j + k - 1) for j in range(1, N + 1) for k in range(1, N + 1)
    )


def _size_term(M: int, N: int) -> float:
    mehta = math.fsum(math.lgamma(k) for k in range(1, N + 1)) - 0.5 * N * math.log(2.0 * math.pi)
    return N * N * math.log(2.0 * math.pi / (M + 1)) + 3.0 * mehta


def asym_pieces(kind: str, M: int, N: int, n: int, beta: float) -> dict[str, float]:
    """amplitude, critical_exponent and phi of the low-temperature estimate."""
    if kind == "ferro":
        amplitude = 2.0 * log_cspp_count(N, M - n)
    else:
        amplitude = 2.0 * log_box_count(N - n, N, M - N + 1)
    return {
        "amplitude": amplitude,
        "critical_exponent": -0.5 * N * N * math.log(beta),
        "phi": _size_term(M, N),
    }
