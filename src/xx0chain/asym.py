"""Low-temperature estimates of both persistence correlators, with their
pieces: the log of a boxed plane-partition count (one float sum over the
box's hook multiplicities, exact to round-off for every box), the
Gaussian-ensemble normalization integral, and the integer Barnes G values
behind it.

The estimates keep their undetermined multiplicative constants symbolic:
every asymptotic law is validated downstream as a slope or a ratio, never
as an absolute level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .boxcount import _box_exponents

__all__ = [
    "barnes_g_integer",
    "mehta_integral",
    "phi_n",
    "big_phi",
    "AsymptoticEstimate",
    "ferro_asymptotic",
    "domain_wall_asymptotic",
    "decreasing_regime",
    "log_box_count",
]

_LOG_2PI = math.log(2.0 * math.pi)


@lru_cache(maxsize=None)
def barnes_g_integer(n: int) -> int:
    """G(n+1) = 0! * 1! * ... * (n-1)! as an exact integer, for 1 <= n <= 40."""
    if not 1 <= n <= 40:
        raise ValueError("integer Barnes values are provided for 1 <= n <= 40")
    out = 1
    fact = 1
    for k in range(1, n):
        fact *= k
        out *= fact
    return out


def mehta_integral(N: int) -> float:
    """Gaussian-ensemble normalization: G(N+1) / (2*pi)^(N/2) = exp(phi_N).

    Raises OverflowError from N = 28 on, where the value leaves the float range.
    """
    return math.exp(phi_n(N))


# phi_n and log_box_count are memoized: a table repeats each N and each box for every beta row
@lru_cache(maxsize=256, typed=True)
def phi_n(N: int) -> float:
    """sum_{k<=N} log(Gamma(k)/sqrt(2*pi)); the log of the Mehta value."""
    if N < 1:
        raise ValueError("need N >= 1")
    return sum(math.lgamma(k) for k in range(1, N + 1)) - 0.5 * N * _LOG_2PI


def _phi_pieces(N: int, M: int, beta: float) -> dict[str, float]:
    """Phi(N, M, beta) as the critical term -(N^2/2) log(beta) and the chain-size/Mehta term."""
    if not 0 < beta < math.inf:  # also rejects NaN
        raise ValueError("need beta > 0 and finite")
    return {
        "critical_exponent": -0.5 * N * N * math.log(beta),
        "phi": N * N * math.log(2.0 * math.pi / (M + 1)) + 3.0 * phi_n(N),
    }


def big_phi(N: int, M: int, beta: float) -> float:
    """N^2 log(2*pi/(M+1)) - (N^2/2) log(beta) + 3*phi_N."""
    if N < 1 or M < 1:
        raise ValueError("need N, M >= 1")
    return sum(_phi_pieces(N, M, beta).values())


@lru_cache(maxsize=256, typed=True)
def log_box_count(L: int, N: int, P: int) -> float:
    """log of the plane-partition count in an L x N x P box.

    MacMahon's product of (P + s) / s over the cells of the L x N base,
    s = j + k - 1, summed in logs as sum_s m_s log1p(P / s), with the values
    s and multiplicities m_s of boxcount._box_exponents (which rejects
    negative sides).  No term needs a big integer and none cancels another,
    so the fsum is within round-off of the exact log for every P; an empty
    base or P = 0 gives 0.0.
    """
    return math.fsum(m * math.log1p(P / s) for s, m in _box_exponents(L, N, P)[1].items())


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Log-scale estimate with its named additive pieces."""

    log_value: float
    pieces: dict[str, float]
    params: tuple

    def __post_init__(self):
        total = sum(self.pieces.values())
        if abs(total - self.log_value) > 1e-9 * max(1.0, abs(self.log_value)):
            raise AssertionError("pieces do not sum to the log value")


def _estimate(M: int, N: int, n: int, beta: float, L: int, P: int) -> AsymptoticEstimate:
    """2 log A(L, N, P) + Phi(N, M, beta): a squared boxed-count amplitude,
    the exactly-linear critical term -(N^2/2) log(beta), and the
    chain-size/Mehta term."""
    pieces = {"amplitude": 2.0 * log_box_count(L, N, P), **_phi_pieces(N, M, beta)}
    return AsymptoticEstimate(sum(pieces.values()), pieces, (M, N, n, beta))


def ferro_asymptotic(M: int, N: int, n: int, beta: float) -> AsymptoticEstimate:
    """Low-temperature estimate of the empty-string correlator.

    log T ~ 2 log A_cspp(N, M-n) + Phi(N, M, beta), where the column-strict
    count A_cspp(N, M-n) is the plane-partition count A(N, N, M-n-N+1)
    (boxcount.a_cspp).
    """
    if n < 0 or M - n < N - 1:
        raise ValueError("need n >= 0 and M - n >= N - 1")
    return _estimate(M, N, n, beta, N, M - n - N + 1)


def domain_wall_asymptotic(M: int, N: int, n: int, beta: float) -> AsymptoticEstimate:
    """Low-temperature estimate of the down-spin-insertion correlator.

    log F ~ 2 log A(N-n, N, M-N+1) + Phi(N, M, beta).
    """
    if not 0 <= n <= N or M - N + 1 < 0:
        raise ValueError("need 0 <= n <= N and M >= N - 1")
    return _estimate(M, N, n, beta, N - n, M - N + 1)


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
