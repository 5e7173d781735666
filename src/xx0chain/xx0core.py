"""Magnon-sector machinery of the XX0 ring and its thermal correlators.

Quantum numbers, roots, energies and norms; scalar products and
form-factors in determinant form; single- and multi-walker transition
amplitudes; and the two persistence correlators, each as a determinant and
as that determinant's spectral expansion.

Momentum grids: the propagator entries are discrete heat kernels on the
ring, and the correct single-particle grid depends on the parity of the
occupied sector - the grid solves exp(i(M+1)phi) = (-1)^(N-1), which is
exactly the set of admissible root values for N particles.  A fixed grid
independent of N reproduces neither exact diagonalization nor the n = 0
normalization on every chain length, so every grid here carries the
sector parity.

Both correlators are read off one N x (M+1) site-sum matrix C.  The
determinant path is the Gram determinant det(C W C^H), W = diag(exp(beta
cos phi)) (Colomo, Izergin, Korepin & Tognetti, Theor. Math. Phys. 94,
1993); the spectral path is its Cauchy-Binet expansion, the sum of
exp(-beta E_S) |det C[:, S]|^2 over the N-subsets S of the momenta, the
Bethe states.  Both take real logs and never form (M+1)^N or exp(beta N).
A site sum over k = lo..M of exp(ik(theta - phi)) is a real Dirichlet
kernel times exp(i(lo+M)(theta - phi)/2), a diagonal unitary on either side
of C that changes neither determinant, so both paths run on C's real rows.
The grid is closed under phi -> -phi, so the ring's reflection folds the
Gram into two real products of half width (_site_matrix), factored by one
real Cholesky.  Its estimate is the ratio of the largest to the smallest
pivot; a sorted QR of the unfolded W^(1/2) C^H recomputes, and the caller
warns, every value whose Cholesky fails or whose estimate is not
<= PIVOT_RATIO_WARNING.

Each piece of determinant work is done once per process.  C does not depend
on beta, and the CLI sweeps beta innermost, so _site_matrix keeps the halves
it built last (read-only, shared by every beta of the sweep).  The `asym`
tables read back the correlators that the `correlator` tables of one chain
have just computed, so _gram_log_value keeps the recent Gram determinants,
keyed on float(beta), beta being real throughout (_real_beta); callers
still get a fresh CorrelatorResult with their own params.  The QR fallback's
C is rebuilt on every call, as no workload revisits it; the spectral terms
keep each kind's last chain, which its beta sweep reads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb, cos, pi
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import EnumerationBudgetError

__all__ = [
    "ChainParams",
    "BetheState",
    "CorrelatorResult",
    "ground_state",
    "energy",
    "enumerate_bethe_states",
    "norm_squared",
    "scalar_product",
    "efp_formfactor",
    "domain_wall_formfactor",
    "walker_amplitude",
    "walker_amplitude_multi",
    "amplitude_table",
    "persistence_ferro",
    "persistence_domain_wall",
]

PIVOT_RATIO_WARNING = 1e10
SPECTRAL_BUDGET = 10**6
MINOR_ENTRIES = 2**18  # matrix entries held at once while the spectral minors are taken


@dataclass(frozen=True)
class ChainParams:
    """Ring of M+1 sites with N down spins."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 0 or not 0 <= self.N <= self.M + 1:
            raise ValueError(f"need 0 <= N <= M+1, got M={self.M}, N={self.N}")

    @property
    def K(self) -> int:
        return self.M + 1 - self.N


@dataclass(frozen=True)
class BetheState:
    """Admissible quantum numbers and the roots they parametrize.

    quantum_numbers is strictly decreasing in 0..M; root j is
    2*pi/(M+1) * (I_j - (N-1)/2), so exp(i(M+1)theta) = (-1)^(N-1) exactly.
    """

    M: int
    N: int
    quantum_numbers: tuple[int, ...]
    roots: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        ChainParams(self.M, self.N)
        I = tuple(int(x) for x in self.quantum_numbers)
        object.__setattr__(self, "quantum_numbers", I)
        if len(I) != self.N:
            raise ValueError("need exactly N quantum numbers")
        if any(I[j] <= I[j + 1] for j in range(len(I) - 1)):
            raise ValueError("quantum numbers must be strictly decreasing")
        if I and (I[0] > self.M or I[-1] < 0):
            raise ValueError("quantum numbers must lie in 0..M")
        shift = (self.N - 1) / 2.0
        roots = tuple(2.0 * pi / (self.M + 1) * (i - shift) for i in I)
        object.__setattr__(self, "roots", roots)


def ground_state(M: int, N: int) -> BetheState:
    """Lowest-energy state: quantum numbers N-1, N-2, ..., 0."""
    return BetheState(M, N, tuple(range(N - 1, -1, -1)))


def energy(state: BetheState) -> float:
    """Eigen-energy -sum_j cos(theta_j)."""
    return -sum(cos(t) for t in state.roots)


def enumerate_bethe_states(M: int, N: int, max_states: int = SPECTRAL_BUDGET) -> Iterator[BetheState]:
    """All C(M+1, N) states, in descending lexicographic quantum-number order."""
    ChainParams(M, N)
    total = comb(M + 1, N)
    if total > max_states:
        raise EnumerationBudgetError(f"sector has {total} states, budget is {max_states}")
    for asc in combinations(range(M, -1, -1), N):
        yield BetheState(M, N, asc)


def norm_squared(state: BetheState) -> float:
    """(M+1)^N over the squared modulus of the root Vandermonde."""
    M, I = state.M, state.quantum_numbers
    den = 1.0
    for m in range(len(I)):
        for l in range(m + 1, len(I)):
            den *= 2.0 * (1.0 - cos(2.0 * pi / (M + 1) * (I[l] - I[m])))
    return (M + 1) ** state.N / den


def scalar_product(v, u, M: int) -> complex:
    """Overlap of a bra at parameters v with a ket at parameters u.

    domain_wall_formfactor(v, u, 0, M): the determinant of geometric kernels
    in u_k^2 / v_j^2 with exponent M+1, normalized by the two Vandermondes;
    diagonal-degenerate entries take their analytic value M+1.  With
    N > M+1 that N x N matrix has rank at most M+1, and the overlap is 0.
    """
    v = tuple(v)
    u = tuple(u)
    if len(v) != len(u):
        raise ValueError("parameter tuples must have equal length")
    if len(u) > M + 1:
        from .schur import _check_distinct  # call-time: the correlator paths never load schur

        _check_distinct([complex(x) ** 2 for x in u])
        _check_distinct([complex(x) ** (-2) for x in v])
        return 0j
    return domain_wall_formfactor(v, u, 0, M)


def efp_formfactor(state: BetheState, n: int) -> float:
    """Probability that sites 0..n-1 all hold up spins in the given eigenstate.

    det(I - K_n) with the sine kernel over the state's roots; the diagonal
    takes the analytic value n/(M+1).  The independent sine-kernel oracle of
    Colomo, Izergin, Korepin & Tognetti: it shares no code with the Gram path
    of persistence_ferro, which equals it at beta = 0.  `correlator efp` prints
    it because at beta = 0 it is the more accurate of the two: against a
    50-digit det(I - K_n), (M,N,n) = (100,30,20) is 6.2e-10 off here and 1.0e-9
    there, (200,40,30) 7.0e-11 and 5.1e-10, (60,20,10) 1.8e-15 and 1.0e-13
    (relative errors).
    """
    M, N = state.M, state.N
    if not 0 <= n <= M + 1:
        raise ValueError("need 0 <= n <= M+1")
    if N == 0:
        return 1.0
    th, off = np.asarray(state.roots), ~np.eye(N, dtype=bool)
    x = np.subtract.outer(th, th)[off] / 2  # half the root differences
    K = np.full((N, N), n / (M + 1), dtype=complex)
    K[off] = np.exp(1j * (n - 1) * x) * np.sin(n * x) / ((M + 1) * np.sin(x))
    det = complex(np.linalg.det(np.eye(N) - K))
    if abs(det.imag) > 1e-9 * max(1.0, abs(det.real)):
        raise ArithmeticError(f"probability came out non-real: {det}")
    return det.real


def domain_wall_formfactor(v, u, n: int, M: int) -> complex:
    """Transition element that inserts n adjacent down spins.

    v carries N <= M+1 parameters, u carries N-n.  The Cauchy-Binet kernel
    schur.binet_cauchy_kernel(M+1-N, 0, v^-2, u^2) in its two-block shape:
    N-n rows of geometric kernels in u_k^2/v_j^2 (exponent M+1) over n
    monomial rows v_j^(-2r), r = n-1, ..., 0, divided by both Vandermondes.
    N > M+1 raises: there are then no M+1-N box columns to sum over.
    """
    v = tuple(v)
    u = tuple(u)
    N = len(v)
    if not 0 <= n <= N or len(u) != N - n:
        raise ValueError("need len(v) = N and len(u) = N - n")
    ChainParams(M, N)
    from .schur import binet_cauchy_kernel  # call-time: the correlator paths never load schur

    u2 = [complex(x) ** 2 for x in u]
    vm2 = [complex(x) ** (-2) for x in v]
    return complex(binet_cauchy_kernel(M + 1 - N, 0, vm2, u2))


# -- walker amplitudes --------------------------------------------------


def _twice_m(M: int, N: int) -> np.ndarray:
    """2m for the N-particle momenta pi*2m/(M+1), ground state first; sectors differ by integers."""
    return 2 * np.arange(M + 1) - (N - 1)


def _real_beta(beta) -> float:
    """beta as a float; ValueError unless its imaginary part is zero and its real part finite."""
    b = complex(beta)
    if b.imag:
        raise ValueError(f"beta must be real, got {beta!r}")
    if not math.isfinite(b.real):
        raise ValueError(f"beta must be finite, got {beta!r}")
    return b.real


@lru_cache(maxsize=64)
def _amplitude_table_cached(M: int, beta: float, parity_even: bool) -> np.ndarray:
    phi = pi * _twice_m(M, 2 if parity_even else 1) / (M + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN entries past double range, for the callers to refuse
        w = np.exp(beta * np.cos(phi) + 0j) / (M + 1)  # complex exp: the pinned tables hold its last bits
        f = np.exp(1j * np.outer(np.arange(-M, M + 1), phi)) @ w
    f.setflags(write=False)
    return f


def amplitude_table(M: int, beta, n_particles: int = 1) -> np.ndarray:
    """Read-only (M+1) x (M+1) table of single-step heat-kernel amplitudes.

    Entry [k, l] is the generating function of one walker travelling from
    site l to site k, built on the momentum grid of the n_particles sector
    (only the parity of n_particles matters); it is f[k - l + M] for the 2M+1
    cached values f.  beta is real and finite; anything else raises ValueError.  Entries beyond
    double range come out NaN, with no numpy warning.
    """
    if M < 0 or n_particles < 1:
        raise ValueError("need M >= 0 and n_particles >= 1")
    f = _amplitude_table_cached(M, _real_beta(beta), n_particles % 2 == 0)
    table = f[np.subtract.outer(np.arange(M + 1), np.arange(M + 1)) + M]
    table.setflags(write=False)
    return table


def walker_amplitude(k: int, l: int, beta, M: int) -> complex:
    """Single-walker amplitude between sites l and k at real, finite inverse temperature beta (else ValueError);
    OverflowError beyond double range."""
    if not (0 <= k <= M and 0 <= l <= M):
        raise ValueError("sites must lie in 0..M")
    value = complex(_amplitude_table_cached(M, _real_beta(beta), False)[k - l + M])
    if not np.isfinite(value):
        raise OverflowError(f"walker amplitude beyond double range at beta = {beta}")
    return value


def walker_amplitude_multi(mu_left, mu_right, beta, M: int) -> complex:
    """Amplitude for N non-colliding walkers: determinant of single-walker entries.

    Endpoints are strictly decreasing site tuples of equal length; the
    single-walker entries are taken on the N-particle momentum grid.  Real, finite beta only, else ValueError;
    a determinant beyond double range raises OverflowError.
    """
    beta = _real_beta(beta)
    mu_left, mu_right = tuple(mu_left), tuple(mu_right)
    if len(mu_left) != len(mu_right):
        raise ValueError("endpoint tuples must have equal length")
    for t in (mu_left, mu_right):
        if any(t[i] <= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("endpoints must be strictly decreasing")
        if t and (t[0] > M or t[-1] < 0):
            raise ValueError("endpoints must lie in 0..M")
    N = len(mu_left)
    if N == 0:
        return 1.0 + 0.0j
    f = _amplitude_table_cached(M, beta, N % 2 == 0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.linalg.det(f[np.subtract.outer(mu_left, mu_right) + M]))
    if not np.isfinite(value):
        raise OverflowError(f"walker amplitude beyond double range at beta = {beta}")
    return value


# -- persistence correlators ---------------------------------------------


@dataclass(frozen=True)
class CorrelatorResult:
    """A correlator value, its path, and log|value|, which stays finite where value over- or underflows."""

    value: complex
    method: str
    params: tuple
    warnings: tuple[str, ...] = ()
    log_abs: float | None = None

    def __post_init__(self):
        if self.log_abs is None:
            mag = abs(self.value)
            object.__setattr__(self, "log_abs", -math.inf if mag == 0 else math.log(mag))  # NaN and inf stay


def _sin_quarter(k: np.ndarray, M: int) -> np.ndarray:
    """sin(pi k / (2(M+1))) for integer k, reduced mod 4(M+1) and folded into [0, pi/2] before the sine."""
    h = 2 * (M + 1)
    sign = np.where(k % (2 * h) < h, 1.0, -1.0)
    k = k % h
    return sign * np.sin(pi * np.minimum(k, h - k) / h)


def _dirichlet(M: int, lo: int, d: np.ndarray) -> np.ndarray:
    """The site sum sum_{k=lo..M} exp(ikx) over its phase exp(i(lo+M)x/2), x = pi d/(M+1), |d| < 2(M+1).

    That is sin((M+1-lo)x/2) / sin(x/2), and M+1-lo at d = 0.
    """
    num, den = _sin_quarter(np.stack([(M + 1 - lo) * d, d]), M)
    return np.divide(num, den, out=np.full(d.shape, float(M + 1 - lo)), where=d != 0)


def _site_rows(kind: str, N: int, n: int) -> tuple[int, int]:
    """(Ng, lo): C's Ng site-sum rows run over k = lo..M, Ng being the ground state's particle number."""
    return (N, n) if kind == "ferro" else (N - n, 0)


def _border_rows(M: int, n: int, tm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, re, im) at phi = pi tm / (M+1): u_r = (2^.5 sin phi/2)^r (2^.5 cos phi/2)^(n-1-r), re + i im = exp(i(M+1-n) phi/2)."""
    k = (M + 1 - n) * tm  # (M+1-n) phi/2 = pi k / (2(M+1))
    sin_half, cos_half, re, im = _sin_quarter(np.stack([tm, tm + M + 1, k + M + 1, k]), M)
    return (np.vander(math.sqrt(2) * sin_half, n, increasing=True) * np.vander(math.sqrt(2) * cos_half, n)).T, re, im


def _ground_energy(M: int, Ng: int) -> float:
    """E_gs = -sum cos theta over the Ng-particle ground state's roots."""
    return -float(np.sum(np.cos(pi * _twice_m(M, Ng)[:Ng] / (M + 1))))


@lru_cache(maxsize=1)  # the halves are beta-independent and beta is swept innermost
def _site_matrix(kind: str, M: int, N: int, n: int) -> tuple[np.ndarray, int, np.ndarray, int, float]:
    """(F, nx, cos phi, Ng, E_gs): C folded by the ring's reflection into two real halves.

    Column J = (N-1-j) mod (M+1) of C (_unfolded_rows) is column j's mirror:
    cos phi_J = cos phi_j and C[:, J] = +-P conj(C[:, j]), P reversing the Ng
    site rows and taking border row r times (-1)^r.  In the rows
    (R_s +- R_{Ng-1-s})/2^.5 (the minus one times i), the middle site row,
    and border row r times (-i)^(r mod 2), every row is x + iy with x even
    and y odd under the mirror, so Im(C W C^H) cancels between j and J.  X =
    F[:nx] holds the x rows (even site rows, then the border rows' real parts
    for even r, imaginary for odd), Y = F[nx:] the y rows (odd site rows, then
    the other parts, negated for odd r), over the K = (M+1+f)/2 momenta in
    [0, pi], f of them (phi = 0, pi) their own mirror and the others scaled by
    2^.5 for their pair.  Rows are divided by M+1, so det(X W X^T (+) Y W Y^T,
    border blocks summed) = det(C W C^H) / (M+1)^(2N).  Site rows are windows
    onto one Dirichlet table, |d| <= M + Ng < 2(M+1); border rows are
    u_r exp(i(M+1-n) phi/2), u_r = (2^.5 sin phi/2)^r (2^.5 cos phi/2)^(n-1-r),
    which _plane_waves' real B' maps onto the plane waves.  Cached, read-only.
    """
    Ng, lo = _site_rows(kind, N, n)
    tm = _twice_m(M, N)[N // 2 : (N + M) // 2 + 1]  # 2m over [0, pi]
    K, p, hx = len(tm), Ng // 2, (Ng + 1) // 2
    own = [0] * (N % 2) + [K - 1] * ((N + M + 1) % 2)  # the columns at phi = 0 and pi, their own mirror
    pair = np.full(K, math.sqrt(2))  # a column that stands for two has weight 2
    pair[own] = 1.0
    F = np.empty((2 * N - Ng, K))  # X = F[:N - p], Y = F[N - p:]
    X, Y = F[: N - p], F[N - p :]
    if Ng:
        t = _dirichlet(M, lo, np.arange(tm[0] + 1 - Ng, tm[-1] + Ng, 2)) / (M + 1)
        W = as_strided(t, (Ng, K), t.strides * 2, writeable=False)  # W[s, j] = t[s + j]
        np.add(W[:p], W[::-1][:p], out=X[:p])
        np.subtract(W[:p], W[::-1][:p], out=Y[:p])
        for j in own:
            X[:p, j] *= math.sqrt(0.5)
            Y[:p, j] *= math.sqrt(0.5)
        np.multiply(W[p:hx], pair, out=X[p:hx])
    if kind == "domain_wall":
        u, re, im = _border_rows(M, n, tm)
        u *= pair / (M + 1)
        odd = (np.arange(n) % 2 == 1)[:, None]
        np.multiply(u, np.where(odd, im, re), out=X[hx:])
        np.multiply(u, np.where(odd, -re, im), out=Y[p:])
    cos_phi = np.cos(pi * tm / (M + 1))
    F.setflags(write=False)
    cos_phi.setflags(write=False)
    return F, N - p, cos_phi, Ng, _ground_energy(M, Ng)


def _unfolded_rows(kind: str, M: int, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, cos phi): the N x (M+1) matrix C over the N-particle momenta phi, without its phases.

    Without their phases exp(ic theta) and exp(-ic phi), c = (lo+M)/2, the Ng
    site-sum rows over k = lo..M (_site_rows) are windows onto one Dirichlet
    table, C[s, j] = _dirichlet(2m_s + 2m_j).  Ferro: those N real rows.
    Domain wall: the N-n site rows over the n complex border rows
    u_r exp(i(M+1-n) phi/2) of _site_matrix.  Built afresh on every call: no
    workload asks the QR fallback or the spectral minors twice for one chain.
    """
    Ng, lo = _site_rows(kind, N, n)
    tm = _twice_m(M, N)
    C = np.empty((0, M + 1))
    if Ng:
        t = _dirichlet(M, lo, np.arange(2 - Ng - N, 2 * M + Ng - N + 1, 2))
        C = as_strided(t, (Ng, M + 1), t.strides * 2, writeable=False)  # C[s, j] = t[s + j]
    if kind == "domain_wall":
        u, re, im = _border_rows(M, n, tm)
        C = np.vstack([C, u * re + 1j * (u * im)])
    return C, np.cos(pi * tm / (M + 1))


@lru_cache(maxsize=16)
def _plane_waves(n: int) -> np.ndarray:
    """Real B', exp(-ir phi) = exp(-i(n-1) phi/2) sum_j B'[n-1-r, j] (-i)^(j mod 2) u_j.

    B'[:, j] = i^j i^(j mod 2) K_j(r) / 2^((n-1)/2), K_j the Krawtchouk
    polynomials of order n-1; |det B'| = 1.
    """
    x, K = 2.0 * np.arange(n) - (n - 1), [np.zeros(n), np.ones(n)]  # x = n-1-2r for r = n-1..0
    for j in range(n - 1):  # the recurrence of the Krawtchouk polynomials K_j of order n-1
        K.append((x * K[-1] - (n - j) * K[-2]) / (j + 1))
    B = np.stack(K[1:], axis=1) * (-1.0) ** ((np.arange(n) + 1) // 2) / 2 ** ((n - 1) / 2)
    B.setflags(write=False)
    return B


@lru_cache(maxsize=256)  # holds a chain's correlator and asym grids, both kinds, many times over
def _gram_log_value(kind: str, M: int, N: int, n: int, beta: float) -> tuple[float, float]:
    """(log of the determinant-path correlator, conditioning estimate).

    The correlator is exp(beta E_gs) det(C W C^H) / (M+1)^(N+Ng), W =
    diag(exp(beta cos phi)) over its largest entry, which is added back as a
    log.  C W C^H / (M+1) is U F[n:, n:]^T U^H for ferro and the kernel /
    strip / walker block matrix for the domain wall, F the walker table.  Per
    beta: one exp over the K weights, the real products X W X^T and
    Y W Y^T of _site_matrix's halves summed into G' (block diagonal for
    ferro), one Cholesky of G'.  The estimate is max/min of its squared
    pivots, the last n those of the real border B' (_log_det).  Where
    Cholesky fails or the estimate is not <= PIVOT_RATIO_WARNING, the value
    comes from _qr_log_det and the estimate is NaN, which the caller warns
    on.  Cached, because `asym` asks again for every value `correlator`
    printed; keyed on _real_beta's float.
    """
    F, nx, cos_phi, Ng, e_gs = _site_matrix(kind, M, N, n)
    log_w = beta * cos_phi
    shift = float(log_w[0] if beta >= 0 else log_w[-1])  # the largest: cos phi falls over [0, pi]
    A = F * np.exp((log_w - shift) / 2)
    X, Y, hx = A[:nx], A[nx:], (Ng + 1) // 2  # hx of X's rows are site rows, and Ng - hx of Y's
    G = np.zeros((N, N))
    np.matmul(Y, Y.T, out=G[hx:, hx:])  # one buffer on both sides, so numpy runs a single syrk
    GX = X @ X.T  # the domain wall's border rows sit in both halves; ferro's X has none
    G[:hx, :hx], G[:hx, Ng:], G[Ng:, :hx] = GX[:hx, :hx], GX[:hx, hx:], GX[hx:, :hx]
    G[Ng:, Ng:] += GX[hx:, hx:]
    try:
        log_det, ratio = _log_det(G, border=_plane_waves(n) if kind == "domain_wall" and n else None)
    except np.linalg.LinAlgError:
        ratio = math.nan
    if not ratio <= PIVOT_RATIO_WARNING:
        return _qr_log_det(kind, M, N, n, beta) + beta * e_gs - (N + Ng) * math.log(M + 1), math.nan
    return log_det + N * shift + beta * e_gs + (N - Ng) * math.log(M + 1), ratio


def _qr_log_det(kind: str, M: int, N: int, n: int, beta: float) -> float:
    """log det(C W C^H), W unscaled, by a Householder QR of (C W^(1/2))^H, C from _unfolded_rows.

    Rows sorted by decreasing weight, columns by decreasing norm (Cox &
    Higham, BIT 38, 1998); an exact zero on R's diagonal gives -inf.
    """
    C, cos_phi = _unfolded_rows(kind, M, N, n)
    log_w = beta * cos_phi
    shift = float(np.max(log_w))
    Y = (C * np.exp((log_w - shift) / 2)).conj().T[np.argsort(-cos_phi)]
    r = np.linalg.qr(Y[:, np.argsort(-np.linalg.norm(Y, axis=0))], mode="r")
    with np.errstate(divide="ignore"):
        return 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r))))) + N * shift


def _log_det(G: np.ndarray, border: np.ndarray | None = None) -> tuple[float, float]:
    """(log det G, max/min of the squared Cholesky diagonal); LinAlgError where G is not positive definite.

    With a border B, the last len(B) pivots are those of B times G's last rows:
    of their Schur complement B L_bb (B L_bb)^H, where G = L L^H.
    """
    L = np.linalg.cholesky(G)
    diag2 = np.diagonal(L) ** 2
    log_det = float(np.sum(np.log(diag2)))
    if border is not None:
        BL = border @ L[-len(border):, -len(border):]
        diag2[-len(border):] = np.diagonal(np.linalg.cholesky(BL @ BL.T)) ** 2
    return log_det, float(np.max(diag2) / np.min(diag2))


def _minor_terms(kind: str, M: int, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|det C[:, S]|^2, E_S - E_gs) over the N-subsets S of the momenta, in ascending order.

    S is a Bethe state's sorted quantum numbers.  C is _unfolded_rows', whose
    dropped phases leave every |det C[:, S]| as it is.  The subsets are taken
    in chunks of about MINOR_ENTRIES matrix entries, each chunk's minors by one
    batched slogdet; a zero minor has log -inf.
    """
    C, cos_phi = _unfolded_rows(kind, M, N, n)
    e_gs = _ground_energy(M, _site_rows(kind, N, n)[0])
    subsets = combinations(range(M + 1), N)
    chunk = max(1, MINOR_ENTRIES // (N * N))
    log_det2, d_energy = [], []
    for _ in range(0, comb(M + 1, N), chunk):
        S = np.fromiter(chain.from_iterable(islice(subsets, chunk)), dtype=np.intp).reshape(-1, N)
        log_det2.append(2.0 * np.linalg.slogdet(C.T[S])[1])  # C.T[S] is C[:, S] transposed
        d_energy.append(-cos_phi[S].sum(axis=1) - e_gs)
    terms = np.concatenate(log_det2), np.concatenate(d_energy)
    for a in terms:
        a.setflags(write=False)
    return terms


@lru_cache(maxsize=1)  # a beta sweep reads one chain's terms back
def _ferro_spectral_terms(M: int, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return _minor_terms("ferro", M, N, n)


@lru_cache(maxsize=1)
def _dw_spectral_terms(M: int, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return _minor_terms("domain_wall", M, N, n)


def _spectral_log_value(kind: str, M: int, N: int, n: int, beta: float) -> float:
    """Log of the spectral-sum correlator, the Cauchy-Binet expansion of the Gram determinant.

    exp(beta E_gs) det(C W C^H) = sum_S exp(-beta (E_S - E_gs)) |det C[:, S]|^2,
    summed with the largest real exponent factored out.
    """
    log_det2, d_energy = (_ferro_spectral_terms if kind == "ferro" else _dw_spectral_terms)(M, N, n)
    a = log_det2 - beta * d_energy
    shift = float(np.max(a))
    if shift == -math.inf:
        return -math.inf  # every minor vanishes
    Ng, _ = _site_rows(kind, N, n)
    return math.log(np.sum(np.exp(a - shift))) + shift - (N + Ng) * math.log(M + 1)


def _check_correlator(kind: str, M: int, N: int, n: int) -> None:
    """The chain and the range of n that each correlator kind accepts."""
    ChainParams(M, N)
    if M == 0:  # on one site the bond term is -1/2 in every sector, which the Bethe energies miss
        raise ValueError("need M >= 1: a ring of one site has no bond")
    if kind == "ferro" and not 0 <= n <= M + 1:
        raise ValueError("need 0 <= n <= M+1")
    if kind == "domain_wall" and not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")


def _persistence(kind: str, M: int, N: int, n: int, beta, method: str, max_states: int) -> CorrelatorResult:
    b = _real_beta(beta)
    _check_correlator(kind, M, N, n)
    if method not in ("determinant", "spectral_sum"):
        raise ValueError(f"unknown method {method!r}")
    warnings: list[str] = []
    if n == 0 or N == 0:
        log_value = 0.0  # the identity operator, or no particles for it to act on
    elif kind == "ferro" and n > M + 1 - N:
        log_value = -math.inf  # no room for n empty sites: the projector kills the state
    elif method == "determinant":
        log_value, ratio = _gram_log_value(kind, M, N, n, b)
        if not ratio <= PIVOT_RATIO_WARNING:  # NaN: the QR recomputed a value past the gate
            warnings.append(f"ill-conditioned determinant (conditioning estimate {ratio:.2e})")
    else:
        if comb(M + 1, N) > max_states:
            raise EnumerationBudgetError("spectral sum exceeds sector budget")
        log_value = _spectral_log_value(kind, M, N, n, b)
    if kind == "ferro" and log_value > 1e-12:  # <psi|P e^(-beta(H-E0)) P|psi> <= |P psi|^2 <= |psi|^2
        warnings.append(f"ferro correlator exceeds 1 (log {log_value:.3g})")
    with np.errstate(over="ignore"):
        value = complex(np.exp(np.complex128(log_value)))
    if not math.isfinite(value.real):  # the exp of a real log has imaginary part 0
        warnings.append(f"non-finite value {value}")
    return CorrelatorResult(value, method, (M, N, n, beta), tuple(warnings), log_value)


def persistence_ferro(
    M: int, N: int, n: int, beta, method: str = "determinant", max_states: int = SPECTRAL_BUDGET
) -> CorrelatorResult:
    """Thermal correlator of the n-site empty-string projector on the ground state.

    C holds N site-sum rows over sites n..M.  The determinant path is the
    Gram determinant det(C W C^H); the spectral path is its Cauchy-Binet
    expansion over the N-subsets of the momenta, the Bethe states.  Both work
    in log space, so log_abs stays finite where the value over- or underflows.
    The determinant path's estimate is the pivot ratio of the folded Gram's
    Cholesky; a value whose Cholesky fails or whose estimate passes
    PIVOT_RATIO_WARNING is recomputed by a sorted QR and warned with estimate
    nan.  A value above 1 is warned too.  The value is 1 at n = 0.  beta is real and finite;
    else ValueError, also at n = 0 or N = 0.
    """
    return _persistence("ferro", M, N, n, beta, method, max_states)


def persistence_domain_wall(
    M: int, N: int, n: int, beta, method: str = "determinant", max_states: int = SPECTRAL_BUDGET
) -> CorrelatorResult:
    """Thermal correlator of the n-site down-spin insertion on the (N-n)-ground state.

    C holds N-n site-sum rows on the (N-n)-particle ground state stacked on
    n plane-wave rows; the two paths are det(C W C^H) and its Cauchy-Binet
    expansion, warned and recomputed as for persistence_ferro; the
    determinant path runs in real arithmetic only.  The value is 1 at
    n = 0.  beta is real and finite; anything else raises ValueError, also at n = 0 or
    N = 0.
    """
    return _persistence("domain_wall", M, N, n, beta, method, max_states)
