"""Ground-truth engine: dense linear algebra on small chains.

Builds the hopping Hamiltonian H block by block in the down-spin-number
sectors, the n-site projector and the n-site down-spin insertion map, and
evaluates every correlator as a literal matrix element on H's eigenpairs.
The ground state is H's lowest eigenvector, unique by Perron-Frobenius (off-
diagonal entries <= 0, connected hopping graph), so nothing here shares code
with the formulas it checks.  build_state_vector is the paper's Schur-function
form of the Bethe states, under test against H; the oracle never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import EnumerationBudgetError
from .schur import schur_jacobi_trudi
from .xx0core import ChainParams

__all__ = [
    "SectorBasis",
    "sector_basis",
    "build_hamiltonian",
    "build_state_vector",
    "thermal_operator",
    "projector_empty_sites",
    "domain_wall_insertion",
    "oracle_correlator",
]

SECTOR_BUDGET = 5000
ED_CACHE_SIZE = 4  # sectors kept per cache; at SECTOR_BUDGET one H and its eigenvectors take 400 MB


@dataclass(frozen=True)
class SectorBasis:
    """Down-spin position tuples (strictly decreasing), in colex order.

    Colex order is ascending order of the occupation bitmasks, fixed forever
    so matrices are reproducible.
    """

    M: int
    N: int
    configurations: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.configurations)

    def index(self, config) -> int:
        return _index_map(self.M, self.N)[tuple(config)]


@lru_cache(maxsize=ED_CACHE_SIZE)
def sector_basis(M: int, N: int) -> SectorBasis:
    ChainParams(M, N)
    if comb(M + 1, N) > SECTOR_BUDGET:
        raise EnumerationBudgetError(
            f"sector dimension {comb(M + 1, N)} exceeds budget {SECTOR_BUDGET}"
        )
    configs = sorted(combinations(range(M + 1), N), key=lambda c: sum(1 << s for s in c))
    return SectorBasis(M, N, tuple(tuple(reversed(c)) for c in configs))


@lru_cache(maxsize=ED_CACHE_SIZE)
def _index_map(M: int, N: int) -> dict:
    basis = sector_basis(M, N)
    return {c: i for i, c in enumerate(basis.configurations)}


@lru_cache(maxsize=ED_CACHE_SIZE)
def _hamiltonian_cached(M: int, N: int) -> np.ndarray:
    basis = sector_basis(M, N)
    idx = _index_map(M, N)
    dim = basis.dim
    H = np.zeros((dim, dim))
    for c, config in enumerate(basis.configurations):
        occ = set(config)
        for k in range(M + 1):
            kp = (k + 1) % (M + 1)
            if k in occ and kp not in occ:
                target = tuple(sorted((occ - {k}) | {kp}, reverse=True))
                H[idx[target], c] += -0.5
            if kp in occ and k not in occ:
                target = tuple(sorted((occ - {kp}) | {k}, reverse=True))
                H[idx[target], c] += -0.5
    H.setflags(write=False)
    return H


def build_hamiltonian(M: int, N: int) -> np.ndarray:
    """Real symmetric hopping matrix on the N-down-spin sector (read-only)."""
    return _hamiltonian_cached(M, N)


@lru_cache(maxsize=ED_CACHE_SIZE)
def _eigh_cached(M: int, N: int):
    w, v = np.linalg.eigh(build_hamiltonian(M, N))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def thermal_operator(M: int, N: int, beta) -> np.ndarray:
    """exp(-beta * H) on the sector, via full eigendecomposition."""
    w, v = _eigh_cached(M, N)
    return (v * np.exp(-complex(beta) * w)) @ v.T


def _thermal_expectation(M: int, N: int, beta, x: np.ndarray) -> complex:
    """x^H exp(-beta H) x = sum_j exp(-beta w_j) |v_j^T x|^2 over the real eigenvectors v_j."""
    w, v = _eigh_cached(M, N)
    return complex(np.exp(-complex(beta) * w) @ np.abs(v.T @ x) ** 2)


def build_state_vector(u, M: int, N: int) -> np.ndarray:
    """Amplitude vector with S_lam(u^2) at the configuration lam + staircase."""
    basis = sector_basis(M, N)
    u = tuple(u)
    if len(u) != N:
        raise ValueError("need one parameter per down spin")
    u2 = tuple(complex(x) ** 2 for x in u)
    vec = np.empty(basis.dim, dtype=complex)
    for i, mu in enumerate(basis.configurations):
        lam = tuple(mu[j] - (N - 1 - j) for j in range(N))
        vec[i] = complex(schur_jacobi_trudi(lam, u2))
    return vec


def projector_empty_sites(M: int, N: int, n: int) -> np.ndarray:
    """Diagonal 0/1 vector selecting configurations with sites 0..n-1 empty."""
    basis = sector_basis(M, N)
    forbidden = set(range(n))
    return np.array(
        [0.0 if forbidden & set(c) else 1.0 for c in basis.configurations]
    )


def domain_wall_insertion(M: int, N: int, n: int) -> np.ndarray:
    """Map from the (N-n)-sector into the N-sector inserting down spins at 0..n-1.

    Configurations already occupied on 0..n-1 are annihilated.
    """
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    src = sector_basis(M, N - n)
    dst_idx = _index_map(M, N)
    out = np.zeros((comb(M + 1, N), src.dim))
    new_sites = set(range(n))
    for c, config in enumerate(src.configurations):
        if new_sites & set(config):
            continue
        target = tuple(sorted(set(config) | new_sites, reverse=True))
        out[dst_idx[target], c] = 1.0
    return out


def oracle_correlator(kind: str, M: int, N: int, n: int = 0, beta=0.0, endpoints=None) -> complex:
    """Evaluate a correlator verbatim from its defining matrix element on H's eigenpairs.

    kind 'ferro': projected thermal expectation on the N-particle ground
    state; 'domain_wall': insertion correlator on the (N-n)-particle ground
    state; 'walker': thermal transition amplitude between the two endpoint
    configurations (endpoints = (mu_left, mu_right)).  The ground state is
    H's lowest eigenvector; both ratios are quadratic in it, so its scale and sign cancel.
    """
    if kind in ("ferro", "domain_wall"):
        Ng = N if kind == "ferro" else N - n
        psi = _eigh_cached(M, Ng)[1][:, 0]
        x = projector_empty_sites(M, N, n) * psi if kind == "ferro" else domain_wall_insertion(M, N, n) @ psi
        return complex(_thermal_expectation(M, N, beta, x) / _thermal_expectation(M, Ng, beta, psi))
    if kind == "walker":
        mu_left, mu_right = endpoints
        basis = sector_basis(M, len(mu_left))
        w, v = _eigh_cached(M, len(mu_left))
        return complex((v[basis.index(mu_left)] * np.exp(-complex(beta) * w)) @ v[basis.index(mu_right)])
    raise ValueError(f"unknown correlator kind {kind!r}")
