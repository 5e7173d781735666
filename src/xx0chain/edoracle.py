"""Ground-truth engine: dense linear algebra on small chains.

Each down-spin sector is one array of site rows in colex order (SectorBasis).
On it the hopping Hamiltonian H, the n-site projector and the n-site down-spin
insertion map are built by whole-array moves, and every correlator is a
literal matrix element on H's eigenpairs.  The ground state is H's lowest
eigenvector, unique by Perron-Frobenius (off-diagonal entries <= 0, connected
hopping graph), so nothing here shares code with the formulas it checks.
build_state_vector is the paper's Schur-function form of the Bethe states,
under test against H; the oracle never calls it.
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


def _colex_rank(M: int, rows: np.ndarray) -> np.ndarray:
    """Colex ranks sum_j W[j, c_j] of strictly decreasing site rows (k, N), where
    W[j, s] = C(s, N - j) capped at SECTOR_BUDGET, which no term within budget reaches."""
    N = rows.shape[1]
    W = np.ones((N + 1, M + 1), dtype=np.intp)  # row N: C(s, 0) = 1
    for j in range(N - 1, -1, -1):  # C(s, k) = sum over t < s of C(t, k - 1)
        W[j] = np.minimum(np.cumsum(W[j + 1]) - W[j + 1], SECTOR_BUDGET)
    return W[np.arange(N), rows].sum(axis=1)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """The N-down-spin sector of the (M+1)-site ring.

    configurations is one read-only (dim, N) array: the down-spin sites,
    strictly decreasing along each row, rows in colex order (ascending
    occupation bitmask), fixed so matrices are reproducible.  index() is the
    colex rank, which stays small where a 64-bit bitmask overflows (M >= 63).
    """

    M: int
    N: int
    configurations: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.configurations)

    def index(self, config) -> int:
        """Row number of config; KeyError unless config is a row of configurations."""
        row = np.asarray(config, dtype=np.intp)
        if row.shape == (self.N,) and 0 <= row.min(initial=0) and row.max(initial=0) <= self.M:
            i = int(_colex_rank(self.M, row[None])[0])
            if i < self.dim and np.array_equal(self.configurations[i], row):
                return i
        raise KeyError(tuple(config))


@lru_cache(maxsize=ED_CACHE_SIZE)
def sector_basis(M: int, N: int) -> SectorBasis:
    ChainParams(M, N)
    dim = comb(M + 1, N)
    if dim > SECTOR_BUDGET:
        raise EnumerationBudgetError(f"sector dimension {dim} exceeds budget {SECTOR_BUDGET}")
    # combinations of the descending sites come in descending colex order
    configs = np.array(list(combinations(range(M, -1, -1), N))[::-1], dtype=np.intp).reshape(dim, N)
    configs.setflags(write=False)
    return SectorBasis(M, N, configs)


@lru_cache(maxsize=ED_CACHE_SIZE)
def build_hamiltonian(M: int, N: int) -> np.ndarray:
    """Real symmetric hopping matrix on the N-down-spin sector (read-only).

    One move per particle j and step +-1 round the ring: each row whose target
    site is empty adds -1/2 at (rank of the re-sorted moved row, its own row).
    """
    if 0 <= M + 1 - N < N:  # a hop moves a hole the other way; complements come in reverse colex order
        return build_hamiltonian(M, M + 1 - N)[::-1, ::-1]
    configs = sector_basis(M, N).configurations
    H = np.zeros((len(configs), len(configs)))
    for j in range(N):
        for step in (1, -1):
            site = (configs[:, j] + step) % (M + 1)
            moved = np.where(np.arange(N) == j, site[:, None], configs)
            src = np.flatnonzero((configs != site[:, None]).all(axis=1))
            H[_colex_rank(M, -np.sort(-moved[src], axis=1)), src] += -0.5
    H.setflags(write=False)
    return H


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
    lams = (basis.configurations - np.arange(N - 1, -1, -1)).tolist()
    return np.array([complex(schur_jacobi_trudi(tuple(lam), u2)) for lam in lams], dtype=complex)


def projector_empty_sites(M: int, N: int, n: int) -> np.ndarray:
    """Diagonal 0/1 vector selecting configurations with sites 0..n-1 empty."""
    return (sector_basis(M, N).configurations >= n).all(axis=1).astype(float)


def domain_wall_insertion(M: int, N: int, n: int) -> np.ndarray:
    """Map from the (N-n)-sector into the N-sector inserting down spins at 0..n-1.

    Configurations already occupied on 0..n-1 are annihilated.
    """
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    src = sector_basis(M, N - n).configurations
    out = np.zeros((sector_basis(M, N).dim, len(src)))
    keep = np.flatnonzero((src >= n).all(axis=1))
    wall = np.broadcast_to(np.arange(n - 1, -1, -1), (len(keep), n))
    out[_colex_rank(M, np.concatenate((src[keep], wall), axis=1)), keep] = 1.0
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
