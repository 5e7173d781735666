"""Ground-truth engine: exact diagonalization on small chains.

Each down-spin sector is one array of site rows in colex order (SectorBasis).
On it the hopping Hamiltonian H is one hop list (_hops), the n-site projector
and the n-site down-spin insertion are whole-array moves, and every correlator
is a literal matrix element on H's eigenpairs.  H commutes with the translation
T of the ring, so its eigenpairs are taken one lattice momentum at a time: dense
blocks on the plane waves of the translation orbits (Sandvik, AIP Conf. Proc.
1297 (2010), sec. 4), built from the hops of the orbit representatives alone and
found by pointer jumping over the powers of T, ranked once as a permutation.
The ring's reflection composed with complex conjugation keeps each momentum, so
on the waves it leaves fixed every block is real symmetric: one real eigh for
each pair of conjugate momenta, reached from a sector vector by one FFT along
each orbit and two real products.  A correlator's beta-independent overlaps
are kept once per chain.  The ground state is H's lowest eigenvector, unique by
Perron-Frobenius (off-diagonal entries <= 0, connected hopping graph), so
nothing here shares code with the formulas it checks.  build_state_vector is
the paper's Schur-function form of the Bethe states, under test against H; the
oracle never calls it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import EnumerationBudgetError
from .xx0core import ChainParams, _check_correlator, _real_beta

__all__ = [
    "SectorBasis",
    "sector_basis",
    "build_hamiltonian",
    "build_state_vector",
    "thermal_operator",
    "projector_empty_sites",
    "oracle_correlator",
]

SECTOR_BUDGET = 5000
# sectors or chains per cache; within SECTOR_BUDGET a sector keeps <= 5.9 MiB (19,16) and its cold build
# peaks at <= 13.3 MiB (15,11), save (M, M), whose (M+1) x M basis is 191 MiB at M = 4999; a chain keeps 40 kB
ED_CACHE_SIZE = 4


def _colex_rank(M: int, rows: np.ndarray) -> np.ndarray:
    """Colex ranks sum_j W[j, c_j] of strictly decreasing site rows (k, N), where
    W[j, s] = C(s, N - j) capped at SECTOR_BUDGET, which no term within budget reaches."""
    N = rows.shape[1]
    W = np.ones((N + 1, M + 1), dtype=np.intp)  # row N: C(s, 0) = 1
    for j in range(N - 1, -1, -1):  # C(s, k) = sum over t < s of C(t, k - 1)
        W[j] = np.minimum(np.cumsum(W[j + 1]) - W[j + 1], SECTOR_BUDGET)
    return W[np.arange(N), rows].sum(axis=1)


def _rank_sites(M: int, rows: np.ndarray) -> np.ndarray:
    """Colex ranks of rows (k, N) of distinct sites in any order."""
    return _colex_rank(M, -np.sort(-rows, axis=1))


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
    """The sector by one fromiter: combinations of the descending sites come in descending colex order."""
    ChainParams(M, N)
    dim = comb(M + 1, N)
    if dim > SECTOR_BUDGET:
        raise EnumerationBudgetError(f"sector dimension {dim} exceeds budget {SECTOR_BUDGET}")
    flat = np.fromiter(chain.from_iterable(combinations(range(M, -1, -1), N)), np.intp, dim * N)
    configs = flat.reshape(dim, N)[::-1]
    configs.setflags(write=False)
    return SectorBasis(M, N, configs)


def _hops(M: int, N: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, c): one pair per hop of a down spin +-1 round the ring onto an empty site, from the
    sector row ranked rows[i] to the row ranked c.  H is -1/2 on each hop."""
    if 0 <= M + 1 - N < N:  # a hop moves a hole the other way; complements come in reverse colex order
        i, c = _hops(M, M + 1 - N, comb(M + 1, N) - 1 - rows)
        return i, comb(M + 1, N) - 1 - c
    configs = sector_basis(M, N).configurations[rows]
    i, j, step = np.indices((len(configs), N, 2)).reshape(3, -1)  # row, particle, step +1 or -1
    site = (configs[i, j] + 1 - 2 * step) % (M + 1)
    i, j, site = (x[(configs[i] != site[:, None]).all(axis=1)] for x in (i, j, site))  # onto empty sites
    moved = np.where(np.arange(N) == j[:, None], site[:, None], configs[i])
    return i, _rank_sites(M, moved)


def build_hamiltonian(M: int, N: int) -> np.ndarray:
    """Dense real symmetric H on the N-down-spin sector, -1/2 per hop (read-only); for tests.

    It stays in the library because the benchmark's per-layer metrics trace it
    (edoracle.build_hamiltonian.self_s)."""
    D = sector_basis(M, N).dim
    i, c = _hops(M, N, np.arange(D))
    H = np.zeros((D, D))
    np.add.at(H, (c, i), -0.5)
    H.setflags(write=False)
    return H


def _translation_orbits(M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector's orbits under the translation T, which moves every site s to s + 1 mod M + 1.

    Returns (table, periods): table[r, l] is the rank of T^l a_r for l = 0..M, where a_r =
    table[r, 0] is orbit r's representative, and periods[r] is the orbit's length.  T is ranked once,
    as a permutation p of the ranks: pointer jumping over its powers p = T^(2^r) gives each orbit's
    least rank, its representative, and doubles the table's columns.  Holes take the down spins' place
    where they are fewer.
    """
    L = M + 1
    if 0 <= L - N < N:  # T commutes with taking complements, which come in reverse colex order
        table, periods = _translation_orbits(M, L - N)
        return comb(L, N) - 1 - table, periods
    configs = sector_basis(M, N).configurations
    if N == 0:
        return np.zeros((1, L), dtype=np.intp), np.ones(1, dtype=np.intp)
    least, p, powers = np.arange(len(configs)), _rank_sites(M, (configs + 1) % L), []
    for _ in range(M.bit_length()):  # after r rounds, p = T^(2^r) and least[a] = min rank of T^l a, l < 2^r
        least, p, powers = np.minimum(least, least[p]), p[p], powers + [p]
    table = np.flatnonzero(least == np.arange(len(configs)))[:, None]
    for p in powers:  # columns 2^r.. are T^(2^r) of columns 0.., up to L in all
        table = np.concatenate((table, p[table[:, : L - table.shape[1]]]), axis=1)
    return table, L // (table == table[:, :1]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """H on one sector, diagonalized one lattice momentum k at a time (read-only arrays).

    table and periods are _translation_orbits(M, N), and L = M + 1.  Each entry (ks, orbits,
    partners, basis, U) of blocks covers the momenta ks that live on the same orbits (see
    _eigh_cached): its G = len(U) momenta k <= L/2 ascending, then L - k for those with 2k != 0 mod
    L.  partners[c] is the mirror image of orbits[c], and basis[:, g] holds the waves on which H_k
    is real for k = ks[g]: column c is basis[0, g, c] |orbits[c], k> + basis[1, g, c] |partners[c],
    k> (the second term 0 when the orbit is its own mirror image).  U[g] is the real orthogonal
    matrix that diagonalizes H_k on them; L - k takes the same U on the conjugate waves.  Blocks
    come by least k, k = 0 first; w holds every energy in the order _coordinates lists
    eigen-coordinates.  (E0, psi) is the lowest eigenpair, with psi positive and of unit length.
    """

    table: np.ndarray
    periods: np.ndarray
    blocks: tuple
    w: np.ndarray
    E0: float
    psi: np.ndarray


@lru_cache(maxsize=ED_CACHE_SIZE)
def _eigh_cached(M: int, N: int) -> _Spectrum:
    """H's eigenpairs, one momentum block at a time, each block a real symmetric matrix.

    With L = M + 1, the plane wave |a, k> = p_a^(-1/2) sum_{l < p_a} e^(-2 pi i k l / L) T^l |a> of
    a representative a of period p_a exists when k p_a = 0 mod L, that is when L / gcd(k, L) divides
    p_a.  On those waves H is block diagonal, with H_k[b, a] = sum of -1/2 e^(2 pi i k t / L)
    sqrt(p_a / p_b) over the hops from a to the rows c = T^t b of the representatives' hop list.
    The reflection s -> -s mod L maps a to T^(t_a) a', a' another representative, so the reflection
    times complex conjugation, Theta, commutes with H and maps |a, k> to e^(2 pi i k t_a / L) |a', k>.
    The block is real symmetric on waves Theta fixes: e^(i pi k t_a / L) |a, k> when a' = a, and
    (|a, k> + e^(2 pi i k t_a / L) |a', k>) / sqrt 2 and i (|a, k> - e^(2 pi i k t_a / L) |a', k>) /
    sqrt 2 for a pair a < a'.  The amplitudes are real, so H_(L-k) = conj(H_k) takes the same real
    eigenvectors on the conjugate basis.  The ground state is translation invariant
    (Perron-Frobenius), so it lies in the k = 0 block.
    """
    L, D = M + 1, comb(M + 1, N)
    table, periods = _translation_orbits(M, N)
    R = len(periods)
    orbit, shift = np.empty(D, dtype=np.intp), np.empty(D, dtype=np.intp)
    orbit[table], shift[table] = np.arange(R)[:, None], np.arange(L)
    a, c = _hops(M, N, table[:, 0])
    b, t = orbit[c], shift[c]
    amp = -0.5 * np.sqrt(periods[a] / periods[b])
    reflected = _rank_sites(M, -sector_basis(M, N).configurations[table[:, 0]] % L)
    partner, t_reflect = orbit[reflected], shift[reflected]  # a -> T^(t_a) a'
    groups = {}  # k <= L/2 by the orbits they live on
    for k, on in enumerate(periods % (L // np.gcd(np.arange(L // 2 + 1), L))[:, None] == 0):
        groups.setdefault(on.tobytes(), []).append(k)
    blocks, energies = [], []
    for on, ks in groups.items():
        ks, orbits = np.array(ks), np.flatnonzero(np.frombuffer(on, dtype=bool))
        if not len(orbits):
            continue
        G, n, col = len(ks), len(orbits), np.arange(len(orbits))
        pos = np.full(R, -1)
        pos[orbits] = col
        mate = pos[partner[orbits]]
        half = np.exp(1j * np.pi * (np.outer(ks, t_reflect[orbits]) % (2 * L)) / L)  # e^(i pi k t_a / L)
        own = np.where(mate == col, half, np.where(mate > col, 1, -1j * half**2) / np.sqrt(2))
        other = np.where(mate == col, 0, np.where(mate > col, half**2, 1j) / np.sqrt(2))
        keep = (pos[a] >= 0) & (pos[b] >= 0)
        pa, pb = pos[a[keep]], pos[b[keep]]
        hop = amp[keep] * np.exp(2j * np.pi * (np.outer(ks, t[keep]) % L) / L)  # (G, hops)
        # orbit q lies in column q and in column mate[q]; a hop a -> b adds to four cells
        cols, coef = np.stack((col, mate)), np.stack((own, other[:, mate]))
        cell = (np.arange(G)[:, None] * n + cols[:, None, None, pb]) * n + cols[None, :, None, pa]
        term = (coef[:, None, :, pb].conj() * hop * coef[None, :, :, pa]).real
        Hk = np.bincount(cell.ravel(), term.ravel(), G * n * n).astype(float, copy=False)  # int if no hops
        w, U = np.linalg.eigh(Hk.reshape(G, n, n))
        if ks[0] == 0:  # the k = 0 block holds every orbit
            v = (own[0] * U[0, :, 0] + (other[0] * U[0, :, 0])[mate]).real
            psi = np.empty(D)
            psi[table] = (v / np.sign(v[0]) / np.sqrt(periods))[:, None]
            E0 = float(w[0, 0])
        mirror = 2 * ks % L != 0  # H_(L-k) = conj(H_k)
        ks_all = np.concatenate((ks, L - ks[mirror]))
        blocks.append((ks_all, orbits, partner[orbits], np.stack((own, other)), U))
        energies += [w.ravel(), w[mirror].ravel()]
    spectrum = _Spectrum(table, periods, tuple(blocks), np.concatenate(energies), E0, psi)
    for array in (table, periods, spectrum.w, psi, *(x for block in blocks for x in block)):
        array.setflags(write=False)
    return spectrum


def _coordinates(spectrum: _Spectrum, x: np.ndarray) -> np.ndarray:
    """<j|x> for every eigenvector j, in the order of spectrum.w, of a vector x (D,) or batch (D, m).

    <a, k|x> = sqrt(p_a) * ifft along the orbit of x[T^l a], gathered onto each block's real basis
    (conjugated for k <= L/2), then U^T on its real and imaginary parts.
    """
    m = x.size // len(x)
    X = np.fft.ifft(x.reshape(-1, m)[spectrum.table], axis=1) * np.sqrt(spectrum.periods)[:, None, None]
    X = X.swapaxes(0, 1)  # (L, R, m)
    parts = []
    for ks, orbits, partners, basis, U in spectrum.blocks:
        G, first = len(U), int(ks[0] == 0)
        mirror = slice(first, first + len(ks) - G)  # the k with 2k != 0 mod L, a run of ks[:G]
        for k, (own, other), Uk in ((ks[:G], basis.conj(), U), (ks[G:], basis[:, mirror], U[mirror])):
            y = own[..., None] * X[k[:, None], orbits] + other[..., None] * X[k[:, None], partners]
            z = Uk.swapaxes(1, 2) @ np.concatenate((y.real, y.imag), axis=2)  # (g, n, 2m)
            parts.append((z[..., :m] + 1j * z[..., m:]).reshape(-1, m))
    return np.concatenate(parts).reshape(-1, *x.shape[1:])


def _boltzmann_sum(spectrum: _Spectrum, beta: float, c: np.ndarray) -> complex:
    """sum_j c_j exp(-beta (w_j - E0)); an overflow comes out inf or NaN for _times_exp to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-beta * (spectrum.w - spectrum.E0)) @ c


def _times_exp(value: complex, exponent: float, beta: float) -> complex:
    """value * exp(exponent), or OverflowError beyond double range; never inf or NaN."""
    try:
        out = complex(value) * cmath.exp(exponent)
        if cmath.isfinite(out):
            return out
    except OverflowError:
        pass
    raise OverflowError(f"oracle value beyond double range at beta = {beta}")


def thermal_operator(M: int, N: int, beta) -> np.ndarray:
    """exp(-beta * H) = Y^H exp(-beta (w - E0)) Y exp(-beta E0), Y the eigen-coordinates of the identity;
    a real array, OverflowError beyond double range.  beta is real and finite; anything else raises ValueError.
    For tests; the oracle never forms it.  It stays in the library because the benchmark's per-layer
    metrics trace it (edoracle.thermal_operator.calls and .self_s)."""
    beta = _real_beta(beta)
    spectrum = _eigh_cached(M, N)
    Y = _coordinates(spectrum, np.eye(len(spectrum.psi)))
    with np.errstate(over="ignore", invalid="ignore"):
        out = (Y.conj().T * np.exp(-beta * (spectrum.w - spectrum.E0))) @ Y * np.exp(-beta * spectrum.E0)
    if not np.isfinite(out).all():
        raise OverflowError(f"thermal operator beyond double range at beta = {beta}")
    return out.real


def build_state_vector(u, M: int, N: int) -> np.ndarray:
    """Amplitude vector with S_lam(u^2) at the configuration lam + staircase."""
    from .schur import schur_jacobi_trudi  # call-time: the oracle itself never loads schur

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


def _insertion(M: int, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(keep, rows): the (N-n)-sector rows empty on 0..n-1, and their N-sector ranks with 0..n-1 filled."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    src = sector_basis(M, N - n).configurations
    keep = np.flatnonzero((src >= n).all(axis=1))
    wall = np.broadcast_to(np.arange(n - 1, -1, -1), (len(keep), n))
    return keep, _colex_rank(M, np.concatenate((src[keep], wall), axis=1))


@lru_cache(maxsize=ED_CACHE_SIZE)
def _overlaps(kind: str, M: int, N: int, n: int) -> tuple[np.ndarray, float]:
    """(|c_j|^2 / |psi|^2, E0 - E0_ground), read-only, with c_j the coordinates on _eigh_cached(M, N).w
    of P psi (ferro) or psi with 0..n-1 filled (domain wall), psi the N- or (N-n)-sector ground state."""
    ground = _eigh_cached(M, N if kind == "ferro" else N - n)
    if kind == "ferro":
        x = projector_empty_sites(M, N, n) * ground.psi
    else:
        keep, rows = _insertion(M, N, n)
        x = np.bincount(rows, ground.psi[keep], comb(M + 1, N))  # rows are distinct: a scatter
    spectrum = _eigh_cached(M, N)
    c2 = abs(_coordinates(spectrum, x)) ** 2 / (ground.psi @ ground.psi)
    c2.setflags(write=False)
    return c2, spectrum.E0 - ground.E0


def oracle_correlator(kind: str, M: int, N: int, n: int = 0, beta=0.0, endpoints=None) -> complex:
    """Evaluate a correlator verbatim from its defining matrix element on H's eigenpairs.

    kind 'ferro': projected thermal expectation on the N-particle ground
    state; 'domain_wall': insertion correlator on the (N-n)-particle ground
    state; 'walker': thermal transition amplitude between the two endpoint
    configurations (endpoints = (mu_left, mu_right), each N strictly decreasing
    sites in 0..M, as walker_amplitude_multi takes them).  The ground state is
    H's lowest eigenvector; both ratios are quadratic in it, so its scale and sign cancel.
    Each sector's lowest energy E0 is factored out of its Boltzmann weights, so the ferro
    ratio is sum |c_j|^2 exp(-beta (w_j - E0)) / |psi|^2 over the eigen-coordinates c_j of
    P psi; a value beyond double range raises OverflowError.  beta is real and finite, and anything else
    raises ValueError for every kind; the values are real, as complex numbers with a zero imaginary
    part.  The chain and n are checked as persistence_ferro and persistence_domain_wall check them.
    Accuracy floor: E0 from eigh is ~1.2e-15 off the Bethe energy (rms, 114 sectors with M <= 16), and
    the gap factor carries that times beta: at beta = 40 the oracle vouches only to ~2e-13 relative.
    """
    beta = _real_beta(beta)
    if kind in ("ferro", "domain_wall"):
        _check_correlator(kind, M, N, n)
        c2, gap = _overlaps(kind, M, N, n)
        return _times_exp(_boltzmann_sum(_eigh_cached(M, N), beta, c2), -beta * gap, beta)
    if kind == "walker":
        if endpoints is None or len(endpoints) != 2 or any(len(mu) != N for mu in endpoints):
            raise ValueError(f"need endpoints = (mu_left, mu_right), each of N = {N} sites")
        basis, spectrum = sector_basis(M, N), _eigh_cached(M, N)
        ends = np.zeros((basis.dim, 2))
        try:
            ends[basis.index(endpoints[0]), 0] = ends[basis.index(endpoints[1]), 1] = 1.0
        except KeyError as exc:
            raise ValueError(f"endpoint {exc.args[0]} must be strictly decreasing sites in 0..{M}") from None
        y = _coordinates(spectrum, ends)
        amplitude = _boltzmann_sum(spectrum, beta, y[:, 0].conj() * y[:, 1]).real  # H is real
        return _times_exp(amplitude, -beta * spectrum.E0, beta)
    raise ValueError(f"unknown correlator kind {kind!r}")
