import cmath
import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from xx0chain import edoracle
from xx0chain.edoracle import (
    build_hamiltonian,
    build_state_vector,
    oracle_correlator,
    projector_empty_sites,
    sector_basis,
    thermal_operator,
)
from xx0chain.errors import EnumerationBudgetError
from xx0chain.xx0core import (
    energy,
    enumerate_bethe_states,
    ground_state,
    norm_squared,
    persistence_domain_wall,
    persistence_ferro,
)

from oracles import domain_wall_insertion, sector_rows, translation_orbits


def bethe_vector(state):
    u = tuple(cmath.exp(0.5j * t) for t in state.roots)
    return build_state_vector(u, state.M, state.N)


class TestBasis:
    def test_dimensions(self):
        assert sector_basis(4, 2).dim == comb(5, 2)
        assert sector_basis(3, 0).dim == 1

    def test_colex_order_is_bitmask_ascending(self):
        # Python-int masks: from M = 63 on they overflow 64 bits, the order does not
        for M, N in [(4, 2), (80, 1), (40, 2), (70, 2)]:
            masks = [sum(1 << int(s) for s in c) for c in sector_basis(M, N).configurations]
            assert masks == sorted(masks) and len(set(masks)) == comb(M + 1, N), (M, N)

    def test_index_is_the_row_number(self):
        for M, N in [(80, 1), (40, 2), (70, 2), (14, 5), (12, 6), (7, 8), (3, 0)]:
            basis = sector_basis(M, N)
            for i, c in enumerate(basis.configurations):
                assert basis.index(c) == i and basis.index(tuple(int(s) for s in c)) == i, (M, N, i)

    def test_index_rejects_what_is_not_a_row(self):
        basis = sector_basis(40, 2)
        for config in [(3, 3), (0, 1), (41, 0), (-1, 0), (5,), (5, 4, 3)]:
            with pytest.raises(KeyError):
                basis.index(config)

    def test_configurations_are_read_only(self):
        configs = sector_basis(6, 3).configurations
        assert configs.shape == (comb(7, 3), 3) and not configs.flags.writeable
        with pytest.raises(ValueError):
            configs[0, 0] = 1

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            sector_basis(20, 10)


def set_up_sectors():
    """A seeded sweep of sectors of at most 1000 states, and the edge cases: the complement branch
    (L - N < N), N = 0 and N = M + 1, the one-site ring, (4999,1) and (60,59)."""
    rng, drawn = np.random.default_rng(36), []
    while len(drawn) < 40:
        M = int(rng.integers(1, 24))
        N = int(rng.integers(0, M + 2))
        if comb(M + 1, N) <= 1000:
            drawn.append((M, N))
    return [(0, 0), (0, 1), (9, 0), (9, 10), (9, 7), (14, 10), (4999, 1), (60, 59)] + drawn


class TestSectorSetUp:
    # the basis from one fromiter, the orbits from T as a permutation of the ranks by pointer jumping,
    # against the sorted and rotated tuples of tests/oracles.py
    def test_basis_is_the_sorted_tuples(self):
        for M, N in set_up_sectors():
            configs = sector_basis(M, N).configurations
            assert configs.shape == (comb(M + 1, N), N) and configs.dtype == np.intp, (M, N)
            assert configs.tolist() == [list(row) for row in sector_rows(M, N)], (M, N)

    def test_orbits_are_the_rotated_tuples(self):
        for M, N in set_up_sectors():
            table, periods = edoracle._translation_orbits(M, N)
            want_table, want_periods = translation_orbits(M, N)
            assert table.tolist() == want_table and periods.tolist() == want_periods, (M, N)

    def test_orbits_rank_the_sector_once(self, monkeypatch):
        # T is ranked once as a permutation; the orbits and the table follow by indexing alone
        rank, calls = edoracle._rank_sites, []
        monkeypatch.setattr(edoracle, "_rank_sites", lambda M, rows: calls.append(len(rows)) or rank(M, rows))
        for M, N in [(11, 5), (13, 4), (4999, 1), (60, 2)]:
            sector_basis(M, N)
            calls.clear()
            edoracle._translation_orbits(M, N)
            assert calls == [comb(M + 1, N)], (M, N)

    def test_cold_set_up_of_a_large_sector(self, monkeypatch):
        # (17,8) has 43758 states: ranking every rotation of the sector peaked at 13.4 MiB, ranking T once
        # as a permutation and keeping its powers at 11.4 MiB
        import tracemalloc

        monkeypatch.setattr(edoracle, "SECTOR_BUDGET", 10**5)
        edoracle.sector_basis.cache_clear()
        tracemalloc.start()
        try:
            table, periods = edoracle._translation_orbits(17, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            edoracle.sector_basis.cache_clear()
        assert table.shape == (len(periods), 18) and periods.sum() == comb(18, 8)
        assert peak < 12.5 * 2**20, peak


def literal_hamiltonian(M, N):
    # the hop rule site by site on tuples: a down spin crosses each bond onto an empty site
    configs = [tuple(int(s) for s in c) for c in sector_basis(M, N).configurations]
    index = {c: i for i, c in enumerate(configs)}
    H = np.zeros((len(configs), len(configs)))
    for c, config in enumerate(configs):
        occ = set(config)
        for k in range(M + 1):
            kp = (k + 1) % (M + 1)
            for a, b in ((k, kp), (kp, k)):
                if a in occ and b not in occ:
                    H[index[tuple(sorted((occ - {a}) | {b}, reverse=True))], c] += -0.5
    return H


def small_sectors(max_M):
    return [(M, N) for M in range(max_M + 1) for N in range(M + 2)]


class TestHamiltonian:
    def test_two_site_ring_frozen(self):
        H = build_hamiltonian(1, 1)
        assert np.allclose(H, [[0.0, -1.0], [-1.0, 0.0]])

    def test_empty_sector(self):
        H = build_hamiltonian(4, 0)
        assert H.shape == (1, 1) and H[0, 0] == 0.0

    def test_matches_the_literal_hop_rule(self):
        # beyond M = 63, and near-full sectors, which are built from their holes
        for M, N in small_sectors(8) + [(80, 1), (40, 2), (300, 300), (60, 59)]:
            H = build_hamiltonian(M, N)
            assert np.array_equal(H, literal_hamiltonian(M, N)) and not H.flags.writeable, (M, N)

    def test_symmetric(self):
        for M, N in [(5, 2), (6, 3)]:
            H = build_hamiltonian(M, N)
            assert np.allclose(H, H.T)

    def test_spectrum_matches_root_energies(self):
        for M in range(1, 10):
            for N in (1, 2, 3):
                if N > M + 1:
                    continue
                H = build_hamiltonian(M, N)
                got = np.sort(np.linalg.eigvalsh(H))
                want = np.sort([energy(s) for s in enumerate_bethe_states(M, N)])
                assert np.allclose(got, want, atol=1e-9), (M, N)


class TestStateVectors:
    def test_single_particle_geometric(self):
        u = (0.8 + 0.1j,)
        vec = build_state_vector(u, 3, 1)
        basis = sector_basis(3, 1)
        for i, (site,) in enumerate(basis.configurations):
            assert vec[i] == pytest.approx(u[0] ** (2 * site))

    def test_eigen_residual(self):
        for M in range(2, 9):
            for N in (1, 2, 3):
                if N > M + 1:
                    continue
                H = build_hamiltonian(M, N)
                for state in enumerate_bethe_states(M, N):
                    v = bethe_vector(state)
                    r = H @ v - energy(state) * v
                    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(v), (M, N, state)

    def test_squared_length_matches_norm_formula(self):
        for M in (4, 6):
            for N in (1, 2, 3):
                for state in enumerate_bethe_states(M, N):
                    v = bethe_vector(state)
                    got = np.vdot(v, v).real
                    assert got == pytest.approx(norm_squared(state), rel=1e-10)

    def test_completeness_gram_determinant(self):
        # normalized eigenvectors span the sector: |det Gram| = 1
        for M in range(2, 7):
            for N in (1, 2):
                vecs = []
                for state in enumerate_bethe_states(M, N):
                    v = bethe_vector(state)
                    vecs.append(v / np.linalg.norm(v))
                G = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
                assert abs(abs(np.linalg.det(G)) - 1.0) <= 1e-6


class TestOperators:
    def test_projector_diagonal(self):
        p = projector_empty_sites(4, 2, 1)
        basis = sector_basis(4, 2)
        for i, c in enumerate(basis.configurations):
            assert p[i] == (0.0 if 0 in c else 1.0)

    def test_projector_reads_the_sites(self):
        for M, N in small_sectors(7):
            configs = sector_basis(M, N).configurations
            for n in range(M + 2):
                want = [0.0 if set(range(n)) & set(c.tolist()) else 1.0 for c in configs]
                assert np.array_equal(projector_empty_sites(M, N, n), want), (M, N, n)

    def test_insertion_adds_the_wall_sites(self):
        # each source row with sites 0..n-1 empty goes to the row holding them as well
        for M, N in small_sectors(7):
            dst = sector_basis(M, N).configurations
            for n in range(N + 1):
                src = sector_basis(M, N - n).configurations
                F = domain_wall_insertion(M, N, n)
                assert F.shape == (len(dst), len(src))
                for i, c in enumerate(src):
                    sites = set(c.tolist())
                    if sites & set(range(n)):
                        assert not F[:, i].any(), (M, N, n, i)
                        continue
                    (r,) = np.flatnonzero(F[:, i])
                    assert F[r, i] == 1.0 and set(dst[r].tolist()) == sites | set(range(n)), (M, N, n, i)

    def test_insertion_maps_sectors(self):
        F = domain_wall_insertion(5, 3, 2)
        assert F.shape == (comb(6, 3), comb(6, 1))

    def test_insertion_projector_identity(self):
        # F^dagger F projects onto source configs with sites 0..n-1 empty
        for M, N, n in [(4, 2, 1), (5, 3, 2)]:
            F = domain_wall_insertion(M, N, n)
            got = F.T @ F
            want = np.diag(projector_empty_sites(M, N - n, n))
            assert np.allclose(got, want)

    def test_thermal_operator_is_identity_at_beta_zero(self):
        eop = thermal_operator(4, 2, 0.0)
        assert np.allclose(eop, np.eye(comb(5, 2)))


class TestAgainstClosedForms:
    def test_single_walker_amplitudes(self):
        from xx0chain.xx0core import walker_amplitude

        for M in range(1, 10):
            for k in range(M + 1):
                for l in range(M + 1):
                    want = oracle_correlator("walker", M, 1, beta=0.7, endpoints=((k,), (l,)))
                    assert walker_amplitude(k, l, 0.7, M) == pytest.approx(want, abs=1e-12)

    def test_multi_walker_amplitudes(self):
        from itertools import combinations

        from xx0chain.xx0core import walker_amplitude_multi

        for M in (3, 5, 7):
            for N in (2, 3):
                configs = [tuple(reversed(c)) for c in combinations(range(M + 1), N)][:5]
                for muL in configs:
                    for muR in configs:
                        want = oracle_correlator("walker", M, N, beta=0.9, endpoints=(muL, muR))
                        got = walker_amplitude_multi(muL, muR, 0.9, M)
                        assert got == pytest.approx(want, abs=1e-10), (M, N, muL, muR)

    def test_state_vector_length_for_free_parameters(self):
        from xx0chain.xx0core import scalar_product

        rng = np.random.default_rng(13)
        for M, N in [(4, 2), (6, 3)]:
            u = tuple(rng.uniform(0.6, 1.4, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
            vec = build_state_vector(u, M, N)
            # the matching bra has squared-inverse parameters conj(u^2)
            v = tuple(1.0 / np.conj(x) for x in u)
            want = scalar_product(v, u, M)
            assert np.vdot(vec, vec) == pytest.approx(want, rel=1e-10)

    def test_efp_matches_projected_expectation(self):
        from xx0chain.xx0core import efp_formfactor

        for M in range(2, 10):
            for N in (1, 2, 3):
                if N > M + 1:
                    continue
                gs = ground_state(M, N)
                for n in range(M + 2):
                    want = oracle_correlator("ferro", M, N, n, 0.0).real
                    assert efp_formfactor(gs, n) == pytest.approx(want, abs=1e-10), (M, N, n)


class TestOracleCorrelators:
    def test_ferro_identity(self):
        assert oracle_correlator("ferro", 5, 2, 0, 1.0) == pytest.approx(1.0)

    def test_walker_beta_zero(self):
        assert oracle_correlator("walker", 5, 2, beta=0.0, endpoints=((3, 1), (3, 1))) == pytest.approx(1.0)
        assert oracle_correlator("walker", 5, 2, beta=0.0, endpoints=((3, 1), (2, 0))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            oracle_correlator("mystery", 3, 1)

    def test_walker_endpoints_are_checked(self):
        # the sector was taken from len(mu_left): None raised TypeError, a short mu_right KeyError
        for endpoints in [None, ((3, 1), (2,)), ((3,), (2,)), ((3, 1, 0), (4, 2, 1)), ((3, 1),)]:
            with pytest.raises(ValueError, match="N = 2 sites"):
                oracle_correlator("walker", 5, 2, beta=1.0, endpoints=endpoints)
        for endpoints in [((1, 3), (2, 0)), ((3, 1), (6, 0)), ((3, 3), (2, 0))]:
            with pytest.raises(ValueError, match="strictly decreasing"):
                oracle_correlator("walker", 5, 2, beta=1.0, endpoints=endpoints)

    def test_accepts_the_range_of_n_that_persistence_accepts(self):
        def outcome(f):
            try:
                return complex(f())
            except ValueError as exc:
                return str(exc)

        for kind, persistence in (("ferro", persistence_ferro), ("domain_wall", persistence_domain_wall)):
            for M, N in [(7, 3), (3, 4), (4, 0)]:
                for n in sorted({-1, 0, N, N + 1, M + 1, M + 2}):
                    got = outcome(lambda: oracle_correlator(kind, M, N, n, 1.0))
                    want = outcome(lambda: persistence(M, N, n, 1.0).value)
                    if isinstance(want, str):
                        assert got == want, (kind, M, N, n)
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (kind, M, N, n)

    def test_small_rings_agree_on_all_three_paths_or_all_raise(self):
        # on one site the bond term -1/2 (s+s- + s-s+) is -1/2 in every sector, so the domain wall
        # (0,1,1) is 1, where the Bethe energies gave e^beta: the one-site ring is refused everywhere
        for M in range(3):
            for N in range(M + 2):
                for kind, persistence in (("ferro", persistence_ferro), ("domain_wall", persistence_domain_wall)):
                    for n, beta in itertools.product(range(-1, M + 3), (0.0, 0.5, 3.0)):
                        values = []
                        for path in (
                            lambda: persistence(M, N, n, beta).value,
                            lambda: persistence(M, N, n, beta, method="spectral_sum").value,
                            lambda: oracle_correlator(kind, M, N, n, beta),
                        ):
                            try:
                                values.append(complex(path()))
                            except ValueError:
                                values.append(None)
                        case = (kind, M, N, n, beta, values)
                        if M == 0 or None in values:
                            assert values == [None] * 3, case
                        else:
                            assert max(abs(v - values[2]) for v in values) <= 1e-12, case

    def test_matches_the_literal_matrix_element(self):
        # x^H exp(-beta H) x from a dense eigendecomposition of the whole sector
        def expectation(M, N, beta, x):
            w, v = np.linalg.eigh(build_hamiltonian(M, N))
            return np.vdot(x, (v * np.exp(-beta * w)) @ (v.T @ x))

        for M, N, n in [(6, 2, 1), (7, 3, 2), (8, 3, 3)]:
            for beta in (0.0, 1.5, 12.0):
                gs = ground_state(M, N)
                psi = bethe_vector(gs)
                ppsi = projector_empty_sites(M, N, n) * psi
                want = expectation(M, N, beta, ppsi) / expectation(M, N, beta, psi)
                assert oracle_correlator("ferro", M, N, n, beta) == pytest.approx(want, rel=1e-12)
                gs = ground_state(M, N - n)
                psi = bethe_vector(gs)
                phi = domain_wall_insertion(M, N, n) @ psi
                want = expectation(M, N, beta, phi) / expectation(M, N - n, beta, psi)
                assert oracle_correlator("domain_wall", M, N, n, beta) == pytest.approx(want, rel=1e-12)


class TestStatesFromTheHamiltonian:
    def test_lowest_eigenvector_is_the_schur_ground_state(self):
        for M in range(1, 10):
            for N in range(1, M + 1):
                spectrum = edoracle._eigh_cached(M, N)
                gs = ground_state(M, N)
                psi = bethe_vector(gs)
                assert abs(np.vdot(spectrum.psi, psi)) == pytest.approx(np.linalg.norm(psi), rel=1e-12), (M, N)
                assert spectrum.E0 == pytest.approx(energy(gs), rel=1e-12, abs=1e-12), (M, N)

    def test_oracle_uses_no_schur_state_and_no_dense_operator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must read its states off the eigenpairs")

        edoracle._eigh_cached.cache_clear()  # cold calls build the blocks from the hop list
        edoracle._overlaps.cache_clear()
        monkeypatch.setattr(edoracle, "build_state_vector", forbidden)
        monkeypatch.setattr(edoracle, "thermal_operator", forbidden)
        monkeypatch.setattr(edoracle, "build_hamiltonian", forbidden)
        for kind in ("ferro", "domain_wall"):
            assert cmath.isfinite(oracle_correlator(kind, 7, 3, 2, 1.5))
        assert cmath.isfinite(oracle_correlator("walker", 7, 3, beta=1.5, endpoints=((5, 3, 0), (6, 2, 1))))

    def test_caches_are_bounded(self):
        caches = (edoracle.sector_basis, edoracle._eigh_cached, edoracle._overlaps)
        for cache in caches:
            assert cache.cache_info().maxsize is not None
        # an overlap entry keeps its beta-independent numbers alone, never a whole spectrum
        for kind in ("ferro", "domain_wall"):
            entry = edoracle._overlaps(kind, 7, 3, 2)
            assert entry is edoracle._overlaps(kind, 7, 3, 2)
            assert not any(isinstance(x, edoracle._Spectrum) for x in entry), kind
            c2, gap = entry
            assert not c2.flags.writeable and isinstance(gap, float), kind

    def test_oracle_imports_no_masked_arrays(self):
        # plain np.unique imports numpy.ma on first use, some 17 ms inside a timed round
        code = (
            "import sys\n"
            "from xx0chain.edoracle import oracle_correlator\n"
            "for kind in ('ferro', 'domain_wall'):\n"
            "    oracle_correlator(kind, 10, 3, 2, 1.0)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = str(Path(edoracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


# Every sector with M <= 12 of at most 1000 states, (12,6), and the one-state sectors N = 0 and
# N = M + 1 on long rings; dense np.linalg.eigh of the whole sector is the reference.
BLOCK_SECTORS = [(M, N) for M in range(13) for N in range(M + 2) if comb(M + 1, N) <= 1000] + [
    (12, 6), (300, 0), (300, 301), (80, 1), (80, 80),
]
ORACLE_BETAS = (0.0, 3.0, 40.0)


@pytest.fixture(scope="module")
def dense_eigh():
    cache = {}

    def eigh(M, N):
        if (M, N) not in cache:
            cache[(M, N)] = np.linalg.eigh(build_hamiltonian(M, N))
        return cache[(M, N)]

    return eigh


def dense_expectation(eigh, M, N, beta, x):
    w, v = eigh(M, N)
    return np.exp(-beta * w) @ np.abs(v.T @ x) ** 2


def block_eigenvectors(L, block):
    """(k, V U) for each momentum k of a stored block: the complex eigenvectors on the orbits' plane
    waves, V holding the block's basis of k (the conjugate basis of k' = L - k for a mirrored k)."""
    ks, orbits, partners, basis, U = block
    n, cols = len(orbits), np.arange(len(orbits))
    for k in ks:
        g = np.flatnonzero(ks[: len(U)] == min(k, L - k))[0]
        V = np.zeros((n, n), dtype=complex)
        V[cols, cols] = basis[0, g]
        V[np.searchsorted(orbits, partners), cols] += basis[1, g]
        yield k, (V if 2 * k <= L else V.conj()) @ U[g]


def oracle_grid():
    """(kind, M, N, n) over BLOCK_SECTORS with 1 <= M <= 12 (the correlators refuse the one-site ring):
    ferro for every n that leaves a state, the domain wall for every n whose ground-state sector is in
    the grid too."""
    sectors = {(M, N) for M, N in BLOCK_SECTORS if 1 <= M <= 12}
    for M, N in sorted(sectors):
        yield from (("ferro", M, N, n) for n in range(M + 2 - N))
        yield from (("domain_wall", M, N, n) for n in range(N + 1) if (M, N - n) in sectors)


class TestMomentumBlocks:
    def test_block_spectra_are_the_dense_spectrum(self, dense_eigh):
        for M, N in BLOCK_SECTORS:
            spectrum = edoracle._eigh_cached(M, N)
            w, v = dense_eigh(M, N)
            assert np.max(np.abs(np.sort(spectrum.w) - w)) <= 1e-13, (M, N)
            assert spectrum.E0 == pytest.approx(w[0], abs=1e-13) and np.all(spectrum.psi > 0), (M, N)
            assert abs(spectrum.psi @ v[:, 0]) == pytest.approx(1.0, abs=1e-12), (M, N)

    def test_orbits_cover_the_sector(self):
        for M, N in [(11, 6), (11, 5), (5, 3), (3, 2), (13, 7), (12, 0), (12, 13), (4999, 1), (60, 59)]:
            table, periods = edoracle._translation_orbits(M, N)
            configs = edoracle.sector_basis(M, N).configurations
            assert sorted(set(table.ravel().tolist())) == list(range(len(configs))), (M, N)
            assert periods.sum() == len(configs) and np.all((M + 1) % periods == 0), (M, N)
            for l in range(M + 1):  # column l is the representatives moved by l sites
                moved = {tuple(sorted(((c + l) % (M + 1)).tolist())) for c in configs[table[:, 0]]}
                assert moved == {tuple(sorted(c.tolist())) for c in configs[table[:, l]]}, (M, N, l)

    def test_blocks_partition_the_momenta(self):
        # each k holds one block, on the orbits with k * period = 0 mod L, and the blocks fill the sector
        for M, N in BLOCK_SECTORS:
            L, spectrum = M + 1, edoracle._eigh_cached(M, N)
            assert sum(len(ks) * len(orbits) for ks, orbits, *_ in spectrum.blocks) == comb(L, N), (M, N)
            for k in range(L):
                lives = np.flatnonzero(k * spectrum.periods % L == 0).tolist()
                holding = [orbits.tolist() for ks, orbits, *_ in spectrum.blocks if k in ks]
                assert holding == ([lives] if lives else []), (M, N, k)

    def test_mirrored_momenta_diagonalize_their_blocks(self, monkeypatch):
        # eigh runs for k <= L/2 alone; the eigenvectors of every k, L - k among them, must diagonalize
        # H_k on the plane waves of the literal hop rule, p^(-1/2) sum_l e^(-2 pi i k l / L) T^l |a>
        eigh, batches = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: batches.append(len(a)) or eigh(a))
        mirrored = 0
        for M, N in [(7, 3), (11, 5), (11, 6), (9, 1), (12, 6)]:
            L, H = M + 1, literal_hamiltonian(M, N)
            edoracle._eigh_cached.cache_clear()
            batches.clear()
            spectrum = edoracle._eigh_cached(M, N)
            assert sum(batches) == sum(int((ks <= L // 2).sum()) for ks, *_ in spectrum.blocks), (M, N)
            start = 0
            for block in spectrum.blocks:
                orbits = block[1]
                for k, V in block_eigenvectors(L, block):
                    w, start = spectrum.w[start : start + len(orbits)], start + len(orbits)
                    B = np.zeros((len(H), len(orbits)), dtype=complex)
                    for j, r in enumerate(orbits):
                        l = np.arange(spectrum.periods[r])
                        B[spectrum.table[r, l], j] = np.exp(-2j * np.pi * k * l / L) / np.sqrt(len(l))
                    Hk = B.conj().T @ H @ B
                    assert np.max(np.abs(V.conj().T @ Hk @ V - np.diag(w))) <= 1e-13, (M, N, k)
                    mirrored += 2 * k > L
        assert mirrored > 0

    def test_blocks_are_real_symmetric(self, monkeypatch):
        # the waves the reflection fixes make every momentum block real: eigh never sees a complex array
        eigh, dtypes = np.linalg.eigh, set()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: dtypes.add(a.dtype) or eigh(a))
        for M, N in BLOCK_SECTORS:
            edoracle._eigh_cached.cache_clear()
            edoracle._eigh_cached(M, N)
        assert dtypes == {np.dtype(np.float64)}

    def test_ferro_and_domain_wall_match_the_dense_reference(self, dense_eigh):
        for kind, M, N, n in oracle_grid():
            Ng = N if kind == "ferro" else N - n
            psi = dense_eigh(M, Ng)[1][:, 0]
            x = projector_empty_sites(M, N, n) * psi if kind == "ferro" else domain_wall_insertion(M, N, n) @ psi
            for beta in ORACLE_BETAS:
                want = dense_expectation(dense_eigh, M, N, beta, x)
                want /= dense_expectation(dense_eigh, M, Ng, beta, psi)
                got = oracle_correlator(kind, M, N, n, beta)
                assert abs(cmath.log(got / want)) <= 1e-12, (kind, M, N, n, beta, got, want)
                assert got.imag == 0.0, (kind, M, N, n, beta)

    def test_walker_matches_the_dense_reference(self, dense_eigh):
        rng = np.random.default_rng(18)
        for M, N in BLOCK_SECTORS:
            w, v = dense_eigh(M, N)
            configs = edoracle.sector_basis(M, N).configurations
            for i, j in rng.integers(len(configs), size=(3, 2)):
                for beta in ORACLE_BETAS:
                    want = (v[i] * np.exp(-beta * w)) @ v[j]
                    got = oracle_correlator("walker", M, N, beta=beta, endpoints=(configs[i], configs[j]))
                    assert abs(got - want) <= 1e-12 * abs(cmath.exp(-beta * w[0])), (M, N, i, j, beta)
                    assert got.imag == 0.0, (M, N, i, j, beta)

    def test_thermal_operator_is_the_dense_exponential(self, dense_eigh):
        for M, N in [(7, 3), (11, 6), (5, 3), (9, 0), (9, 10)]:
            w, v = dense_eigh(M, N)
            for beta in (2.5, 200.0):
                try:
                    scale = abs(cmath.exp(-beta * w[0]))
                except OverflowError:  # (11,6) at beta = 200: exp(-beta E0) = e^773
                    with pytest.raises(OverflowError):
                        thermal_operator(M, N, beta)
                    continue
                want = (v * np.exp(-beta * w)) @ v.T
                got = thermal_operator(M, N, beta)
                assert got.dtype == float and np.max(np.abs(got - want)) <= 1e-12 * scale, (M, N, beta)

    def test_cold_sector_beyond_the_grid(self):
        from xx0chain.xx0core import persistence_ferro

        edoracle._eigh_cached.cache_clear()
        edoracle._overlaps.cache_clear()
        got = oracle_correlator("ferro", 30, 3, 1, 2.0)
        assert abs(cmath.log(got / persistence_ferro(30, 3, 1, 2.0).value)) <= 1e-10

    def test_cold_oracle_forms_no_dense_matrix(self):
        # a dense H takes 162 MB at (30,3) and 200 MB at (4999,1); the blocks need far less
        for args, limit_mb in [
            (("ferro", 30, 3, 1, 2.0), 64),
            (("walker", 4999, 1, 0, 2.0, ((7,), (4990,))), 16),
        ]:
            edoracle.sector_basis.cache_clear()
            edoracle._eigh_cached.cache_clear()
            edoracle._overlaps.cache_clear()
            peak = self._traced_peak(args)
            assert peak < limit_mb * 2**20, (args, peak)
        # with both spectra warm, psi is scattered into the sector: a dense insertion map takes 16 MB
        args = ("domain_wall", 30, 3, 1, 2.0)
        oracle_correlator(*args)
        edoracle._overlaps.cache_clear()
        peak = self._traced_peak(args)
        assert peak < 4 * 2**20, (args, peak)

    def test_cold_silent_fault_sector_fits_in_real_blocks(self):
        # the 3003-state (14,10) sector: complex blocks and conjugate eigenvectors peaked at 24.5 MiB
        edoracle.sector_basis.cache_clear()
        edoracle._eigh_cached.cache_clear()
        edoracle._overlaps.cache_clear()
        args = ("ferro", 14, 10, 4, 14.951)
        peak = self._traced_peak(args)
        assert peak < 12 * 2**20, (args, peak)

    @staticmethod
    def _traced_peak(args):
        import tracemalloc

        tracemalloc.start()
        try:
            oracle_correlator(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestLargeBeta:
    def test_ferro_keeps_the_ground_state_term(self):
        # at beta = 800 every excited term is below e^-80: the value is (psi^T P psi)^2 / |psi|^4
        w, v = np.linalg.eigh(build_hamiltonian(7, 3))
        psi = v[:, 0]
        want = (psi @ (projector_empty_sites(7, 3, 2) * psi)) ** 2 / (psi @ psi) ** 2
        for beta in (200.0, 800.0, 1e6):
            got = oracle_correlator("ferro", 7, 3, 2, beta)
            assert abs(got - want) <= 1e-12 and got.imag == 0.0, beta
        assert want == pytest.approx(0.08973369299589, abs=1e-13)

    def test_values_beyond_double_range_raise(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in [
                ("domain_wall", 7, 3, 2, 800.0),
                ("ferro", 7, 3, 2, -800.0),
                ("walker", 7, 3, 0, 800.0, ((5, 3, 0), (6, 2, 1))),
                ("walker", 11, 3, 0, 300.0, ((9, 6, 2), (8, 5, 1))),
            ]:
                with pytest.raises(OverflowError):
                    oracle_correlator(*args)
            for beta in (800.0, -800.0):
                with pytest.raises(OverflowError):
                    thermal_operator(7, 3, beta)
            # within range, a large factor exp(-beta E0) times a small sum is finite
            got = oracle_correlator("walker", 11, 3, beta=100.0, endpoints=((9, 6, 2), (8, 5, 1)))
            assert cmath.isfinite(got) and got.imag == 0.0
