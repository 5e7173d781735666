import cmath
import math
import time
from fractions import Fraction
from itertools import combinations
from math import comb, pi, sqrt

import numpy as np
import pytest

from xx0chain import cli, edoracle, xx0core
from xx0chain.boxcount import a_cspp, macmahon
from xx0chain.errors import DegenerateInputError
from xx0chain.schur import binet_cauchy_bruteforce
from xx0chain.xx0core import (
    BetheState,
    ChainParams,
    amplitude_table,
    domain_wall_formfactor,
    efp_formfactor,
    energy,
    enumerate_bethe_states,
    ground_state,
    norm_squared,
    persistence_domain_wall,
    persistence_ferro,
    scalar_product,
    walker_amplitude,
    walker_amplitude_multi,
)
from xx0chain.xx0core import _gram_log_value, _log_det

from oracles import _mp_gram_log, _walk_count_amplitude


def bethe_points(state, sign=+1):
    return tuple(cmath.exp(sign * 0.5j * t) for t in state.roots)


class TestBetheStates:
    def test_chain_params_validation(self):
        with pytest.raises(ValueError):
            ChainParams(3, 5)
        assert ChainParams(3, 2).K == 2

    def test_ground_state_roots(self):
        gs = ground_state(3, 2)
        assert gs.roots == pytest.approx((pi / 4, -pi / 4))
        assert ground_state(4, 0).roots == ()
        assert ground_state(2, 3).quantum_numbers == (2, 1, 0)

    def test_quantum_number_validation(self):
        with pytest.raises(ValueError):
            BetheState(3, 2, (1, 1))
        with pytest.raises(ValueError):
            BetheState(3, 2, (4, 0))

    def test_quantization_condition(self):
        # exp(i(M+1)theta) = (-1)^(N-1), to near machine precision
        for M in range(1, 13):
            for N in (1, 2, 3):
                if N > M + 1:
                    continue
                for state in enumerate_bethe_states(M, N):
                    for t in state.roots:
                        want = -1.0 if N % 2 == 0 else 1.0
                        assert abs(cmath.exp(1j * (M + 1) * t) - want) < 1e-12

    def test_state_counts(self):
        assert sum(1 for _ in enumerate_bethe_states(2, 1)) == 3
        assert sum(1 for _ in enumerate_bethe_states(4, 2)) == 10
        assert sum(1 for _ in enumerate_bethe_states(9, 3)) == 120

    def test_energy_examples(self):
        assert energy(ground_state(3, 2)) == pytest.approx(-sqrt(2))
        assert energy(ground_state(5, 0)) == 0.0

    def test_ground_energy_closed_form(self):
        for M in range(2, 10):
            for N in range(1, M + 2):
                want = -math.sin(pi * N / (M + 1)) / math.sin(pi / (M + 1))
                assert energy(ground_state(M, N)) == pytest.approx(want, abs=1e-12)

    def test_ground_state_is_minimum(self):
        for M, N in [(5, 2), (6, 3), (7, 2)]:
            energies = [energy(s) for s in enumerate_bethe_states(M, N)]
            assert min(energies) == pytest.approx(energy(ground_state(M, N)), abs=1e-12)


class TestNormsAndOverlaps:
    def test_norm_single_particle(self):
        for M in (1, 3, 6):
            assert norm_squared(ground_state(M, 1)) == pytest.approx(M + 1)

    def test_norm_frozen(self):
        assert norm_squared(ground_state(3, 2)) == pytest.approx(8.0)

    def test_norm_matches_schur_sum(self):
        # brute-force sum of |S(exp(i theta))|^2 over the admissible box
        for M in range(2, 7):
            for N in (1, 2):
                for state in enumerate_bethe_states(M, N):
                    x = tuple(cmath.exp(1j * t) for t in state.roots)
                    y = tuple(cmath.exp(-1j * t) for t in state.roots)
                    val = binet_cauchy_bruteforce(M + 1 - N, 0, y, x)
                    assert abs(val - norm_squared(state)) <= 1e-9 * norm_squared(state)

    def test_scalar_product_diagonal_is_norm(self):
        for M in (4, 7):
            for N in (1, 2, 3):
                for state in enumerate_bethe_states(M, N):
                    u = bethe_points(state)
                    got = scalar_product(u, u, M)
                    assert abs(got - norm_squared(state)) <= 1e-9 * norm_squared(state)

    def test_orthogonality(self):
        for M in range(2, 8):
            for N in (1, 2, 3):
                if N > M + 1:
                    continue
                states = list(enumerate_bethe_states(M, N))
                for i, si in enumerate(states):
                    for sj in states[i + 1:]:
                        sp = scalar_product(bethe_points(si), bethe_points(sj), M)
                        bound = 1e-9 * sqrt(norm_squared(si) * norm_squared(sj))
                        assert abs(sp) <= bound

    def test_scalar_product_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            scalar_product((1.0, 1.0), (0.5, 0.7), 5)
        with pytest.raises(DegenerateInputError):
            domain_wall_formfactor((0.5, 0.7, 0.9), (1.0, -1.0), 1, 5)

    def test_domain_wall_beyond_capacity_rejected(self):
        # N > M+1: the ring cannot hold N down spins, and no box is left to sum over
        with pytest.raises(ValueError, match=r"need 0 <= N <= M\+1"):
            domain_wall_formfactor((1.1, 1.2j, 0.9, -1.05), (0.8, 1.3), 2, 2)

    def test_scalar_product_beyond_capacity_is_zero(self):
        # N > M+1: the kernel matrix has rank at most M+1; coincident points still fail
        assert scalar_product((0.9, 1.1, 1.3), (0.5, 0.7, 0.8), 1) == 0
        with pytest.raises(DegenerateInputError):
            scalar_product((0.9, 1.1, 1.3), (0.5, 0.5, 0.8), 1)


class TestEmptinessFormation:
    def test_n_zero(self):
        assert efp_formfactor(ground_state(5, 2), 0) == pytest.approx(1.0)

    def test_frozen_single_particle(self):
        assert efp_formfactor(ground_state(3, 1), 1) == pytest.approx(0.75)

    def test_probability_range(self):
        for M in (4, 6, 8):
            for N in (1, 2, 3):
                gs = ground_state(M, N)
                for n in range(M + 2):
                    p = efp_formfactor(gs, n)
                    assert -1e-12 <= p <= 1.0 + 1e-12

    def test_monotone_in_n(self):
        gs = ground_state(7, 2)
        vals = [efp_formfactor(gs, n) for n in range(8)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(7))


class TestDomainWallFormFactor:
    def test_reduces_to_scalar_product(self):
        # scalar_product is the n = 0 form factor, bit for bit
        rng = np.random.default_rng(2)
        for _ in range(50):
            M = int(rng.integers(0, 8))
            N = int(rng.integers(0, M + 2))
            v = tuple(rng.uniform(0.6, 1.4, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
            u = tuple(rng.uniform(0.6, 1.4, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
            assert scalar_product(v, u, M) == domain_wall_formfactor(v, u, 0, M), (M, N)

    def test_matches_padded_schur_sum(self):
        from xx0chain.schur import padded_schur_sum_bruteforce

        rng = np.random.default_rng(4)
        for M in (4, 6):
            for N in (2, 3):
                for n in range(N + 1):
                    v = tuple(rng.uniform(0.6, 1.4, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
                    u = tuple(
                        rng.uniform(0.6, 1.4, N - n) * np.exp(2j * np.pi * rng.uniform(0, 1, N - n))
                    )
                    ff = domain_wall_formfactor(v, u, n, M)
                    pref = np.prod([x ** (2 * n) for x in u]) if len(u) else 1.0
                    want = pref * padded_schur_sum_bruteforce(M + 1 - N, n, v, u)
                    assert abs(ff - want) <= 1e-9 * max(1.0, abs(want)), (M, N, n)


class TestMirroredBlockSum:
    def test_mirrored_identity(self):
        # swapping the roles of the two parameter families pads the other
        # side of the sum; the matrix acquires monomial COLUMNS instead of
        # rows.  Convention: row k carries the variable u_k^2 in every
        # column; kernel column j carries v_j^-2, monomial column j carries
        # the power N-j (so n-1, ..., 0 across the monomial block).  By
        # Cauchy-Binet the kernel columns then take exponents >= n, which
        # the prefactor prod v^(2n) cancels, and the kernel exponent M+1
        # bounds lambda_1 <= K.  Checked against the brute-force Schur sum
        # and against domain_wall_formfactor(1/u, 1/v), whose matrix is the
        # transpose of this one.
        from xx0chain.combinat import enumerate_partitions_in_box
        from xx0chain.schur import kernel_entry, schur_jacobi_trudi, vandermonde

        rng = np.random.default_rng(41)
        for M, N, n in [(5, 2, 1), (6, 3, 1), (6, 3, 2)]:
            K = M + 1 - N
            v = tuple(rng.uniform(0.6, 1.4, N - n) * np.exp(2j * np.pi * rng.uniform(0, 1, N - n)))
            u = tuple(rng.uniform(0.6, 1.4, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N)))
            vm2 = tuple(x ** (-2) for x in v)
            u2 = tuple(x * x for x in u)
            brute = 0.0 + 0.0j
            for mu in enumerate_partitions_in_box(K, N - n):
                lam = tuple(mu) + (0,) * (N - n - len(mu))
                brute += schur_jacobi_trudi(lam, vm2) * schur_jacobi_trudi(lam + (0,) * n, u2)
            rows = []
            for k in range(1, N + 1):
                row = [kernel_entry(u2[k - 1] * vm2[j - 1], M + 1) for j in range(1, N - n + 1)]
                row += [u2[k - 1] ** (N - j) for j in range(N - n + 1, N + 1)]
                rows.append(row)
            det = np.linalg.det(np.array(rows, dtype=complex))
            pref = np.prod([x**2 for x in v]) ** n
            want = pref * det / (vandermonde(vm2) * vandermonde(u2))
            assert abs(brute - want) <= 1e-9 * max(1.0, abs(want)), (M, N, n)
            lib = pref * domain_wall_formfactor(
                tuple(1 / x for x in u), tuple(1 / x for x in v), n, M
            )
            assert abs(brute - lib) <= 1e-9 * max(1.0, abs(lib)), (M, N, n)


class TestWalkers:
    @pytest.mark.parametrize(
        "M, mu, nu, beta",
        [(7, (5, 3), (4, 1), 2), (100, (50, 3), (48, 0), 4), (1000, (5, 3, 1), (4, 2, 0), 1), (1000, (6, 3, 1), (4, 2, 0), 2)],
    )
    def test_multi_matches_exact_walk_counts(self, M, mu, nu, beta):
        # beyond the ED oracle's sector budget, which stops three walkers at M = 31 and two at M = 99
        start = time.perf_counter()
        want = _walk_count_amplitude(mu, nu, beta, M)
        assert time.perf_counter() - start < 2.0
        assert abs(cmath.log(walker_amplitude_multi(mu, nu, beta, M)) - math.log(want)) <= 1e-12

    def test_beta_zero_is_identity(self):
        for M in (2, 3, 5):
            for k in range(M + 1):
                for l in range(M + 1):
                    want = 1.0 if k == l else 0.0
                    assert walker_amplitude(k, l, 0.0, M) == pytest.approx(want, abs=1e-12)

    def test_frozen_three_site_return(self):
        for beta in (0.5, 1.0, 2.0):
            want = (math.exp(beta) + 2 * math.exp(-beta / 2)) / 3
            assert walker_amplitude(0, 0, beta, 2) == pytest.approx(want)
            assert walker_amplitude(2, 2, beta, 2) == pytest.approx(want)

    def test_translation_invariance(self):
        M, beta = 5, 0.8
        base = walker_amplitude(1, 0, beta, M)
        for s in range(M):
            assert walker_amplitude((1 + s) % (M + 1), s, beta, M) == pytest.approx(base)

    def test_multi_beta_zero_tuple_delta(self):
        assert walker_amplitude_multi((3, 1), (3, 1), 0.0, 5) == pytest.approx(1.0)
        assert walker_amplitude_multi((3, 1), (4, 1), 0.0, 5) == pytest.approx(0.0, abs=1e-12)

    def test_multi_single_walker_consistency(self):
        for M in (3, 4):
            for k in range(M + 1):
                for l in range(M + 1):
                    a = walker_amplitude_multi((k,), (l,), 0.9, M)
                    b = walker_amplitude(k, l, 0.9, M)
                    assert a == pytest.approx(b)

    def test_cache_holds_one_toeplitz_row(self):
        # entry [k, l] depends only on k - l, so the cache keeps the 2M+1 values f[k - l + M]
        for M, beta in [(0, 0.5), (6, 0.7), (9, 2)]:
            for n_particles in (1, 2):
                F = amplitude_table(M, beta, n_particles)
                f = xx0core._amplitude_table_cached(M, float(beta), n_particles % 2 == 0)
                assert f.shape == (2 * M + 1,) and not f.flags.writeable and not F.flags.writeable
                for k in range(M + 1):
                    for l in range(M + 1):
                        assert F[k, l] == f[k - l + M]
            F = amplitude_table(M, beta, 1)
            assert all(walker_amplitude(k, l, beta, M) == F[k, l] for k in range(M + 1) for l in range(M + 1))
        for M, beta in [(6, 0.7), (9, 2)]:
            for mu_left, mu_right in [((M,), (0,)), ((M, 0), (M - 1, 0)), ((M, M - 2, 1), (M - 1, 3, 2))]:
                F = amplitude_table(M, beta, len(mu_left))
                want = complex(np.linalg.det(F[np.ix_(mu_left, mu_right)]))
                assert walker_amplitude_multi(mu_left, mu_right, beta, M) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "mu, nu, M, finite_beta, beta", [((5, 3), (4, 1), 7, 350, 700), ((9, 6, 2), (8, 5, 1), 11, 250, 300)]
    )
    def test_multi_overflow_raises(self, mu, nu, M, finite_beta, beta):
        # numpy's det gives inf+nanj or -inf-infj here, with an overflow warning
        F = amplitude_table(M, finite_beta, len(mu))
        want = complex(np.linalg.det(F[np.ix_(mu, nu)]))
        assert walker_amplitude_multi(mu, nu, finite_beta, M) == want and abs(want) > 1e270
        with pytest.raises(OverflowError, match="double range"):
            walker_amplitude_multi(mu, nu, beta, M)

    def test_single_overflow_raises(self):
        # exp(beta) overflows at beta = 800: the table holds NaN, with no numpy warning (an error in this
        # test run), and the single walker refuses it as the multi-walker determinant does
        xx0core._amplitude_table_cached.cache_clear()
        assert np.isnan(amplitude_table(7, 800.0)).all()
        with pytest.raises(OverflowError, match="double range"):
            walker_amplitude(1, 4, 800.0, 7)

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            walker_amplitude_multi((1, 2), (2, 1), 1.0, 4)
        with pytest.raises(ValueError):
            walker_amplitude(0, 9, 1.0, 4)


class TestPersistenceBasics:
    def test_identity_at_n_zero(self):
        for method in ("determinant", "spectral_sum"):
            assert persistence_ferro(6, 2, 0, 1.3, method=method).value == 1.0
            assert persistence_domain_wall(6, 2, 0, 1.3, method=method).value == 1.0

    def test_result_log_abs_of_zero_nan_inf_and_finite_values(self):
        def log_abs(value):
            return xx0core.CorrelatorResult(value, "determinant", ()).log_abs

        assert log_abs(0j) == -math.inf
        assert math.isnan(log_abs(complex(math.nan, 0)))  # not an exact zero
        assert log_abs(complex(math.inf, 0)) == math.inf
        assert log_abs(complex(-3.0, 4.0)) == math.log(5.0)

    def test_raw_determinant_path_is_one_at_n_zero(self):
        # without the contract shortcut, the determinant still collapses to 1
        for M, N in [(4, 1), (5, 2), (6, 3), (7, 2)]:
            for beta in (0.0, 1.0):
                for kind in ("ferro", "domain_wall"):
                    log_value, _ = _gram_log_value(kind, M, N, 0, beta)
                    assert abs(cmath.exp(log_value) - 1.0) <= 1e-12

    def test_ferro_beta_zero_is_efp(self):
        # two library paths to one value: the Gram determinant at beta = 0 and the sine-kernel form factor;
        # the correlators refuse the one-site ring
        for M in range(1, 16):
            for N in range(M + 2):
                gs = ground_state(M, N)
                for n in range(M + 2):
                    got = persistence_ferro(M, N, n, 0.0).value
                    assert abs(got - efp_formfactor(gs, n)) <= 1e-12, (M, N, n)

    @pytest.mark.parametrize("M, N, n", [(7, 2, 2), (9, 3, 3), (11, 3, 2), (12, 4, 3), (15, 4, 5), (10, 2, 0)])
    def test_beta_zero_is_the_q_weighted_count(self, M, N, n):
        # the paper's beta = 0 identity: F(q) counts column-strict arrays at q = 1 and, times the
        # ground state's Vandermonde, is the emptiness probability at q = exp(2 pi i/(M+1))
        F1 = _q_weighted_sum(M, N, n, lambda k: Fraction(k) ** 2)
        assert F1 == macmahon(N, N, M + 1 - n - N) == a_cspp(N, M - n)
        roots = [cmath.exp(2j * pi * a / (M + 1)) for a in range(M + 1)]
        F = _q_weighted_sum(M, N, n, lambda k: abs(sum(roots[:k])) ** 2)
        pairs = combinations(range(N), 2)
        vandermonde2 = math.prod(4 * math.sin(pi * (j - i) / (M + 1)) ** 2 for i, j in pairs)
        want = persistence_ferro(M, N, n, 0).value
        assert abs(F * vandermonde2 / (M + 1) ** N - want) <= 1e-13 * abs(want)

    def test_domain_wall_full_insertion_is_walker_block(self):
        # n = N: the block matrix degenerates to the pure walker determinant
        for M, N in [(4, 2), (6, 3)]:
            beta = 0.7
            stair = tuple(range(N - 1, -1, -1))
            got = persistence_domain_wall(M, N, N, beta).value
            want = walker_amplitude_multi(stair, stair, beta, M)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_methods_agree(self):
        for M, N, n, beta in [(7, 2, 2, 1.0), (6, 3, 1, 0.5), (8, 2, 1, 2.0)]:
            a = persistence_ferro(M, N, n, beta).value
            b = persistence_ferro(M, N, n, beta, method="spectral_sum").value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
            c = persistence_domain_wall(M, N, n, beta).value
            d = persistence_domain_wall(M, N, n, beta, method="spectral_sum").value
            assert abs(c - d) <= 1e-10 * max(1.0, abs(c))

    def test_values_real(self):
        for beta in (0.0, 0.5, 2.0):
            r = persistence_ferro(7, 3, 2, beta)
            assert abs(r.value.imag) <= 1e-9 * max(1.0, abs(r.value.real))
            assert not r.warnings
            r = persistence_domain_wall(7, 3, 2, beta)
            assert abs(r.value.imag) <= 1e-9 * max(1.0, abs(r.value.real))

    # every public entry point that takes beta, at the early returns too: n = 0, N = 0, no walkers
    BETA_ENTRY_POINTS = {
        "ferro": lambda beta: persistence_ferro(5, 2, 1, beta).value,
        "ferro-spectral": lambda beta: persistence_ferro(5, 2, 1, beta, method="spectral_sum").value,
        "ferro-n0": lambda beta: persistence_ferro(5, 2, 0, beta).value,
        "ferro-N0": lambda beta: persistence_ferro(5, 0, 1, beta, method="spectral_sum").value,
        "domain-wall": lambda beta: persistence_domain_wall(5, 2, 1, beta).value,
        "domain-wall-spectral": lambda beta: persistence_domain_wall(5, 2, 1, beta, method="spectral_sum").value,
        "domain-wall-n0": lambda beta: persistence_domain_wall(5, 2, 0, beta).value,
        "domain-wall-N0": lambda beta: persistence_domain_wall(5, 0, 0, beta).value,
        "amplitude-table": lambda beta: amplitude_table(5, beta, 2).tobytes(),
        "walker": lambda beta: walker_amplitude(1, 4, beta, 5),
        "walkers": lambda beta: walker_amplitude_multi((4, 1), (3, 0), beta, 5),
        "no-walkers": lambda beta: walker_amplitude_multi((), (), beta, 5),
        "oracle-ferro": lambda beta: edoracle.oracle_correlator("ferro", 5, 2, 1, beta),
        "oracle-domain-wall": lambda beta: edoracle.oracle_correlator("domain_wall", 5, 2, 0, beta),
        "oracle-walker": lambda beta: edoracle.oracle_correlator("walker", 5, 2, 0, beta, ((4, 1), (3, 0))),
        "thermal-operator": lambda beta: edoracle.thermal_operator(5, 2, beta).tobytes(),
    }

    @pytest.mark.parametrize("entry", BETA_ENTRY_POINTS)
    def test_beta_must_be_real(self, entry):
        call = self.BETA_ENTRY_POINTS[entry]
        for beta in (0.5 + 0.3j, 1j, np.complex128(2.0 - 1e-300j)):
            with pytest.raises(ValueError, match="beta must be real"):
                call(beta)
        # a zero imaginary part is real: the same bits as the float
        assert repr(call(complex(1.5))) == repr(call(1.5))
        assert repr(call(np.complex128(2))) == repr(call(2.0))

    @pytest.mark.parametrize("entry", BETA_ENTRY_POINTS)
    def test_beta_must_be_finite(self, entry):
        # a non-finite beta once gave a NaN value, an overflow or numpy warnings, by entry point
        for beta in (math.inf, -math.inf, math.nan, complex(math.inf), np.float64(math.nan)):
            with pytest.raises(ValueError, match="beta must be finite"):
                self.BETA_ENTRY_POINTS[entry](beta)

    def test_result_metadata(self):
        r = persistence_ferro(5, 2, 1, 1.0)
        assert r.method == "determinant"
        assert r.params == (5, 2, 1, 1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            persistence_ferro(5, 2, 1, 1.0, method="guess")

    def test_spectral_budget_override(self):
        from xx0chain.errors import EnumerationBudgetError

        with pytest.raises(EnumerationBudgetError):
            persistence_ferro(8, 3, 1, 1.0, method="spectral_sum", max_states=10)
        with pytest.raises(EnumerationBudgetError):
            persistence_domain_wall(8, 3, 1, 1.0, method="spectral_sum", max_states=10)

    def test_state_enumeration_budget(self):
        from xx0chain.errors import EnumerationBudgetError

        with pytest.raises(EnumerationBudgetError):
            list(enumerate_bethe_states(8, 3, max_states=10))


def _q_weighted_sum(M, N, n, bracket2):
    """F(q), the sum over the N-subsets sigma of {n..M} of prod_{i<j} |[sigma_j - sigma_i]_q|^2 / |[j - i]_q|^2.

    bracket2(k) is |[k]_q|^2, [k]_q = 1 + q + ... + q^(k-1); brute force, term by term.
    """
    total = 0
    for sigma in combinations(range(n, M + 1), N):
        term = 1
        for i, j in combinations(range(N), 2):
            term = term * bracket2(sigma[j] - sigma[i]) / bracket2(j - i)
        total += term
    return total


def _table_contraction(kind, M, N, n, beta):
    """The correlator from the (M+1) x (M+1) walker table, contracted in linear space.

    ferro: exp(beta E_gs) det(U F[n:, n:]^T U^H) / (M+1)^N with
    U[a, k] = exp(i k theta_a) over sites n..M.  domain wall: the N x N
    block matrix of a kernel block U F^T U^H on the (N-n)-particle ground
    state, the strips U F[n-j, :] and U* F[:, n-i] and the walker block
    F[n-i, n-j], times exp(beta E_gs) / (M+1)^(N-n).
    """
    Ng = N if kind == "ferro" else N - n
    gs = ground_state(M, Ng)
    F = amplitude_table(M, beta, N)
    if kind == "ferro":
        U = np.exp(1j * np.outer(gs.roots, np.arange(n, M + 1)))
        G = U @ F[n:, n:].T @ U.conj().T
    else:
        U = np.exp(1j * np.outer(gs.roots, np.arange(M + 1)))
        s = [n - i for i in range(1, n + 1)]
        G = np.block([[U @ F.T @ U.conj().T, U @ F[s, :].T], [(U.conj() @ F[:, s]).T, F[np.ix_(s, s)]]])
    return math.exp(beta * energy(gs)) * np.linalg.det(G) / (M + 1) ** Ng


def _folded_gram(F, nx, Ng, N, w):
    """G' from the folded halves X = F[:nx], Y = F[nx:] and the window's weights w.

    Rows: X's hx site rows, Y's Ng - hx site rows, then the border rows, whose
    block is the sum of both halves' products.
    """
    hx = (Ng + 1) // 2
    x_at = np.r_[np.arange(hx), np.arange(Ng, N)]
    y_at = np.arange(hx, N)
    G = np.zeros((N, N))
    for rows, at in ((F[:nx], x_at), (F[nx:], y_at)):
        G[np.ix_(at, at)] += (rows * w) @ rows.T
    return G


def _mirror(kind, M, N, n):
    """(J, sigma, Pi): column J[j] = (N-1-j) mod (M+1) is j's mirror, and C[:, J] sigma = Pi conj(C)."""
    Ng, lo = (N, n) if kind == "ferro" else (N - n, 0)
    j = np.arange(M + 1)
    sigma = np.where(j <= N - 1, 1.0, (-1.0) ** (M - lo))  # J wraps round the grid from j = N on
    Pi = np.zeros((N, N))
    Pi[np.arange(Ng), np.arange(Ng)[::-1]] = 1.0  # reverse the site rows
    Pi[np.arange(Ng, N), np.arange(Ng, N)] = (-1.0) ** np.arange(N - Ng)  # border row r times (-1)^r
    return (N - 1 - j) % (M + 1), sigma, Pi


def _valid_chains(M_max):
    for M in range(M_max + 1):
        for N in range(1, M + 2):
            for n in range(1, M + 2 - N):
                yield "ferro", M, N, n
            for n in range(1, N + 1):
                yield "domain_wall", M, N, n


class TestFold:
    """The reflection phi -> -phi folds C W C^H into two real half-width products."""

    def test_mirror_identity(self):
        for kind, M, N, n in _valid_chains(15):
            C, cos_phi = xx0core._unfolded_rows(kind, M, N, n)
            J, sigma, Pi = _mirror(kind, M, N, n)
            assert np.max(np.abs(cos_phi[J] - cos_phi)) <= 1e-14, (kind, M, N, n)  # phi near 2 pi rounds pi
            err = np.max(np.abs(C[:, J] * sigma - Pi @ C.conj()))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(C))), (kind, M, N, n)

    def test_folded_gram_is_the_unfolded_gram(self, monkeypatch):
        # every chain with M <= 12, so f = 0, 1 and 2 self-mirrored columns and both parities
        # of Ng occur.  G' = T G T^H / (M+1)^2 for the unitary T of _site_matrix's row change:
        # (e_s + e_s')/2^.5, the middle e_p, i(e_s - e_s')/2^.5, s' = Ng-1-s, and (-i)^(r mod 2)
        # on border row r.  Entry by entry, on the scale of its diagonal; the log-determinants
        # agree within 1e-12 wherever both pivot ratios are <= 100 (1313 of the 2457 values),
        # beyond which double-precision Cholesky on either side loses more than that
        reach = []
        real_dirichlet = xx0core._dirichlet

        def dirichlet(M, lo, d):
            reach.append(np.max(np.abs(d)) / (2 * (M + 1)))
            return real_dirichlet(M, lo, d)

        monkeypatch.setattr(xx0core, "_dirichlet", dirichlet)
        compared, occurring = set(), set()
        for kind, M, N, n in _valid_chains(12):
            xx0core._site_matrix.cache_clear()
            F, nx, cos_w, Ng, _ = xx0core._site_matrix(kind, M, N, n)
            C, cos_phi = xx0core._unfolded_rows(kind, M, N, n)
            p, hx = Ng // 2, (Ng + 1) // 2
            T = np.zeros((N, N), dtype=complex)
            for s in range(p):
                T[s, [s, Ng - 1 - s]] = sqrt(0.5), sqrt(0.5)
                T[hx + s, [s, Ng - 1 - s]] = 1j * sqrt(0.5), -1j * sqrt(0.5)
            T[p:hx, p:hx] = np.eye(hx - p)
            T[Ng:, Ng:] = np.diag((-1j) ** (np.arange(N - Ng) % 2))
            TC = T @ C / (M + 1)
            case = (kind, (M + N + 1) % 2 + N % 2, Ng % 2)  # f self-mirrored columns, Ng's parity
            occurring.add(case)
            for beta in (0.0, 1.0, 10.0):
                shift = beta * cos_phi.max()
                G = _folded_gram(F, nx, Ng, N, np.exp(beta * cos_w - shift))
                want = (TC * np.exp(beta * cos_phi - shift)) @ TC.conj().T
                scale = np.sqrt(np.outer(np.diagonal(G), np.diagonal(G)))
                assert np.all(np.abs(G - want) <= 1e-13 * scale), (kind, M, N, n, beta)
                got, ratio = _gram_log_value(kind, M, N, n, beta)
                L = np.linalg.cholesky(want)
                diag2 = np.abs(np.diagonal(L)) ** 2
                if max(ratio, np.max(diag2) / np.min(diag2)) <= 1e2:
                    unfolded = float(np.sum(np.log(diag2))) + N * shift + beta * xx0core._ground_energy(M, Ng)
                    unfolded += (N - Ng) * math.log(M + 1)
                    assert abs(got - unfolded) <= 1e-12, (kind, M, N, n, beta)
                    compared.add(case)
        assert max(reach) < 1
        assert compared == occurring and len(occurring) == 10  # ferro's Ng = N has N's parity, which fixes f's


class TestGramDriver:
    def test_matches_table_contraction(self):
        # Random chains with M <= 40, N <= 8 and n <= 3.  Ferro n stays at
        # most half the empty sites: as n approaches M+1-N the correlator
        # becomes tiny and both evaluations lose digits to cancellation, a
        # precision limit rather than a disagreement between the formulas.
        rng = np.random.default_rng(2024)
        cases = []
        for i in range(60):
            kind = ("ferro", "domain_wall")[i % 2]
            M = int(rng.integers(3, 41))
            N = int(rng.integers(1, min(8, M - 1) + 1))
            n_max = min(3, (M + 1 - N) // 2) if kind == "ferro" else min(3, N)
            cases.append((kind, M, N, int(rng.integers(1, n_max + 1)), float(rng.uniform(0.0, 8.0))))
        cases += [("ferro", 9, 3, 2, 2.0), ("domain_wall", 9, 4, 2, 2.0)]
        for kind, M, N, n, beta in cases:
            log_value, ratio = _gram_log_value(kind, M, N, n, beta)
            want = _table_contraction(kind, M, N, n, beta)
            assert abs(cmath.exp(log_value) - want) <= 1e-9 * abs(want), (kind, M, N, n, beta)
            assert ratio <= xx0core.PIVOT_RATIO_WARNING

    def test_matches_extended_precision_gram(self):
        # 40-digit Gram values; the domain wall at n = 1 has odd differences
        # 2m_a - 2m_j.  At (200,16,5,20) the plane-wave rows are nearly
        # dependent where the weight sits: a Gram of them is 1e-10 off
        cases = (("domain_wall", 400, 10, 1, 0.5), ("ferro", 400, 10, 3, 0.5), ("domain_wall", 200, 16, 5, 20.0))
        for kind, M, N, n, beta in cases:
            log_value, _ = _gram_log_value(kind, M, N, n, beta)
            assert abs(log_value.real - _mp_gram_log(kind, M, N, n, beta)) <= 1e-13, (kind, M, N, n, beta)

    def test_border_rows_span_the_plane_waves(self):
        # B' is real, and B' times the folded border rows x_r + i y_r gives the plane waves
        # exp(-ir phi), r = n-1..0, with the column phase exp(iM phi/2), over the window's
        # columns (scaled by 2^.5 / (M+1) where a column stands for two)
        for M, N in ((7, 6), (8, 6), (40, 12), (41, 13)):
            for n in range(1, N + 1):
                F, nx, cos_phi, Ng, _ = xx0core._site_matrix("domain_wall", M, N, n)
                B = xx0core._plane_waves(n)
                assert B.dtype == float and abs(abs(np.linalg.det(B)) - 1) <= 1e-12, n
                X, Y, hx, p = F[:nx], F[nx:], (Ng + 1) // 2, Ng // 2
                tm = np.arange((N - 1) % 2, M + 2, 2)
                scale = np.where((tm == 0) | (tm == M + 1), 1.0, sqrt(2)) / (M + 1)
                want = np.exp(1j * np.multiply.outer(M / 2 - np.arange(n - 1, -1, -1), pi * tm / (M + 1)))
                assert np.max(np.abs(B @ (X[hx:] + 1j * Y[p:]) / scale - want)) <= 1e-12, (M, N, n)

    def test_estimate_is_the_plane_wave_grams(self):
        # the conditioning estimate is the pivot ratio of the folded Gram G' = X W X^T (+) Y W Y^T,
        # its last n pivots those of the real plane-wave border B'
        for M, N, n, beta in ((200, 16, 5, 20.0), (400, 10, 6, 30.0), (60, 6, 3, 8.0), (61, 7, 2, 3.0)):
            F, nx, cos_phi, Ng, _ = xx0core._site_matrix("domain_wall", M, N, n)
            G = _folded_gram(F, nx, Ng, N, np.exp(beta * (cos_phi - cos_phi.max())))
            L = np.linalg.cholesky(G)
            diag2 = np.diagonal(L) ** 2
            BL = xx0core._plane_waves(n) @ L[Ng:, Ng:]
            diag2[Ng:] = np.diagonal(np.linalg.cholesky(BL @ BL.T)) ** 2
            _, ratio = _gram_log_value("domain_wall", M, N, n, beta)
            assert ratio == pytest.approx(np.max(diag2) / np.min(diag2), rel=1e-5), (M, N, n, beta)

    def test_dirichlet_table_is_the_site_sum(self):
        # every difference |d| < 2(M+1) of both parities, on even and odd M;
        # the phases of both sides are reduced in integers before exp
        for M in (1, 2, 7, 10, 63, 200):
            h = 2 * (M + 1)
            d = np.arange(1 - h, h)
            for lo in sorted({0, 1, M // 2, M}):
                table = xx0core._dirichlet(M, lo, d)
                assert table[d == 0] == M + 1 - lo
                got = table * np.exp(1j * pi * ((lo + M) * d % (2 * h)) / h)
                sd = np.multiply.outer(d, np.arange(lo, M + 1)) % h
                want = np.exp(1j * pi * sd / (M + 1)).sum(axis=1)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (M, lo)

    def test_results_carry_the_log_value(self):
        for fn, kind in ((persistence_ferro, "ferro"), (persistence_domain_wall, "domain_wall")):
            res = fn(20, 5, 2, 3.0)
            log_value, _ = _gram_log_value(kind, 20, 5, 2, 3.0)
            assert res.log_abs == log_value.real
            assert res.value == pytest.approx(cmath.exp(log_value), rel=1e-15)
            assert res.value.imag == 0.0 and not res.warnings
            spectral = fn(8, 3, 2, 1.0, method="spectral_sum")
            assert spectral.log_abs == math.log(abs(spectral.value))

    def test_no_room_is_exact_zero(self):
        # n > M+1-N: n empty sites do not fit next to N down spins
        res = persistence_ferro(6, 5, 3, 1.0)
        assert res.value == 0 and res.log_abs == -math.inf and not res.warnings
        assert persistence_ferro(6, 5, 3, 1.0, method="spectral_sum").value == 0

    def test_overflow_cases_are_finite(self):
        # (M+1)^N and exp(beta*N) overflow in linear space, never in log space
        got = persistence_ferro(60, 20, 3, 40.0)
        assert cmath.isfinite(got.value) and not got.warnings
        assert got.log_abs == pytest.approx(_mp_gram_log("ferro", 60, 20, 3, 40.0), abs=1e-7)
        got = persistence_ferro(1000, 100, 3, 1.0)
        assert not got.warnings and got.value.real == pytest.approx(0.63862107549, rel=1e-10)
        got = persistence_domain_wall(1000, 100, 3, 1.0)
        assert not got.warnings and got.value.real == pytest.approx(0.79522965, rel=1e-8)
        # ill-conditioned: Cholesky fails, the sorted QR of the Gram factor
        # gives the benchmark's reference value, and the warning stays
        got = persistence_ferro(24, 20, 1, 40.0)
        assert abs(got.log_abs - math.log(0.0400181572392)) <= 1e-10
        assert any("ill-conditioned" in w for w in got.warnings)

    # Cholesky fails on each, or for ferro (16,10,6) the gate sends its estimate 6e14 to the QR;
    # the spectral path is exact there
    QR_CASES = [
        ("ferro", 16, 10, 6, 34.523),
        ("ferro", 32, 30, 3, 34.652),
        ("domain_wall", 13, 13, 5, 34.843),
        ("domain_wall", 38, 37, 23, 7.608),
    ]

    @pytest.mark.parametrize("kind, M, N, n, beta", QR_CASES)
    def test_qr_stands_in_where_cholesky_fails(self, kind, M, N, n, beta):
        assert math.isnan(_gram_log_value(kind, M, N, n, beta)[1])
        fn = persistence_ferro if kind == "ferro" else persistence_domain_wall
        got = fn(M, N, n, beta)
        want = fn(M, N, n, beta, method="spectral_sum")
        assert abs(got.log_abs - want.log_abs) <= 1e-9
        assert got.value.imag == 0.0
        assert got.warnings == ("ill-conditioned determinant (conditioning estimate nan)",)

    def test_underflowing_weights_warn_quietly(self):
        # half the weights underflow at beta = 2000, so R's diagonal holds exact
        # zeros: the value is beyond double precision, but it is warned, and
        # no numpy RuntimeWarning escapes (the test run turns those into errors)
        for fn, N in ((persistence_ferro, 10), (persistence_domain_wall, 8)):
            got = fn(12, N, 1, 2000.0)
            assert any("ill-conditioned" in w for w in got.warnings)

    def test_ferro_above_one_warns(self):
        # <psi|P exp(-beta(H - E0)) P|psi> / <psi|psi> <= 1 since H - E0 >= 0; at beta = 800
        # the weights leave double range and the QR gives 2.60 (log 0.956, spectral sum -2.933)
        got = persistence_ferro(12, 10, 1, 800.0)
        assert got.log_abs <= 1e-12 or f"ferro correlator exceeds 1 (log {got.log_abs:.3g})" in got.warnings

    def test_ferro_within_one_is_not_warned(self):
        for M in range(1, 11):
            for N in range(1, M + 2):
                for n in range(1, M + 2 - N):
                    for beta in (0.0, 0.5, 5.0):
                        got = persistence_ferro(M, N, n, beta)
                        assert got.log_abs <= 1e-12 and not got.warnings, (M, N, n, beta)

    SILENT_FAULTS = [(14, 10, 4, 14.951), (16, 14, 3, 10.99)]  # ferro, within the ED budget

    @pytest.mark.parametrize("M, N, n, beta", SILENT_FAULTS)
    def test_silent_faults_are_accurate_or_warn(self, M, N, n, beta):
        # folded estimates 2.3e11 and 2.9e11 exceed PIVOT_RATIO_WARNING, so the QR recomputes both
        got = persistence_ferro(M, N, n, beta)
        want = edoracle.oracle_correlator("ferro", M, N, n, beta).real
        assert abs(got.log_abs - math.log(want)) <= 1e-8 or got.warnings

    def test_gate_recomputes_an_accepted_cholesky(self):
        # the folded Cholesky succeeds here with estimate 6e14 and a value 21 nats off; the gate
        # sends it to the QR, which lands on the spectral path, and the value stays warned
        M, N, n, beta = 16, 10, 6, 34.523
        want = persistence_ferro(M, N, n, beta, method="spectral_sum")
        F, nx, cos_w, Ng, e_gs = xx0core._site_matrix("ferro", M, N, n)
        shift = beta * cos_w.max()
        log_det, ratio = _log_det(_folded_gram(F, nx, Ng, N, np.exp(beta * cos_w - shift)))
        assert ratio > xx0core.PIVOT_RATIO_WARNING
        assert abs(log_det + N * shift + beta * e_gs - want.log_abs) > 10
        assert math.isnan(_gram_log_value("ferro", M, N, n, beta)[1])
        got = persistence_ferro(M, N, n, beta)
        assert abs(got.log_abs - want.log_abs) <= 1e-9
        assert any("ill-conditioned" in w for w in got.warnings)

    @pytest.mark.parametrize("M, N, n, beta", SILENT_FAULTS)
    def test_spectral_path_is_exact_at_the_silent_faults(self, M, N, n, beta):
        got = persistence_ferro(M, N, n, beta, method="spectral_sum")
        want = edoracle.oracle_correlator("ferro", M, N, n, beta).real
        assert abs(got.log_abs - math.log(want)) <= 1e-12 and not got.warnings

    def test_nan_conditioning_estimate_warns(self, monkeypatch):
        with np.errstate(invalid="ignore"):
            _, ratio = _log_det(np.array([[2.0, 1.0], [1.0, math.nan]]))
        assert math.isnan(ratio)
        monkeypatch.setattr(xx0core, "_log_det", lambda G, border=None: (0.0, math.nan))
        # the cached Gram values sit in front of _log_det: empty the caches so
        # the patch is reached, and again after, so its values do not outlive it
        xx0core._gram_log_value.cache_clear()
        xx0core._site_matrix.cache_clear()
        try:
            for fn in (persistence_ferro, persistence_domain_wall):
                res = fn(8, 2, 1, 1.0)
                assert any("ill-conditioned" in w for w in res.warnings)
        finally:
            xx0core._gram_log_value.cache_clear()

    def test_memory_and_no_table(self):
        # the (M+1)^2 walker table, 16 MB at M = 1000, must not be built
        import tracemalloc

        before = xx0core._amplitude_table_cached.cache_info()
        tracemalloc.start()
        try:
            persistence_ferro(1000, 100, 3, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        persistence_domain_wall(1000, 100, 3, 1.0)
        assert peak < 2 * 2**20
        assert xx0core._amplitude_table_cached.cache_info() == before


def _clear_determinant_caches():
    xx0core._gram_log_value.cache_clear()
    xx0core._site_matrix.cache_clear()


class TestDeterminantCaches:
    """The cached site-sum matrix and Gram values change no result."""

    FNS = {"ferro": persistence_ferro, "domain_wall": persistence_domain_wall}

    @staticmethod
    def _fields(res):
        return repr(res.value), repr(res.log_abs), res.warnings

    def test_repeated_and_cleared_calls_are_bit_identical(self):
        # (12,10,1,40) and (12,8,1,40) carry the ill-conditioned warning
        for kind, point in (("ferro", (30, 5, 2)), ("ferro", (12, 10, 1)),
                            ("domain_wall", (30, 5, 2)), ("domain_wall", (12, 8, 1))):
            fn = self.FNS[kind]
            for x in (2, 40):
                _clear_determinant_caches()
                cold = self._fields(fn(*point, x))
                for beta in (x, float(x), complex(x)):
                    res = fn(*point, beta)
                    assert self._fields(res) == cold, (kind, point, beta)
                    assert res.params[3] is beta  # the caller's own beta object
                    _clear_determinant_caches()
                    assert self._fields(fn(*point, beta)) == cold, (kind, point, beta)

    def test_cached_site_matrix_is_read_only_and_kept(self):
        # one read-only array holds both real halves over the K = 11 momenta in [0, pi]:
        # X = F[:nx], ferro's 2 even site rows, the domain wall's 1 and its 2 border rows,
        # and Y = F[nx:], the 2 (1) odd site rows and the other 2 border parts
        for kind, shape, nx in (("ferro", (4, 11), 2), ("domain_wall", (6, 11), 3)):
            _clear_determinant_caches()
            F, nx_got, cos_phi, _, _ = xx0core._site_matrix(kind, 20, 4, 2)
            assert F.shape == shape and nx_got == nx and F.dtype == float and cos_phi.shape == (11,)
            assert not F.flags.writeable and not cos_phi.flags.writeable
            before = F.tobytes()
            for beta in (1.5, 6.0, 2.0):
                _gram_log_value(kind, 20, 4, 2, beta)
            assert xx0core._site_matrix(kind, 20, 4, 2)[0] is F
            assert F.tobytes() == before
            assert xx0core._site_matrix.cache_info().misses == 1

    def test_cold_evaluation_stays_small(self):
        # test_memory_and_no_table may be served from the cache; here R and G are built
        import tracemalloc

        # ferro's rows are a view of one table; the domain wall copies its rows once
        for kind, limit_mib in (("ferro", 2), ("domain_wall", 3)):
            _clear_determinant_caches()
            tracemalloc.start()
            try:
                self.FNS[kind](1000, 100, 3, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit_mib * 2**20, kind

    def test_every_cache_is_bounded(self):
        from xx0chain import asym, qexact

        caches = {
            f"{mod.__name__}.{name}": obj
            for mod in (asym, cli, edoracle, qexact, xx0core)
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_parameters")
        }
        want = {"xx0core._site_matrix", "xx0core._gram_log_value", "asym.barnes_g_integer"}
        assert {f"xx0chain.{name}" for name in want} <= set(caches)
        for name, obj in caches.items():
            assert obj.cache_parameters()["maxsize"] is not None, name

    def test_spectral_terms_keep_one_chain_per_kind(self):
        # cross-check's shape on one chain: five beta, the determinant then the spectral path, both kinds
        for kind, cache in (("ferro", xx0core._ferro_spectral_terms), ("domain_wall", xx0core._dw_spectral_terms)):
            cache.cache_clear()
            for beta in (0.0, 0.5, 3.0, 12.0, 30.0):
                for method in ("determinant", "spectral_sum"):
                    self.FNS[kind](10, 3, 2, beta, method=method)
            info = cache.cache_info()
            assert (info.hits, info.misses, info.maxsize, info.currsize) == (4, 1, 1, 1), kind

    def test_det_grid_sequence_does_each_piece_once(self, monkeypatch, capsys):
        # det-grid's shape on one chain: correlator then asym, both kinds, over one n x beta grid
        M, N, ns, betas = 40, 6, (1, 2, 3), (1.0, 2.5, 7.0)
        tables, gram, unfolded = [], [], []

        def count_tables(M, lo, d, _f=xx0core._dirichlet):
            tables.append(lo)
            return _f(M, lo, d)

        def count_log_det(G, border=None, _f=xx0core._log_det):
            gram.append(G.shape)
            return _f(G, border)

        def count_unfolded(*args, _f=xx0core._unfolded_rows):
            unfolded.append(args)
            return _f(*args)

        monkeypatch.setattr(xx0core, "_dirichlet", count_tables)
        monkeypatch.setattr(xx0core, "_log_det", count_log_det)
        monkeypatch.setattr(xx0core, "_unfolded_rows", count_unfolded)
        _clear_determinant_caches()
        grid = ["--M", str(M), "--N", str(N), "--n", ",".join(map(str, ns)), "--beta", ",".join(map(str, betas))]
        for command in ("correlator", "asym"):
            for kind in ("ferro", "domain_wall"):
                extra = ["--exact-max-M", str(M)] if command == "asym" else []
                assert cli.main([command, kind] + grid + extra) == 0
        capsys.readouterr()
        # one Dirichlet table per site build: ferro sums over sites n..M, the domain wall over 0..M for every n
        assert sorted(tables) == [0, 0, 0, 1, 2, 3]
        assert len(gram) == 2 * len(ns) * len(betas)
        # every value passed the gate: the unfolded rows of the QR fallback were never built
        assert unfolded == []


def _schur_terms(kind, M, N, n):
    """(E_gs, norm of the ground state, [(E_S, w_S)]) from Schur sums, one state per N-subset S.

    The states follow the ascending subsets S of the momenta, as the
    library's minors do.  Ferro: w_S = |V(x_S) P|^2 with P the Binet-Cauchy
    kernel of the state and the N-particle ground state.  Domain wall: P is
    the sum of S_lam(conj x_S) S_lam(x_gs) over the partitions lam in the
    (M+1-N) x (N-n) box, zero-padded to N parts, on the (N-n)-particle
    ground state.
    """
    from xx0chain.combinat import enumerate_partitions_in_box
    from xx0chain.schur import binet_cauchy_kernel, schur_jacobi_trudi, vandermonde

    K = M + 1 - N
    gs = ground_state(M, N if kind == "ferro" else N - n)
    xg = tuple(cmath.exp(1j * t) for t in gs.roots)
    if kind == "domain_wall":
        lams = []
        for mu in enumerate_partitions_in_box(K, N - n):
            lam = tuple(mu) + (0,) * (N - n - len(mu))
            lams.append((lam, schur_jacobi_trudi(lam, xg) if lam else 1))
    terms = []
    for S in combinations(range(M + 1), N):
        state = BetheState(M, N, tuple(reversed(S)))
        y = tuple(cmath.exp(-1j * t) for t in state.roots)
        if kind == "ferro":
            P = binet_cauchy_kernel(K, n, y, xg)
        else:
            P = sum(schur_jacobi_trudi(lam, y) * s_g for lam, s_g in lams)
        V = vandermonde(tuple(cmath.exp(1j * t) for t in state.roots))
        terms.append((energy(state), abs(V * P) ** 2))
    return energy(gs), norm_squared(gs), terms


class TestSpectralMinors:
    SCHUR_CASES = [("ferro", 7, 2, 2), ("ferro", 9, 3, 1), ("domain_wall", 8, 3, 1), ("domain_wall", 9, 4, 2)]

    def test_minors_are_schur_weights(self):
        # |det C[:, S]|^2 = w_S (M+1)^Ng / norm_squared(gs), state by state
        for kind, M, N, n in self.SCHUR_CASES:
            Ng = N if kind == "ferro" else N - n
            e0, nrm2, terms = _schur_terms(kind, M, N, n)
            log_det2, d_energy = xx0core._minor_terms(kind, M, N, n)
            want = np.array([w for _, w in terms]) * (M + 1) ** Ng / nrm2
            floor = 1e-12 * np.max(want)
            assert np.all(np.abs(np.exp(log_det2) - want) <= 1e-10 * want + floor), (kind, M, N, n)
            assert np.allclose(d_energy, [e - e0 for e, _ in terms], rtol=0, atol=1e-12)

    def test_spectral_values_are_schur_sums(self):
        for kind, M, N, n in self.SCHUR_CASES:
            fn = persistence_ferro if kind == "ferro" else persistence_domain_wall
            e0, nrm2, terms = _schur_terms(kind, M, N, n)
            for beta in (0.0, 1.0, 5.0):
                want = sum(math.exp(-beta * (e - e0)) * w for e, w in terms) / (nrm2 * (M + 1) ** N)
                got = fn(M, N, n, beta, method="spectral_sum")
                assert got.value == pytest.approx(want, rel=1e-10) and not got.warnings, (kind, M, N, n, beta)

    def test_ill_conditioned_faults_are_exact(self):
        # where the Gram determinant cancels, the minors do not; the values
        # are those of the benchmark's independent references
        for fn, M, N, n, want in [
            (persistence_ferro, 24, 20, 1, 0.0400181572392),
            (persistence_ferro, 12, 10, 1, 0.0532545107718),
            (persistence_domain_wall, 12, 8, 1, 1.31083890573e-5),
        ]:
            got = fn(M, N, n, 40.0, method="spectral_sum")
            assert abs(got.log_abs - math.log(want)) <= 1e-10 and not got.warnings, (M, N, n)

    def test_many_chunks_match_the_determinant(self):
        # 38,760 states, several chunks of minors
        assert comb(21, 6) * 36 > xx0core.MINOR_ENTRIES
        a = persistence_ferro(20, 6, 2, 3.0, method="spectral_sum")
        b = persistence_ferro(20, 6, 2, 3.0)
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_chunk_boundaries(self, monkeypatch):
        whole = xx0core._minor_terms("domain_wall", 9, 3, 1)
        monkeypatch.setattr(xx0core, "MINOR_ENTRIES", 7 * 9)  # 7 subsets a chunk, 120 subsets
        chunked = xx0core._minor_terms("domain_wall", 9, 3, 1)
        for x, y in zip(whole, chunked):
            assert np.array_equal(x, y)

    def test_zero_minors_contribute_nothing(self, monkeypatch):
        def terms(log_det2):
            return lambda M, N, n: (np.array(log_det2), np.array([0.5, 0.0]))

        monkeypatch.setattr(xx0core, "_ferro_spectral_terms", terms([-math.inf, 0.0]))
        for beta in (1.0, 3.0):
            res = persistence_ferro(3, 1, 1, beta, method="spectral_sum")
            assert res.value == pytest.approx(1 / 16) and not res.warnings
        monkeypatch.setattr(xx0core, "_ferro_spectral_terms", terms([-math.inf, -math.inf]))
        res = persistence_ferro(3, 1, 1, 1.0, method="spectral_sum")
        assert res.value == 0 and res.log_abs == -math.inf and not res.warnings

    def test_no_particles_is_one(self):
        for method in ("determinant", "spectral_sum"):
            res = persistence_ferro(6, 0, 3, 1.0, method=method)
            assert res.value == 1 and res.log_abs == 0.0 and not res.warnings

    def test_budget_checked_before_enumeration(self, monkeypatch):
        from xx0chain.errors import EnumerationBudgetError

        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(xx0core, "_minor_terms", refuse)
        monkeypatch.setattr(xx0core, "combinations", refuse)
        with pytest.raises(EnumerationBudgetError):
            persistence_ferro(35, 21, 13, 1.0, method="spectral_sum")  # 5.6e9 states
        with pytest.raises(EnumerationBudgetError):
            persistence_domain_wall(9, 4, 2, 1.0, method="spectral_sum", max_states=comb(10, 4) - 1)
