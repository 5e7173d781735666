from fractions import Fraction
from math import prod

import numpy as np
import pytest

from xx0chain.combinat import enumerate_partitions_in_box
from xx0chain.errors import DegenerateInputError, EnumerationBudgetError
from xx0chain.qexact import LaurentPoly, q
from xx0chain.schur import (
    binet_cauchy_bruteforce,
    binet_cauchy_kernel,
    elementary_symmetric,
    kernel_entry,
    padded_schur_sum_bruteforce,
    schur_jacobi_trudi,
    vandermonde,
)

from oracles import es_special_L, es_special_R, schur_bialternant, schur_ssyt_oracle


def random_points(rng, n, lo=0.5, hi=1.5):
    return tuple(rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n)))


def q_points(n, start=1):
    return tuple(LaurentPoly.monomial(1, start + i) for i in range(n))


class TestElementarySymmetric:
    def test_examples(self):
        assert elementary_symmetric(1, (3, 5)) == 8
        assert elementary_symmetric(2, (1, 1, 1)) == 3
        assert elementary_symmetric(0, ()) == 1
        assert elementary_symmetric(4, (1, 2)) == 0

    def test_matches_special_q_notation(self):
        # e_r at consecutive q powers is the shifted Gaussian binomial
        for N in range(5):
            for r in range(N + 2):
                assert elementary_symmetric(r, q_points(N, start=1)) == es_special_L(r, N)
                assert elementary_symmetric(r, q_points(N, start=0)) == es_special_R(r, N)


class TestSchurEvaluators:
    def test_frozen_values(self):
        assert schur_jacobi_trudi((), (2, 3)) == 1
        assert schur_jacobi_trudi((1,), (2, 3)) == 5
        assert schur_jacobi_trudi((2, 1), (2, 3)) == 30
        assert schur_jacobi_trudi((2, 1), (1, 1)) == 2
        assert schur_jacobi_trudi((1, 1), (7, 11)) == 77

    def test_ssyt_frozen(self):
        assert schur_ssyt_oracle((1,), (1, 1, 1)) == 3
        assert schur_ssyt_oracle((2,), (1, 1)) == 3
        assert schur_ssyt_oracle((1, 1), (3, 5)) == 15

    def test_ssyt_budget(self):
        with pytest.raises(EnumerationBudgetError):
            schur_ssyt_oracle((13,), (1,))

    def test_more_parts_than_variables(self):
        assert schur_jacobi_trudi((1, 1, 1), (2, 3)) == 0
        assert schur_ssyt_oracle((1, 1, 1), (2, 3)) == 0

    def test_three_evaluators_agree(self):
        rng = np.random.default_rng(11)
        shapes = [lam for lam in enumerate_partitions_in_box(8, 4) if lam.weight <= 8]
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x = random_points(rng, n)
            for lam in shapes:
                if len(lam) > n:
                    continue
                jt = schur_jacobi_trudi(lam, x)
                ba = schur_bialternant(lam, x)
                sy = schur_ssyt_oracle(lam, x)
                scale = max(1.0, abs(jt))
                assert abs(jt - ba) <= 1e-9 * scale, (lam, x)
                assert abs(jt - sy) <= 1e-9 * scale, (lam, x)

    def test_exact_track_agreement(self):
        pts = q_points(3)
        for lam in [(1,), (2,), (2, 1), (3, 1), (2, 2, 1)]:
            jt = schur_jacobi_trudi(lam, pts)
            ba = schur_bialternant(lam, pts)
            sy = schur_ssyt_oracle(lam, pts)
            assert jt == ba == sy

    def test_symmetry_under_permutation(self):
        rng = np.random.default_rng(3)
        x = random_points(rng, 4)
        lam = (3, 1, 1)
        base = schur_jacobi_trudi(lam, x)
        for _ in range(5):
            perm = tuple(rng.permutation(4))
            val = schur_jacobi_trudi(lam, tuple(x[i] for i in perm))
            assert abs(val - base) <= 1e-9 * max(1.0, abs(base))
        # exact track: permutation gives literal equality
        pts = q_points(3)
        assert schur_jacobi_trudi((2, 1), pts) == schur_jacobi_trudi((2, 1), pts[::-1])

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        x = random_points(rng, 3)
        c = 0.7 - 0.4j
        for lam in [(2,), (2, 1), (3, 2, 1)]:
            lhs = schur_jacobi_trudi(lam, tuple(c * xi for xi in x))
            rhs = c ** sum(lam) * schur_jacobi_trudi(lam, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_bialternant_rejects_coincident_points(self):
        with pytest.raises(DegenerateInputError):
            schur_bialternant((2, 1), (1.0, 1.0))
        with pytest.raises(DegenerateInputError):
            schur_bialternant((1,), (q, q))


class TestVandermonde:
    def test_convention(self):
        # determinant convention: prod over m < l of (x_m - x_l)
        assert vandermonde((3, 1)) == 2
        assert vandermonde((q, q**2)) == q - q**2

    def test_matches_moment_determinant(self):
        rng = np.random.default_rng(9)
        x = random_points(rng, 4)
        n = 4
        mat = np.array([[x[j] ** (n - 1 - k) for k in range(n)] for j in range(n)])
        assert abs(np.linalg.det(mat) - vandermonde(x)) <= 1e-9 * abs(vandermonde(x))


class TestBinetCauchy:
    def test_kernel_equals_bruteforce(self):
        rng = np.random.default_rng(17)
        for N in (1, 2, 3):
            x = random_points(rng, N)
            y = random_points(rng, N)
            for L in range(0, 6):
                for n in range(0, L + 1):
                    a = binet_cauchy_kernel(L, n, y, x)
                    b = binet_cauchy_bruteforce(L, n, y, x)
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (N, L, n)

    def test_full_box_single_term(self):
        rng = np.random.default_rng(23)
        x = random_points(rng, 2)
        y = random_points(rng, 2)
        L = 3
        want = np.prod([(xi * yi) ** L for xi, yi in zip(x, y)])
        got = binet_cauchy_kernel(L, L, y, x)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_empty_box(self):
        assert binet_cauchy_bruteforce(0, 0, (0.5,), (0.25,)) == pytest.approx(1.0)

    def test_conjugate_points_nonnegative(self):
        rng = np.random.default_rng(29)
        th = rng.uniform(0, 2 * np.pi, 3)
        x = tuple(np.exp(1j * th))
        y = tuple(np.exp(-1j * th))
        val = binet_cauchy_bruteforce(4, 1, y, x)
        assert abs(val.imag) <= 1e-9
        assert val.real >= 0

    def test_two_block_shape_is_the_padded_sum(self):
        # n = 0 and len(x) = N - n < len(y) = N: the kernel rows sit over n monomial rows
        rng = np.random.default_rng(41)
        for N in range(0, 5):
            for n in range(0, N + 1):
                for K in range(0, 4):
                    v, u = random_points(rng, N), random_points(rng, N - n)
                    vm2, u2 = [x**-2 for x in v], [x * x for x in u]
                    got = binet_cauchy_kernel(K, 0, vm2, u2)
                    pref = np.prod([x ** (2 * n) for x in u])
                    for brute in (padded_schur_sum_bruteforce(K, n, v, u), binet_cauchy_bruteforce(K, 0, vm2, u2)):
                        assert abs(got - pref * brute) <= 1e-9 * max(1.0, abs(pref * brute)), (N, n, K)
                    v, u = q_points(N), q_points(N - n, start=2)
                    vm2, u2 = [x**-2 for x in v], [x * x for x in u]
                    got = binet_cauchy_kernel(K, 0, vm2, u2)
                    pref = prod(u2) ** n
                    assert got == pref * padded_schur_sum_bruteforce(K, n, v, u), (N, n, K)
                    assert got == pref * binet_cauchy_bruteforce(K, 0, vm2, u2), (N, n, K)

    def test_two_block_shape_rejections(self):
        # the kernel and its oracle accept the same shapes
        for evaluate in (binet_cauchy_kernel, binet_cauchy_bruteforce):
            with pytest.raises(ValueError):
                evaluate(2, 0, (0.5,), (0.7, 0.9))  # len(x) > len(y)
            with pytest.raises(ValueError):
                evaluate(2, 1, (0.5, 0.6), (0.7,))  # n > 0 needs equal lengths

    def test_kernel_rejects_coincident(self):
        with pytest.raises(DegenerateInputError):
            binet_cauchy_kernel(2, 0, (1.0, 1.0), (0.5, 0.7))

    def test_ones_count_column_strict(self):
        # two-sided sum at all-ones points counts column-strict stacks
        from xx0chain.boxcount import a_cspp

        for M, N in [(3, 1), (4, 2), (5, 2), (5, 3)]:
            K = M + 1 - N
            for n in range(0, K + 1):
                if M - n < N - 1:
                    continue
                val = binet_cauchy_bruteforce(K, n, (1,) * N, (1,) * N)
                assert val == a_cspp(N, M - n), (M, N, n)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            binet_cauchy_bruteforce(10**4, 0, (1.0, 2.0), (3.0, 4.0), max_terms=100)


class TestKernelEntry:
    def test_matches_40_digits_near_one(self):
        # the closed form lost up to 5.7e-9 here, cancelling in 1 - z
        import mpmath

        rng = np.random.default_rng(5)
        cases = [(d, m) for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 5e-2) for m in (1, 2, 3, 7, 30, 100, 333, 1000)]
        cases += [(d, 10**6) for d in (1e-12, 1e-9, 1e-6)]  # O(1) in m: once a 10^6-term loop
        for delta, m in cases:
            z = 1 + delta * complex(np.exp(2j * np.pi * rng.uniform()))
            with mpmath.workdps(40):
                zm = mpmath.mpc(z.real, z.imag)
                want = complex((1 - zm**m) / (1 - zm))
            bound = 4e-14 if delta > 1e-2 else 1e-14
            assert abs(kernel_entry(z, m) - want) <= bound * abs(want), (delta, m)

    def test_closed_form_far_from_one(self):
        # small exponents far from z = 1 keep the closed form, the more accurate there
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = rng.uniform(0.25, 2.25) * complex(np.exp(2j * np.pi * rng.uniform()))
            if abs(z - 1) > 0.1:
                for m in (1, 2, 3):
                    assert kernel_entry(z, m) == (1 - z**m) / (1 - z)

    def test_end_points(self):
        for m in (0, 1, 5, 10**6):
            assert kernel_entry(1.0, m) == m and kernel_entry(1 + 0j, m) == m
        for m in (1, 5, 10**6):
            assert kernel_entry(0.0, m) == 1


class TestExactRings:
    """Exact coordinates give exact values: never a float or a complex."""

    TRACKS = [
        ((2, 3, 5), (7, -1, 4)),
        ((Fraction(1, 2), Fraction(2, 3), 4), (Fraction(-3, 5), 2, Fraction(7, 4))),
        (q_points(3), (q, 2, q**-1)),
    ]

    def test_pinned_values(self):
        # both came out as inexact floats when ints were divided with /
        assert kernel_entry(35, 30) == (1 - 35**30) // (1 - 35)
        assert binet_cauchy_kernel(12, 0, (2, 3), (5, 7)) == 9902075496088500907512122347

    def test_every_evaluator_stays_exact(self):
        exact = (int, Fraction, LaurentPoly)
        for x, y in self.TRACKS:
            for z in x + y + (1,):
                for m in range(0, 5):
                    assert isinstance(kernel_entry(z, m), exact), (z, m)
            for L in range(0, 3):
                for n in range(0, L + 1):
                    kern = binet_cauchy_kernel(L, n, y, x)
                    assert isinstance(kern, exact) and kern == binet_cauchy_bruteforce(L, n, y, x), (L, n)
                for k in range(0, len(x)):
                    assert isinstance(binet_cauchy_kernel(L, 0, y, x[:k]), exact), (L, k)
            for lam in [(), (1,), (2, 1), (3, 1, 1)]:
                for pts in (x, y):
                    jt = schur_jacobi_trudi(lam, pts)
                    ba = schur_bialternant(lam, pts)
                    assert isinstance(jt, exact) and isinstance(ba, exact) and jt == ba, (lam, pts)


class TestPaddedSchurSum:
    def test_reduces_to_two_sided_sum_at_n0(self):
        rng = np.random.default_rng(31)
        N, K = 2, 3
        v = random_points(rng, N)
        u = random_points(rng, N)
        got = padded_schur_sum_bruteforce(K, 0, v, u)
        vm2 = tuple(x ** (-2) for x in v)
        u2 = tuple(x * x for x in u)
        want = binet_cauchy_bruteforce(K, 0, vm2, u2)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_full_insertion_gives_one(self):
        rng = np.random.default_rng(37)
        v = random_points(rng, 3)
        assert padded_schur_sum_bruteforce(4, 3, v, ()) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            padded_schur_sum_bruteforce(3, 1, (1.0, 2.0), (1.5, 0.5))
