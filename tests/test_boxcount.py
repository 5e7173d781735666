from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from xx0chain.boxcount import (
    _int_ratio,
    a_cspp,
    box_det_identity,
    kuperberg_matrix,
    macmahon,
    q_power_points,
    staircase_qbinom_det,
    zq,
    zq_cspp,
)
from xx0chain.errors import ExactDivisionError
from xx0chain.qexact import (
    IndexTuples,
    LaurentPoly,
    exact_det,
    exact_half,
    q,
    q_binomial_determinant,
)
from xx0chain.schur import binet_cauchy_kernel, schur_jacobi_trudi, vandermonde

from oracles import BoxDims, enumerate_column_strict_pp, enumerate_plane_partitions


def volume_histogram(stream):
    gf = LaurentPoly()
    for pp in stream:
        gf = gf + LaurentPoly.monomial(1, pp.volume)
    return gf


class TestGeneratingFunctions:
    def test_zq_trivial(self):
        assert zq(1, 1, 1) == 1 + q
        assert zq(3, 2, 0) == 1
        assert zq(0, 5, 7) == 1

    def test_zq_symmetric_in_all_sides(self):
        # zq expands the sorted sides, so every ordering, zero sides included, must give one series
        boxes = [(1, 2, 3), (2, 2, 3), (1, 3, 4), (0, 0, 0), (0, 0, 4), (0, 3, 5), (4, 1, 6), (6, 2, 2), (1, 7, 4)]
        for sides in boxes:
            vals = {tuple(p): zq(*p) for p in permutations(sides)}
            assert len({repr(v) for v in vals.values()}) == 1

    def test_zq_at_one_is_macmahon(self):
        for L in range(6):
            for N in range(6):
                for P in range(6):
                    assert zq(L, N, P).at_one() == macmahon(L, N, P)

    def test_zq_matches_weighted_enumeration(self):
        for L in range(4):
            for N in range(4):
                for P in range(4):
                    gf = volume_histogram(enumerate_plane_partitions(BoxDims(L, N, P)))
                    assert zq(L, N, P) == gf, (L, N, P)

    def test_macmahon_trivial(self):
        assert macmahon(1, 1, 1) == 2
        assert macmahon(2, 2, 2) == 20

    def test_zq_cspp_single_row(self):
        for P in range(5):
            assert zq_cspp(1, P) == LaurentPoly({e: 1 for e in range(P + 1)})

    def test_zq_cspp_volume_shift_identity(self):
        for N in range(1, 4):
            for P in range(N - 1, 7):
                gap = exact_half(N * N * (N - 1))
                assert zq_cspp(N, P) == LaurentPoly.monomial(1, gap) * zq(N, N, P - N + 1)

    def test_zq_cspp_matches_weighted_enumeration(self):
        for N in (1, 2, 3):
            for P in range(N - 1, N + 2):
                gf = volume_histogram(enumerate_column_strict_pp(BoxDims(N, N, P)))
                assert zq_cspp(N, P) == gf, (N, P)

    def test_a_cspp_values(self):
        assert a_cspp(1, 4) == 5
        assert a_cspp(2, 2) == 6
        for N in range(1, 5):
            for P in range(N - 1, 9):
                assert a_cspp(N, P) == macmahon(N, N, P - N + 1)

    def test_a_cspp_gamma_form(self):
        # double-precision log-gamma ratio rounds to the exact product
        import math

        for N in range(1, 5):
            for P in range(N - 1, 9):
                lg = sum(
                    math.lgamma(j) + math.lgamma(j + P + 1) - math.lgamma(j + N) - math.lgamma(j + P + 1 - N)
                    for j in range(1, N + 1)
                )
                assert round(math.exp(lg)) == a_cspp(N, P)

    def test_counts_match_fraction_product(self):
        # the product of ratios taken in Fraction arithmetic is the oracle
        def fraction_product(factors):
            out = Fraction(1)
            for num, den in factors:
                out *= Fraction(num, den)
            return out

        for L, N, P in [(0, 3, 2), (1, 1, 1), (3, 4, 5), (7, 2, 11), (12, 12, 12), (30, 30, 30)]:
            cells = [(j, k) for j in range(1, L + 1) for k in range(1, N + 1)]
            want = fraction_product((P + j + k - 1, j + k - 1) for j, k in cells)
            assert macmahon(L, N, P) == want
        for N, P in [(0, 0), (1, 0), (3, 2), (4, 9), (9, 20), (20, 40)]:
            cells = [(j, k) for j in range(1, N + 1) for k in range(1, N + 1)]
            assert a_cspp(N, P) == fraction_product((P + 1 + j - k, j + k - 1) for j, k in cells)

    # (L, N, P) of the low-temperature estimates on the det-grid benchmark
    # chains, seed 1, up to (100,100,898), and of the exact-q macmahon counts
    DET_GRID_BOXES = (
        (0, 6, 55), (1, 6, 55), (2, 6, 55), (5, 10, 391), (6, 6, 49), (6, 6, 50), (6, 6, 51),
        (7, 8, 5), (7, 10, 91), (7, 10, 391), (8, 10, 91), (9, 10, 91), (9, 10, 391),
        (10, 10, 2), (10, 10, 88), (10, 10, 89), (10, 10, 90), (10, 10, 386), (10, 10, 388),
        (10, 10, 390), (11, 16, 185), (12, 16, 185), (14, 16, 185), (16, 16, 180), (16, 16, 181),
        (16, 16, 183), (16, 20, 981), (18, 20, 981), (19, 20, 981), (20, 20, 4), (20, 20, 38),
        (20, 20, 977), (20, 20, 979), (20, 20, 980), (35, 40, 961), (36, 40, 361), (37, 40, 361),
        (37, 40, 961), (38, 40, 361), (38, 40, 961), (40, 40, 357), (40, 40, 358), (40, 40, 359),
        (40, 40, 956), (40, 40, 958), (40, 40, 959), (54, 60, 941), (55, 60, 941), (59, 60, 941),
        (60, 60, 935), (60, 60, 936), (60, 60, 940), (97, 100, 901), (100, 100, 898),
    )
    EXACT_Q_BOXES = (
        (5, 6, 20), (6, 20, 22), (8, 1, 22), (8, 24, 12), (11, 23, 15), (11, 27, 12), (12, 1, 22),
        (13, 3, 23), (16, 17, 21), (16, 21, 16), (16, 29, 1), (17, 19, 6), (19, 6, 11), (21, 6, 21),
        (21, 15, 10), (23, 27, 30), (26, 3, 29), (26, 5, 6), (26, 16, 4), (27, 11, 30), (28, 3, 29),
        (28, 16, 21), (29, 7, 17), (30, 13, 3), (8, 8, 8), (8, 6, 7), (6, 6, 6),
    )

    def test_counts_match_one_integer_division(self):
        # the literal product of the numerator factors, divided once with divmod
        for L, N, P in self.DET_GRID_BOXES + self.EXACT_Q_BOXES:
            cells = [(j, k) for j in range(1, L + 1) for k in range(1, N + 1)]
            want, rem = divmod(prod(P + j + k - 1 for j, k in cells), prod(j + k - 1 for j, k in cells))
            assert rem == 0 and macmahon(L, N, P) == want, (L, N, P)

    def test_int_ratio_rejects_a_fraction(self):
        assert _int_ratio([4, 9, 5], [6, 3]) == 10
        for num, den in (([2], [4]), ([6], [4]), ([], [3])):
            with pytest.raises(ExactDivisionError):
                _int_ratio(num, den)

    def test_generating_functions_match_one_polynomial_division(self):
        # the product of the numerator factors divided once by exact_div
        def one_division(num, den):
            top, bottom = LaurentPoly.const(1), LaurentPoly.const(1)
            for a in num:
                top = top * (1 - q**a)
            for b in den:
                bottom = bottom * (1 - q**b)
            return top.exact_div(bottom)

        for L, N, P in [(2, 3, 4), (4, 4, 4), (5, 3, 6)]:
            cells = [(j, k) for j in range(1, L + 1) for k in range(1, N + 1)]
            assert zq(L, N, P) == one_division([P + j + k - 1 for j, k in cells], [j + k - 1 for j, k in cells])
        for N, P in [(2, 3), (4, 6), (5, 4)]:
            cells = [(j, k) for j in range(1, N + 1) for k in range(1, N + 1)]
            want = one_division([P + 1 + j - k for j, k in cells], [j + k - 1 for j, k in cells])
            assert zq_cspp(N, P) == want.shift(exact_half(N * N * (N - 1)))

    def test_zq_on_a_large_cube(self):
        # 20 rows of 20 stages each; the series is palindromic of degree L*N*P
        z = zq(20, 20, 20)
        assert z.at_one() == macmahon(20, 20, 20)
        assert z.min_exponent() == 0 and z.degree() == 8000
        assert all(z.coefficient(e) == z.coefficient(8000 - e) for e in range(4001))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            zq_cspp(3, 1)
        with pytest.raises(ValueError):
            a_cspp(2, 0)
        for sides in [(-1, 1, 1), (2, -1, 3), (2, 3, -1), (0, 0, -2)]:
            with pytest.raises(ValueError, match="box sides must be non-negative"):
                zq(*sides)


class TestKuperbergMatrix:
    def test_1x1(self):
        assert kuperberg_matrix(1, 1, 1) == [[1 + q]]

    def test_frozen_2x2_with_monomial_row(self):
        got = kuperberg_matrix(1, 2, 2)
        assert got[0] == [1 + q + q**2, 1 + q**2 + q**4]
        assert got[1] == [LaurentPoly.const(1), LaurentPoly.const(1)]

    def test_full_block_matches_overlap_kernel(self):
        # L = N: every entry is the geometric kernel of the scalar product
        N, P = 3, 4
        got = kuperberg_matrix(N, N, P)
        for k in range(1, N + 1):
            for j in range(1, N + 1):
                step = j + k - 1
                want = LaurentPoly({t * step: 1 for t in range(P + 1)})
                assert got[k - 1][j - 1] == want

    def test_monomial_block_rows(self):
        got = kuperberg_matrix(1, 3, 2)
        assert got[1] == [q, q**2, q**3]
        assert got[2] == [LaurentPoly.const(1)] * 3

    def test_domain(self):
        with pytest.raises(ValueError):
            kuperberg_matrix(3, 2, 1)


class TestBoxDetIdentity:
    def test_smallest_case(self):
        rep = box_det_identity(1, 1, 1)
        assert rep.all_equal
        assert rep.det_value == rep.qbd_value == rep.zq_value == 1 + q

    def test_proved_regime_grid(self):
        for N in range(1, 5):
            for P in range(N + 1, min(2 * N, 8)):
                for L in range(1, N + 1):
                    rep = box_det_identity(L, N, P)
                    assert rep.in_proved_regime
                    assert rep.all_equal, (L, N, P)

    def test_outside_regime_recorded_not_asserted(self):
        # the identity is only proved for P/2 < N < P; outside we just record
        observed = []
        for (L, N, P) in [(1, 2, 5), (2, 2, 6), (1, 3, 7), (2, 3, 2)]:
            rep = box_det_identity(L, N, P)
            assert not rep.in_proved_regime
            assert rep.all_equal == (rep.det_value == rep.qbd_value == rep.zq_value)
            observed.append((L, N, P, rep.all_equal))
        assert len(observed) == 4

    def test_l0_formal_case(self):
        # q-binomial determinant collapses to a monomial and the bare
        # determinant is the (decreasing-power) Vandermonde
        for N in (2, 3):
            for P in (N + 1, N + 2):
                cal_p = P - N + 1
                t = IndexTuples(tuple(range(N, N + cal_p)), tuple(range(cal_p)))
                assert q_binomial_determinant(t) == LaurentPoly.monomial(
                    1, exact_half(N * cal_p * (cal_p - 1))
                )
                # vandermonde() already uses the decreasing-power det convention
                det = exact_det(kuperberg_matrix(0, N, P))
                assert det == vandermonde(q_power_points(N))

    def test_det_value_is_the_cauchy_binet_kernel_at_q_points(self):
        # the form factor's two-block kernel at y = (q, ..., q^N), x = (1, ..., q^(L-1)),
        # exactly, over the box range of `verify`
        for N in range(1, 5):
            for P in range(N + 1, 2 * N):
                for L in range(1, N + 1):
                    y, x = q_power_points(N, start=1), q_power_points(L, start=0)
                    kern = binet_cauchy_kernel(P - N + 1, 0, y, x)
                    want = LaurentPoly.monomial(1, -exact_half(L * (L - 1) * (N - L))) * kern
                    assert box_det_identity(L, N, P).det_value == want, (L, N, P)


class TestStaircaseDeterminant:
    def test_is_the_q_binomial_determinant_on_staircase_tuples(self):
        for L in range(0, 4):
            for N in range(0, 4):
                for P in range(0, 4):
                    t = IndexTuples(tuple(range(L + N, L + N + P)), tuple(range(L, L + P)))
                    assert staircase_qbinom_det(L, N, P) == q_binomial_determinant(t), (L, N, P)
        assert staircase_qbinom_det(3, 2, 0) == 1

    def test_negative_side_raises(self):
        # N = -1 once gave 0 and P = -1 the empty determinant 1
        for sides in [(-1, 2, 2), (3, -1, 2), (3, 2, -1)]:
            with pytest.raises(ValueError, match="non-negative"):
                staircase_qbinom_det(*sides)


class TestSchurPairSumPipeline:
    def test_exact_pair_sum_matches_qbd_form(self):
        # brute-force sum of zero-padded Schur pairs at geometric points
        # equals the normalized q-binomial determinant, and the box function
        from xx0chain.combinat import enumerate_partitions_in_box

        for L in (1, 2, 3):
            for N in range(L, 4):
                for cal_p in (1, 2, 3):
                    qn = q_power_points(N, start=1)
                    ql = q_power_points(L, start=0)
                    total = LaurentPoly()
                    for lam in enumerate_partitions_in_box(cal_p, L):
                        s_v = schur_jacobi_trudi(lam, qn)
                        s_u = schur_jacobi_trudi(lam, ql)
                        s_v = s_v if isinstance(s_v, LaurentPoly) else LaurentPoly.const(s_v)
                        total = total + s_v * s_u
                    t = IndexTuples(
                        tuple(range(L + N, L + N + cal_p)), tuple(range(L, L + cal_p))
                    )
                    normalized = LaurentPoly.monomial(
                        1, -exact_half(N * (cal_p - 1) * cal_p)
                    ) * q_binomial_determinant(t)
                    assert total == normalized, (L, N, cal_p)
                    assert total == zq(L, N, cal_p)
