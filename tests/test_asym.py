import math
from fractions import Fraction

import pytest

from xx0chain.asym import (
    AsymptoticEstimate,
    barnes_g_integer,
    big_phi,
    decreasing_regime,
    domain_wall_asymptotic,
    ferro_asymptotic,
    log_barnes_g,
    log_box_count,
    mehta_integral,
    phi_n,
)
from xx0chain.boxcount import a_cspp, macmahon
from xx0chain.xx0core import ground_state, norm_squared


class TestBarnesG:
    def test_small_values(self):
        assert barnes_g_integer(1) == 1  # G(2)
        assert barnes_g_integer(2) == 1  # G(3)
        assert barnes_g_integer(3) == 2  # G(4)
        assert barnes_g_integer(4) == 12  # G(5)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            barnes_g_integer(0)
        with pytest.raises(ValueError):
            barnes_g_integer(41)

    def test_recursion_exact(self):
        # G(n+2) = Gamma(n+1) G(n+1), exactly, up to n = 38
        for n in range(1, 39):
            assert barnes_g_integer(n + 1) == barnes_g_integer(n) * math.factorial(n)

    def test_log_exact_at_small_integers(self):
        assert log_barnes_g(1.0) == 0.0
        assert log_barnes_g(4) == pytest.approx(math.log(12), rel=1e-15)

    def test_expansion_matches_exact_integers(self):
        # documented accuracy: relative error <= 1e-3 for z >= 20
        from xx0chain.asym import _log_barnes_expansion

        for z in (20, 25, 30, 38):
            exact = math.log(barnes_g_integer(z))  # = log G(z+1)
            assert abs(_log_barnes_expansion(z) - exact) <= 1e-3 * abs(exact)

    def test_non_integer_recursion_consistent(self):
        # shifted recursion agrees with an independently shifted evaluation
        # (both inherit only the O(1/z) truncation of the expansion)
        z = 7.5
        got = log_barnes_g(z)
        want = log_barnes_g(z + 30)  # = log G(z + 31)
        for j in range(30):
            want -= math.lgamma(z + 1 + j)
        assert got == pytest.approx(want, abs=1e-5)

    def test_large_z_ratio_trend(self):
        # log G(z+1) / (z^2 log z) climbs toward 1/2 (slowly: the -3/4 z^2
        # term keeps it visibly below at any desk-scale z)
        r100 = log_barnes_g(100.0) / (100.0**2 * math.log(100.0))
        r1000 = log_barnes_g(1000.0) / (1000.0**2 * math.log(1000.0))
        assert 0.0 < r100 < r1000 < 0.5
        assert r1000 > 0.39


class TestMehta:
    def test_small_closed_forms(self):
        assert mehta_integral(1) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)
        assert mehta_integral(2) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_exp_phi_matches(self):
        for N in range(1, 21):
            assert math.exp(phi_n(N)) == pytest.approx(mehta_integral(N), rel=1e-12)

    def test_overflow_from_n_28(self):
        assert math.isfinite(mehta_integral(27))
        with pytest.raises(OverflowError):
            mehta_integral(28)
        with pytest.raises(ValueError):
            mehta_integral(0)

    def test_phi_examples(self):
        assert phi_n(1) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)
        assert phi_n(4) == pytest.approx(math.log(12) - 2 * math.log(2 * math.pi), rel=1e-12)

    def test_phi_large_n_law(self):
        N = 100
        law = 0.5 * N * N * math.log(N) - 0.75 * N * N
        assert abs(phi_n(N) - law) <= 0.05 * abs(phi_n(N))


class TestBigPhi:
    def test_substitution_n1(self):
        M, beta = 30, 4.0
        want = math.log(2 * math.pi / (M + 1)) - 0.5 * math.log(beta) + 3 * phi_n(1)
        assert big_phi(1, M, beta) == pytest.approx(want, rel=1e-14)

    def test_beta_doubling_shift(self):
        for N in (1, 2, 5):
            shift = big_phi(N, 40, 8.0) - big_phi(N, 40, 4.0)
            assert shift == pytest.approx(-0.5 * N * N * math.log(2), rel=1e-12)

    def test_pieces_sum(self):
        est = ferro_asymptotic(100, 5, 0, 50.0)
        assert est.log_value == pytest.approx(sum(est.pieces.values()), rel=1e-14)
        assert set(est.pieces) == {"amplitude", "critical_exponent", "phi"}


class TestEstimates:
    def test_ferro_amplitude_is_squared_count(self):
        est = ferro_asymptotic(20, 2, 3, 10.0)
        assert math.exp(est.pieces["amplitude"]) == pytest.approx(a_cspp(2, 17) ** 2, rel=1e-9)
        # M - n = N - 1 leaves room for the staircase alone, also beyond the exact-N threshold
        for N in (3, 70):
            assert ferro_asymptotic(N - 1, N, 0, 2.0).pieces["amplitude"] == 0.0

    def test_ferro_slope_exact(self):
        for N in (1, 2, 3):
            h = 0.05
            base = 16.0
            up = ferro_asymptotic(40, N, 1, base * math.exp(h)).log_value
            dn = ferro_asymptotic(40, N, 1, base * math.exp(-h)).log_value
            assert (up - dn) / (2 * h) == pytest.approx(-0.5 * N * N, abs=1e-9)

    def test_domain_wall_amplitude_is_squared_count(self):
        est = domain_wall_asymptotic(30, 3, 1, 60.0)
        assert math.exp(est.pieces["amplitude"]) == pytest.approx(
            macmahon(2, 3, 28) ** 2, rel=1e-9
        )

    def test_domain_wall_n0_substitution(self):
        M, N, beta = 25, 3, 12.0
        est = domain_wall_asymptotic(M, N, 0, beta)
        want = 2 * log_box_count(N, N, M - N + 1) + big_phi(N, M, beta)
        assert est.log_value == pytest.approx(want, rel=1e-12)

    def test_pieces_sum_domain_wall(self):
        est = domain_wall_asymptotic(30, 3, 1, 60.0)
        assert est.log_value == pytest.approx(sum(est.pieces.values()), rel=1e-14)

    def test_barnes_branches_track_exact(self):
        # sides above the exact-N threshold of 64 take the G-ratio branch; the
        # exact integers are still cheap here (measured relative error 2.8e-10,
        # 1.4e-10 and 3.2e-11)
        assert log_box_count(70, 70, 131) == pytest.approx(math.log(a_cspp(70, 200)), rel=1e-9)
        for sides in [(80, 70, 300), (97, 100, 901)]:
            assert log_box_count(*sides) == pytest.approx(math.log(macmahon(*sides)), rel=1e-9)

    def test_cached_counts_match_uncached(self):
        # the exact branch (N <= 64), the Barnes branch, and the zero-side shortcuts
        # (N, N, P - N + 1) for the column-strict counts (N, P) = (2, 17), (60, 997), (70, 200), (0, 5)
        for args in [(2, 2, 16), (60, 60, 938), (70, 70, 131), (0, 0, 6)]:
            assert log_box_count(*args) == log_box_count.__wrapped__(*args)
            assert log_box_count(*args) == log_box_count(*args)
        for args in [(2, 3, 28), (57, 60, 941), (80, 70, 300), (0, 3, 4)]:
            assert log_box_count(*args) == log_box_count.__wrapped__(*args)
            assert log_box_count(*args) == log_box_count(*args)
        assert log_box_count.cache_info().maxsize is not None

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            ferro_asymptotic(3, 3, 2, 1.0)
        with pytest.raises(ValueError):
            big_phi(2, 10, 0.0)
        for est in (ferro_asymptotic, domain_wall_asymptotic):
            for beta in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="beta > 0 and finite"):
                    est(20, 2, 1, beta)

    def test_decreasing_regime_predicate(self):
        # bound is N*M^2/(c^2 (M-n)^4) = 5e-4 for N=5, M=100, n=0, c=1
        assert decreasing_regime(1e-4, 100, 5, 0, 1.0)
        assert not decreasing_regime(1e-3, 100, 5, 0, 1.0)
        with pytest.raises(ValueError):
            decreasing_regime(1.0, 10, 2, 0, 0.0)


class TestNormAsymptotics:
    def test_inverse_norm_matches_gaussian_form(self):
        M = 200
        for N in (1, 2, 3, 4):
            lhs = 1.0 / norm_squared(ground_state(M, N))
            rhs = (2 * math.pi / (M + 1)) ** (N * N) * math.exp(2 * phi_n(N))
            assert abs(lhs - rhs) <= 0.02 * rhs, N
