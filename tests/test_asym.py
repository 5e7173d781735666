import math

import pytest

from xx0chain.asym import (
    barnes_g_integer,
    domain_wall_asymptotic,
    ferro_asymptotic,
    log_box_count,
    phi_n,
)
from xx0chain.boxcount import a_cspp, macmahon
from xx0chain.xx0core import ground_state, norm_squared

from oracles import big_phi, decreasing_regime, mehta_integral


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
        # M - n = N - 1 leaves room for the staircase alone, for every N
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

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            ferro_asymptotic(3, 3, 2, 1.0)
        for beta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta > 0 and finite"):
                big_phi(2, 10, beta)
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
        for n in (-1, 5, 6):  # n = M divided by zero
            with pytest.raises(ValueError, match="need 0 <= n < M"):
                decreasing_regime(1.0, 5, 2, n, 1.0)


# bases past 64 sides, and large-P boxes of few particles, where a ratio of
# Barnes G values cancels terms of size P^2 log P and keeps too few digits
@pytest.mark.parametrize(
    "sides",
    [(64, 64, 10**4), (65, 64, 10**4), (70, 70, 131), (80, 70, 300), (97, 100, 901), (5, 5, 10**5), (3, 3, 10**6)],
)
def test_log_box_count_matches_exact_log(sides):
    assert log_box_count(*sides) == pytest.approx(math.log(macmahon(*sides)), rel=1e-15, abs=0)


def test_log_box_count_empty_and_negative_sides():
    for sides in [(0, 0, 6), (0, 3, 4), (3, 3, 0)]:
        assert log_box_count(*sides) == 0.0
    for sides in [(3, -1, 0), (100, 100, -2), (-1, 0, 5)]:
        with pytest.raises(ValueError, match="box sides must be non-negative"):
            log_box_count(*sides)


class TestNormAsymptotics:
    def test_inverse_norm_matches_gaussian_form(self):
        M = 200
        for N in (1, 2, 3, 4):
            lhs = 1.0 / norm_squared(ground_state(M, N))
            rhs = (2 * math.pi / (M + 1)) ** (N * N) * math.exp(2 * phi_n(N))
            assert abs(lhs - rhs) <= 0.02 * rhs, N
