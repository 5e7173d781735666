import json
import random
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xx0chain import qexact
from xx0chain.boxcount import box_det_identity, kuperberg_matrix, staircase_qbinom_det
from xx0chain.errors import ExactDivisionError
from xx0chain.qexact import (
    IndexTuples,
    LaurentPoly,
    binomial_determinant,
    det_by_minors,
    exact_det,
    exact_det_rational,
    exact_half,
    q,
    q_binomial,
    q_binomial_determinant,
    q_factorial,
    q_number,
)

from oracles import es_special_L, es_special_R, q_vandermonde

from math import comb


def poly(d):
    return LaurentPoly(d)


def schoolbook_product(a, b):
    """Coefficient-by-coefficient product on exponent maps: the oracle for *."""
    out = {}
    for e1, v1 in a.coeffs().items():
        for e2, v2 in b.coeffs().items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return LaurentPoly(out)


def long_division(a, b):
    """Integer long division on exponent maps: the oracle for exact_div.

    Takes each quotient coefficient from the top by divmod with the divisor's
    leading coefficient; raises ExactDivisionError on a non-integer quotient
    coefficient or a nonzero remainder.
    """
    if b.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly()
    lo_a, lo_b = a.min_exponent(), b.min_exponent()
    num = [a.coefficient(e) for e in range(lo_a, a.degree() + 1)]
    den = [b.coefficient(e) for e in range(lo_b, b.degree() + 1)]
    dd = len(den) - 1
    if len(num) <= dd:
        raise ExactDivisionError("quotient would not be polynomial")
    quot = {}
    for k in range(len(num) - dd - 1, -1, -1):
        c, r = divmod(num[k + dd], den[-1])
        if r:
            raise ExactDivisionError("quotient has non-integer coefficients")
        quot[lo_a - lo_b + k] = c
        for i in range(dd + 1):
            num[k + i] -= c * den[i]
    if any(num):
        raise ExactDivisionError("inexact polynomial division (nonzero remainder)")
    return LaurentPoly(quot)


def outcome(f, *args):
    """f(*args), or the ExactDivisionError class when it raises one."""
    try:
        return f(*args)
    except ExactDivisionError:
        return ExactDivisionError


laurent_maps = st.dictionaries(st.integers(-6, 6), st.integers(-(10**20), 10**20), max_size=6)


class TestLaurentPoly:
    def test_canonical_no_zero_coeffs(self):
        p = poly({0: 1, 2: 0, 5: -3})
        assert p.coeffs() == {0: 1, 5: -3}

    def test_mixed_int_arithmetic(self):
        assert 1 - q**2 == poly({0: 1, 2: -1})
        assert (1 + q) * (1 - q) == 1 - q**2

    def test_negative_exponents(self):
        p = q**-3
        assert p.coeffs() == {-3: 1}
        assert (p * q**3) == 1

    def test_shift(self):
        assert (1 + q).shift(-2) == q**-2 + q**-1

    def test_evaluate(self):
        p = 1 + 2 * q + q**3
        assert p.evaluate(2) == 1 + 4 + 8
        assert p.at_one() == 4

    def test_exact_div_remainder_raises(self):
        with pytest.raises(ExactDivisionError):
            (1 + q + q**2).exact_div(1 + q)

    def test_exact_div_roundtrip(self):
        a = 1 - 3 * q + q**4 - q**-2
        b = 2 + q - q**3
        assert (a * b).exact_div(b) == a

    def test_exact_div_inexact_cases_raise(self):
        with pytest.raises(ExactDivisionError):
            (1 + q + q**2).exact_div(1 + q)  # remainder 1
        with pytest.raises(ExactDivisionError):
            (2 + 2 * q).exact_div(3)  # quotient 2/3 + 2/3 q
        with pytest.raises(ExactDivisionError):
            (3 + 3 * q).exact_div(2 + 2 * q)  # quotient 3/2, zero remainder
        with pytest.raises(ExactDivisionError):
            (1 + q).exact_div(0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(laurent_maps, laurent_maps.filter(lambda d: any(d.values())))
    def test_exact_div_roundtrip_property(self, da, db):
        a, b = poly(da), poly(db)
        assert (a * b).exact_div(b) == a

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(laurent_maps, laurent_maps.filter(lambda d: any(d.values())), st.lists(st.integers(1, 4), max_size=5))
    def test_exact_div_matches_long_division_on_products(self, da, db, cyclotomic):
        # (1 - q^j) factors make quotients whose coefficients outgrow the numerator's
        a, b = poly(da), poly(db)
        for j in cyclotomic:
            b = b * (1 - q**j)
        got = (a * b).exact_div(b)
        assert got == long_division(a * b, b) == a

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        laurent_maps,
        laurent_maps.filter(lambda d: any(d.values())),
        st.integers(-8, 8),
        st.integers(-(10**20), 10**20),
    )
    def test_exact_div_raises_exactly_when_long_division_does(self, da, db, e, d):
        a, b = poly(da), poly(db)
        num = a * b + LaurentPoly.monomial(d, e)
        assert outcome(num.exact_div, b) == outcome(long_division, num, b)

    @pytest.mark.parametrize(
        "num, den",
        [
            (3 + 3 * q, 2 + 2 * q),  # quotient 3/2, zero remainder
            (2 + 2 * q, 3),  # quotient 2/3 + 2/3 q
            (1 + q + q**2, 1 + q),  # remainder 1
            (1 + q, 0),
            (0, 1 + q),
            (q**-3 + q**-1, q**-2),  # q^-1 + q
            ((q**-4 - 2 * q**-1) * (3 - q**-2), 3 - q**-2),
            ((q**-4 - 2 * q**-1) * (3 - q**-2) + q**-5, 3 - q**-2),
            (q**2, q**5),  # q^-3: negative exponent, one coefficient
            (1 + q**2, 1 + q + q**2 + q**3),  # divisor longer than numerator
        ],
    )
    def test_exact_div_explicit_cases(self, num, den):
        want = outcome(long_division, LaurentPoly() + num, LaurentPoly() + den)
        assert outcome(LaurentPoly.exact_div, LaurentPoly() + num, den) == want

    def test_exact_div_widens_when_quotient_dwarfs_numerator(self, monkeypatch):
        # the numerator's interior coefficients are third differences of k^2,
        # i.e. zero, and its largest is 4e6 at the top; the quotient's reach
        # 1999^2 ~ 4e6 too, so at the width taken from the numerator (X/2 =
        # 2^23) the acceptance test max|c| * 3 * 4 + 4e6 < X/2 fails
        c = LaurentPoly({k: k * k for k in range(2000)})
        b = (1 - q) ** 3
        a = c * b
        unpacks = []
        real_unpack = qexact._unpack

        def counting_unpack(x, n, nb):
            unpacks.append(nb)
            return real_unpack(x, n, nb)

        monkeypatch.setattr(qexact, "_unpack", counting_unpack)
        assert a.exact_div(b) == c
        assert len(unpacks) > 1 and unpacks == sorted(unpacks)  # widened, never narrowed
        with pytest.raises(ExactDivisionError):
            (a + q**7).exact_div(b)

    def test_exact_div_rejects_a_carried_quotient(self):
        # (1 + q) times the alternating tent (-1)^k min(k, 2000 - k) has every
        # coefficient in {-1, 0, 1}, so the first width is one byte; the
        # quotient (up to 1000) then comes back with carries, which the
        # acceptance test must reject
        c = LaurentPoly({k: (-1) ** k * min(k, 2000 - k) for k in range(2001)})
        a = c * (1 + q)
        assert max(map(abs, a.coeffs().values())) == 1
        assert a.exact_div(1 + q) == long_division(a, 1 + q) == c

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(laurent_maps, laurent_maps)
    def test_product_matches_schoolbook(self, da, db):
        a, b = poly(da), poly(db)
        assert a * b == schoolbook_product(a, b)
        assert a * 7 == schoolbook_product(a, LaurentPoly.const(7))

    def test_product_of_long_dense_factors(self):
        rng = random.Random(11)
        for n, m, mag in ((1, 300, 1), (40, 40, 10**6), (120, 90, 10**40)):
            a = poly({e - 20: rng.randint(-mag, mag) for e in range(n)})
            b = poly({e + 3: rng.randint(-mag, mag) for e in range(m)})
            assert a * b == schoolbook_product(a, b)

    def test_json_roundtrip_bit_exact(self):
        p = poly({-3: -1, 0: 1, 7: 123456789012345678901234567890})
        blob = json.dumps(p.to_json_obj())
        assert LaurentPoly.from_json_obj(json.loads(blob)) == p

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    )
    def test_ring_laws(self, da, db, dc):
        a, b, c = poly(da), poly(db), poly(dc)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


class TestQNumbers:
    def test_q_number_examples(self):
        assert q_number(0) == 0
        assert q_number(1) == 1
        assert q_number(3) == 1 + q + q**2

    def test_q_number_negative_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1)

    def test_q_factorial_examples(self):
        assert q_factorial(0) == 1
        assert q_factorial(2) == 1 + q
        assert q_factorial(3) == (1 + q) * (1 + q + q**2)

    def test_q_factorial_is_the_product_of_q_numbers(self):
        out = LaurentPoly.const(1)
        for n in range(1, 12):
            out = out * q_number(n)
            assert q_factorial(n) == out, n

    def test_q_binomial_examples(self):
        assert q_binomial(5, 0) == 1
        assert q_binomial(4, 2) == 1 + q + 2 * q**2 + q**3 + q**4
        assert q_binomial(3, -1) == 0
        assert q_binomial(3, 4) == 0

    def test_q_binomial_at_one_is_binomial(self):
        for n in range(13):
            for r in range(n + 1):
                assert q_binomial(n, r).at_one() == comb(n, r)

    def test_q_binomial_symmetry(self):
        for n in range(13):
            for r in range(n + 1):
                assert q_binomial(n, r) == q_binomial(n, n - r)

    def test_q_binomial_memo_is_bounded_and_shared(self):
        assert q_binomial.cache_info().maxsize is not None
        for n, r in [(9, 2), (40, 37), (17, 8)]:
            assert q_binomial(n, r) is q_binomial(n, n - r)  # one expansion per (n, min(r, n - r))

    def test_staged_ratio_needs_polynomial_prefixes(self):
        # every stage of _q_ratio must leave a polynomial; one that does not raises
        assert qexact._q_ratio([((2, 3), (1, 2))]) == 1 + q + q**2  # zq(1, 2, 1): one row of two cells
        assert qexact._q_ratio([((3,), (1,)), ((4,), (2,))]) == q_binomial(4, 2)
        for stages in (
            [((3,), (2,))],
            [((), (1,))],
            [((4,), (4, 3))],  # 1 / (1 - q^3): the last divisor outgrows what is left
            # the 2 x 2 x 1 box one cell at a time: cell (2, 1) leaves (1 + q + q^2)^2 / (1 + q)
            [((j + k,), (j + k - 1,)) for j in (1, 2) for k in (1, 2)],
        ):
            with pytest.raises(ExactDivisionError):
                qexact._q_ratio(stages)

    def test_q_binomial_on_long_rows(self):
        # a recursive Pascal rule overflowed the stack from n = 500 on
        assert q_binomial(1500, 3) == q_binomial(1500, 1497)
        assert q_binomial(1500, 3).at_one() == comb(1500, 3)
        assert q_binomial(1500, 3).degree() == 3 * 1497
        assert q_binomial(600, 2) == q_binomial(599, 1) + q**2 * q_binomial(599, 2)

    def test_both_pascal_recursions(self):
        # the two q-deformed Pascal rules, as exact Laurent identities
        for n in range(1, 13):
            for r in range(1, n):
                lhs = q_binomial(n, r)
                assert lhs == q_binomial(n - 1, r - 1) + q**r * q_binomial(n - 1, r)
                assert lhs == q ** (n - r) * q_binomial(n - 1, r - 1) + q_binomial(n - 1, r)

    def test_product_formula_oracle(self):
        # the quotient-of-factorials definition divides exactly and agrees
        for n in range(9):
            for r in range(n + 1):
                want = q_factorial(n).exact_div(q_factorial(r) * q_factorial(n - r))
                assert q_binomial(n, r) == want

    def test_q_binomial_is_box_generating_function(self):
        from xx0chain.combinat import enumerate_partitions_in_box

        for n in range(11):
            for r in range(n + 1):
                gf = LaurentPoly()
                for lam in enumerate_partitions_in_box(n - r, r):
                    gf = gf + LaurentPoly.monomial(1, lam.weight)
                assert q_binomial(n, r) == gf

    def test_q_vandermonde_examples(self):
        assert q_vandermonde(0, 3, 2) == q_binomial(3, 2)
        assert q_vandermonde(2, 2, 2) == q_binomial(4, 2)
        assert q_vandermonde(3, 4, 0) == 1

    def test_q_vandermonde_full_range(self):
        for N in range(9):
            for Np in range(9):
                for r in range(9):
                    assert q_vandermonde(N, Np, r) == q_binomial(N + Np, r)

    def test_special_elementary_values(self):
        assert es_special_R(0, 5) == 1
        assert es_special_L(0, 5) == 1
        assert es_special_R(3, 2) == 0
        assert es_special_L(3, 2) == 0
        assert es_special_R(1, 2) == 1 + q
        assert es_special_L(1, 2) == q + q**2


class TestExactHalf:
    def test_even_ok(self):
        assert exact_half(6) == 3
        assert exact_half(-4) == -2

    def test_odd_raises(self):
        with pytest.raises(ArithmeticError):
            exact_half(3)


class TestIndexTuples:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexTuples((1, 1), (0, 2))
        with pytest.raises(ValueError):
            IndexTuples((0, 2), (1,))
        with pytest.raises(ValueError):
            IndexTuples((-1, 2), (0, 1))

    def test_empty_allowed(self):
        assert binomial_determinant(IndexTuples((), ())) == 1


class TestDeterminants:
    def test_binomial_determinant_single(self):
        assert binomial_determinant(IndexTuples((2,), (1,))) == 2

    def test_binomial_determinant_frozen(self):
        # hand-counted disjoint path families for a=(2,3), b=(1,2): 3 tuples
        assert binomial_determinant(IndexTuples((2, 3), (1, 2))) == 3

    def test_q_binomial_determinant_single(self):
        assert q_binomial_determinant(IndexTuples((4,), (2,))) == q_binomial(4, 2)

    def test_q_binomial_determinant_staircase_monomial(self):
        # a = (N..N+P-1), b = (0..P-1) collapses to the monomial q^(N*P*(P-1)/2)
        for N in range(1, 5):
            for P in range(1, 5):
                t = IndexTuples(tuple(range(N, N + P)), tuple(range(P)))
                want = LaurentPoly.monomial(1, exact_half(N * P * (P - 1)))
                assert q_binomial_determinant(t) == want

    def test_q_binomial_determinant_at_one(self):
        cases = [((2, 3), (1, 2)), ((3, 5, 6), (0, 2, 4)), ((4, 7), (2, 3))]
        for a, b in cases:
            t = IndexTuples(a, b)
            assert q_binomial_determinant(t).at_one() == binomial_determinant(t)

    def test_exact_det_identity_and_diag(self):
        assert exact_det([[1, 0], [0, 1]]) == 1
        assert exact_det([[q, 0], [0, q**2]]) == q**3

    def test_exact_det_frozen_2x2(self):
        assert exact_det([[1, q], [q, 1]]) == 1 - q**2

    def test_exact_det_zero_column(self):
        assert exact_det([[0, q], [0, 1]]) == 0

    def test_exact_det_vs_minors_random(self):
        import random

        rng = random.Random(7)
        for n in (3, 4):
            for _ in range(12):
                m = [
                    [
                        LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                        + LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                assert exact_det(m) == det_by_minors(m)

    def test_exact_det_vs_minors_int_and_zero_pivots(self):
        # integer entries, and matrices whose leading entries vanish so that
        # elimination must swap rows
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                m[0][0] = 0
                if rng.random() < 0.5:
                    m[1][0] = 0
                want = det_by_minors(m)
                assert exact_det(m) == want
                assert exact_det_rational(m) == want.at_one()

    def test_binomial_determinant_vs_minors(self):
        # C(a_j, b_i) vanishes for a_j < b_i, so these start on zero pivots
        for a, b in [((1, 3, 5), (2, 3, 4)), ((0, 2, 4, 7), (1, 2, 3, 5)), ((2, 3), (1, 2))]:
            rows = [[comb(aj, bi) for aj in a] for bi in b]
            assert binomial_determinant(IndexTuples(a, b)) == det_by_minors(rows).at_one()

    def test_exact_det_rational_vs_minors(self):
        rng = random.Random(6)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
                m[0][0] = Fraction(0)
                d = lcm(*(x.denominator for row in m for x in row))
                scaled = [[int(x * d) for x in row] for row in m]
                assert exact_det_rational(m) == Fraction(det_by_minors(scaled).at_one(), d**n)

    def test_exact_det_singular(self):
        assert exact_det([[q, 1 + q], [q, 1 + q]]) == 0
        assert exact_det_rational([[0, 1], [0, Fraction(1, 2)]]) == 0

    def test_exact_det_rows_with_different_negative_lowest_exponents(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(8):
                m = [
                    [
                        LaurentPoly({rng.randint(-3, 3) - 2 * i: rng.randint(-9, 9) for _ in range(3)})
                        for _ in range(n)
                    ]
                    for i in range(n)
                ]
                assert exact_det(m) == det_by_minors(m)

    def test_exact_det_zero_row_column_and_swapped_pivot(self):
        zero_row = [[1 + q, q**-2], [0, 0]]
        zero_col = [[q**-1, 0, 2], [1 + q, 0, q], [3, 0, -q**4]]
        swap = [[0, q**-1, 1 + q], [2 - q, 0, q**3], [q**2, 1, 0]]
        for m in (zero_row, zero_col, swap):
            assert exact_det(m) == det_by_minors(m)
        assert exact_det(zero_row) == 0 and exact_det(zero_col) == 0
        assert exact_det(swap) != 0

    def test_exact_det_sizes_zero_and_one(self):
        assert exact_det([]) == det_by_minors([]) == 1
        for x in (0, 5, q**-3 - 7 * q**2):
            assert exact_det([[x]]) == det_by_minors([[x]]) == x

    def test_exact_det_at_its_width_bound(self):
        # the Sylvester-Hadamard matrix meets the bound prod_i ||row_i||_2
        # with equality: |det| = 16 = sqrt(4^4)
        h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert exact_det(h4) == det_by_minors(h4) == 16
        shifted = [[x * q**i for x in row] for i, row in enumerate(h4)]
        assert exact_det(shifted) == 16 * q**6
        # |det| = 128 = 2^7 is the bound and half of 256, so it needs a
        # second byte: a width with X/2 = 128 cannot hold +128
        assert exact_det([[8, 8], [-8, 8]]) == 128
        assert exact_det([[8, 8], [8, -8]]) == -128

    def test_exact_det_row_swap_antisymmetry(self):
        m = [[1 + q, q], [q**2, 1 - q]]
        swapped = [m[1], m[0]]
        assert exact_det(swapped) == -exact_det(m)


def qbinom_rows(t):
    return [[q_binomial(a, b) for a in t.a] for b in t.b]


def staircase(L, N, P):
    return IndexTuples(tuple(range(L + N, L + N + P)), tuple(range(L, L + P)))


def hadamard_width(rows):
    """exact_det's width, from its Hadamard bound on the l1 norms of the entries."""
    l1 = [[sum(map(abs, x.coeffs().values())) for x in r] for r in rows]
    bound2 = min(prod(sum(v * v for v in r) for r in l1), prod(sum(v * v for v in c) for c in zip(*l1)))
    return isqrt(bound2).bit_length() // 8 + 1


class TestQBinomialDeterminantWidth:
    """q_binomial_determinant packs at the width of its value at q = 1, which
    bounds every coefficient of its lattice-path generating function."""

    def test_staircases_match_the_hadamard_width(self):
        for L in range(7):
            for N in range(7):
                for P in range(7):
                    assert staircase_qbinom_det(L, N, P) == exact_det(qbinom_rows(staircase(L, N, P))), (L, N, P)

    def test_random_tuples_are_non_negative_path_counts(self):
        rng = random.Random(31)
        for _ in range(600):
            n = rng.randint(1, 4)
            t = IndexTuples(tuple(sorted(rng.sample(range(12), n))), tuple(sorted(rng.sample(range(12), n))))
            d = q_binomial_determinant(t)
            assert all(c > 0 for c in d.coeffs().values()), t
            assert d.at_one() == binomial_determinant(t), t
            assert d == det_by_minors(qbinom_rows(t)), t

    @pytest.mark.parametrize("fault", ["at_one + 1", "at_one = 1", "negative coefficient", "no unpacking"])
    def test_a_failed_check_redoes_the_hadamard_width(self, monkeypatch, fault):
        t = staircase(4, 4, 4)  # 232848 at q = 1, largest coefficient 11408
        rows = qbinom_rows(t)
        want, h = exact_det(rows), hadamard_width(rows)
        if fault == "at_one + 1":
            monkeypatch.setattr(qexact, "binomial_determinant", lambda t: want.at_one() + 1)
        elif fault == "at_one = 1":  # one byte: the digits come out wrong, some negative
            monkeypatch.setattr(qexact, "binomial_determinant", lambda t: 1)
        elif fault == "negative coefficient":  # the right sum, -1 at q^0
            packed_det = qexact._packed_det
            monkeypatch.setattr(qexact, "_packed_det", lambda rows, nb: packed_det(rows, nb) + (q - 1 if nb < h else 0))
        else:
            unpack = qexact._unpack

            def narrow_unpack(x, n, nb):
                if nb < h:
                    raise OverflowError("no n-digit form")
                return unpack(x, n, nb)

            monkeypatch.setattr(qexact, "_unpack", narrow_unpack)
        redone = []
        monkeypatch.setattr(qexact, "exact_det", lambda rows: redone.append(rows) or exact_det(rows))
        assert q_binomial_determinant(t) == want
        assert redone == [rows]

    def test_zero_at_one_is_zero_without_elimination(self, monkeypatch):
        monkeypatch.setattr(qexact, "_packed_det", None)
        monkeypatch.setattr(qexact, "exact_det", None)
        assert q_binomial_determinant(IndexTuples((0, 1, 6), (0, 2, 3))) == 0  # no zero row or column

    def test_packing_widths(self, monkeypatch):
        widths = []
        pack = qexact._pack
        monkeypatch.setattr(qexact, "_pack", lambda v, nb: widths.append(nb) or pack(v, nb))
        staircase_qbinom_det(8, 8, 8)  # 74 bits at q = 1; the Hadamard width is 19 bytes
        assert max(widths) <= 10
        # the Kuperberg determinant's positivity is what box_det_identity tests,
        # so its entries keep the Hadamard width
        kup = kuperberg_matrix(5, 6, 10)
        h = hadamard_width(kup)
        assert h > max(exact_det(kup).at_one(), 1).bit_length() // 8 + 1
        widths.clear()
        assert box_det_identity(5, 6, 10).all_equal
        assert widths.count(h) >= 6 * 6
