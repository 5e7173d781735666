"""Tests of the benchmark's independent references.

The correlator references are compared with exact diagonalization, with a
Gram determinant evaluated in 60-digit arithmetic, with the emptiness
formation probability at beta = 0 and with their own beta -> infinity
limit.  The series references are compared with brute-force enumeration.

    PYTHONPATH=src python -m pytest -q xx0bench
"""

from __future__ import annotations

import itertools
import math

import mpmath
import pytest

import references as ref
from xx0chain import edoracle, xx0core


def _mp_gram_value(kind: str, M: int, N: int, n: int, beta: float) -> float:
    """The correlator as a plain Gram determinant over the momentum grid, in 60 digits."""
    with mpmath.workdps(60):
        grid = [mpmath.pi * (2 * j - (N - 1)) / (M + 1) for j in range(M + 1)]
        weights = [mpmath.exp(beta * mpmath.cos(p)) for p in grid]

        def site_sum(theta, phi):
            return mpmath.fsum(mpmath.expj(k * (theta - phi)) for k in range(n, M + 1))

        if kind == "ferro":
            rows = [[site_sum(t, p) for p in grid] for t in grid[:N]]
            norm = mpmath.mpf(M + 1) ** (2 * N) * mpmath.fprod(weights[:N])
        else:
            gs = [mpmath.pi * (2 * j - (N - n - 1)) / (M + 1) for j in range(N - n)]
            rows = [[site_sum(t, p) for p in grid] for t in gs]
            rows += [[mpmath.expj(-m * p) for p in grid] for m in range(n)]
            norm = mpmath.mpf(M + 1) ** (2 * N - n) * mpmath.exp(beta * mpmath.fsum(mpmath.cos(t) for t in gs))
        G = mpmath.matrix(N, N)
        for a in range(N):
            for b in range(N):
                G[a, b] = mpmath.fsum(w * x * mpmath.conj(y) for w, x, y in zip(weights, rows[a], rows[b]))
        return float(mpmath.re(mpmath.det(G)) / norm)


def _log_ref(kind, M, N, n, beta):
    return (ref.log_ferro if kind == "ferro" else ref.log_domain_wall)(M, N, n, beta)


@pytest.mark.parametrize(
    "kind,M,N,n,beta",
    [
        ("ferro", 8, 3, 2, 0.7),
        ("ferro", 11, 5, 3, 100.0),
        ("ferro", 12, 4, 3, 40.0),
        ("domain_wall", 10, 4, 3, 2.0),
        ("domain_wall", 11, 5, 2, 40.0),
        ("domain_wall", 12, 3, 1, 60.0),
    ],
)
def test_matches_exact_diagonalization(kind, M, N, n, beta):
    want = edoracle.oracle_correlator(kind, M, N, n, beta).real
    assert math.exp(_log_ref(kind, M, N, n, beta)) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "kind,M,N,n,beta",
    [
        ("ferro", 12, 10, 1, 40.0),
        ("ferro", 24, 20, 1, 40.0),
        ("ferro", 11, 5, 3, 100.0),
        ("domain_wall", 12, 8, 1, 40.0),
        ("domain_wall", 14, 6, 3, 60.0),
    ],
)
def test_matches_extended_precision_gram(kind, M, N, n, beta):
    want = _mp_gram_value(kind, M, N, n, beta)
    assert math.exp(_log_ref(kind, M, N, n, beta)) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("M,N,n", [(12, 3, 2), (40, 7, 4), (1000, 100, 3)])
def test_beta_zero_is_emptiness_probability(M, N, n):
    efp = xx0core.efp_formfactor(xx0core.ground_state(M, N), n)
    assert math.exp(ref.log_ferro(M, N, n, 0.0)) == pytest.approx(efp, rel=1e-10)
    efp_dw = xx0core.efp_formfactor(xx0core.ground_state(M, N - n), n)
    assert math.exp(ref.log_domain_wall(M, N, n, 0.0)) == pytest.approx(efp_dw, rel=1e-10)


def test_low_temperature_limit_is_squared_emptiness_probability():
    # beta -> infinity projects onto the ground state: <P_n>^2
    efp = xx0core.efp_formfactor(xx0core.ground_state(1000, 100), 3)
    assert ref.log_ferro(1000, 100, 3, 1e4) == pytest.approx(2.0 * math.log(efp), abs=1e-9)
    with pytest.raises(FloatingPointError):
        ref.log_ferro(1000, 100, 3, 1e5)


def _plane_partition_volumes(L, N, P, strict_columns=False):
    """Volumes of all L x N arrays with entries in 0..P, rows weakly and columns (strictly) decreasing."""
    cells = [(i, j) for i in range(L) for j in range(N)]
    out = []
    for values in itertools.product(range(P + 1), repeat=L * N):
        a = dict(zip(cells, values))
        if any(a[i, j] < a[i, j + 1] for i in range(L) for j in range(N - 1)):
            continue
        if strict_columns:
            if any(a[i, j] <= a[i + 1, j] for i in range(L - 1) for j in range(N)):
                continue
        elif any(a[i, j] < a[i + 1, j] for i in range(L - 1) for j in range(N)):
            continue
        out.append(sum(values))
    return out


def _as_series(volumes, lowest=0):
    coeffs = [0] * (max(volumes) - lowest + 1)
    for v in volumes:
        coeffs[v - lowest] += 1
    return coeffs


@pytest.mark.parametrize("L,N,P", [(1, 1, 3), (2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 2, 3)])
def test_box_series_matches_enumeration(L, N, P):
    want = _as_series(_plane_partition_volumes(L, N, P))
    got = ref.box_series(L, N, P)
    assert got == want
    assert got == got[::-1] and len(got) == L * N * P + 1
    assert sum(got) == ref.box_count(L, N, P)
    assert ref.log_box_count(L, N, P) == pytest.approx(math.log(ref.box_count(L, N, P)), rel=1e-13)


@pytest.mark.parametrize("N,P", [(1, 3), (2, 1), (2, 3), (3, 2), (3, 3)])
def test_cspp_series_matches_enumeration(N, P):
    lowest, got = ref.cspp_series(N, P)
    volumes = _plane_partition_volumes(N, N, P, strict_columns=True)
    assert lowest == min(volumes)
    assert got == _as_series(volumes, lowest)
    assert got == got[::-1]
    assert sum(got) == ref.cspp_count(N, P)
    assert ref.log_cspp_count(N, P) == pytest.approx(math.log(ref.cspp_count(N, P)), rel=1e-13)


def test_series_json_form():
    assert ref.series_to_json(3, [1, 0, 2]) == {"3": "1", "5": "2"}
