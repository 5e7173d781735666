"""Exact arithmetic in the formal variable q.

Laurent polynomials with arbitrary-precision integer coefficients carry all
q-combinatorics: Gaussian (q-)binomial coefficients, the q-Vandermonde
convolution, binomial and q-binomial determinants, and a fraction-free
determinant over the Laurent ring.  Identities in this layer are checked as
coefficient-wise equalities, never by sampling q numerically.

Everything runs on Python integers.  A polynomial is a dense coefficient
list; products go through one big-integer multiplication (Kronecker
substitution) and exact division is integer long division that raises on a
non-integer quotient coefficient or a nonzero remainder.  One Bareiss
elimination, parameterised by the ring's exact division, gives the
determinants over the integers, the rationals and the Laurent ring.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ExactDivisionError

__all__ = [
    "LaurentPoly",
    "q",
    "exact_half",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_vandermonde",
    "es_special_R",
    "es_special_L",
    "IndexTuples",
    "binomial_determinant",
    "q_binomial_determinant",
    "exact_det",
    "det_by_minors",
    "exact_det_rational",
]


def exact_half(n: int) -> int:
    """Halve an integer that is provably even; parity failure is a bug."""
    if n % 2:
        raise ArithmeticError(f"exponent {n} is odd; expected an even integer")
    return n // 2


class LaurentPoly:
    """Immutable Laurent polynomial in q with integer coefficients.

    Stored densely as the lowest exponent and the list of coefficients from
    there up, trimmed so that both ends are nonzero; the zero polynomial is
    (0, []).  Exponents may be negative.  Arithmetic mixes freely with ints.
    Division exists only as :meth:`exact_div`, which insists on an integer
    quotient and a zero remainder.
    """

    __slots__ = ("_lo", "_v")

    def __init__(self, coeffs=None):
        c = {int(e): int(v) for e, v in coeffs.items()} if coeffs else {}
        lo = min(c, default=0)
        v = [0] * (max(c, default=lo - 1) - lo + 1)
        for e, x in c.items():
            v[e - lo] = x
        trimmed = LaurentPoly._new(lo, v)
        self._lo, self._v = trimmed._lo, trimmed._v

    @staticmethod
    def _new(lo: int, v: list[int]) -> "LaurentPoly":
        """Wrap a dense coefficient list starting at exponent lo, trimming zero ends."""
        start, stop = 0, len(v)
        while stop and not v[stop - 1]:
            stop -= 1
        while start < stop and not v[start]:
            start += 1
        out = LaurentPoly.__new__(LaurentPoly)
        out._lo, out._v = (lo + start, v[start:stop]) if stop else (0, [])
        return out

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._v

    def __bool__(self) -> bool:
        return bool(self._v)

    def support(self) -> list[int]:
        return [self._lo + i for i, v in enumerate(self._v) if v]

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._lo
        return self._v[i] if 0 <= i < len(self._v) else 0

    def coeffs(self) -> dict[int, int]:
        return {self._lo + i: v for i, v in enumerate(self._v) if v}

    def min_exponent(self) -> int:
        if not self._v:
            raise ValueError("zero polynomial has no exponents")
        return self._lo

    def degree(self) -> int:
        if not self._v:
            raise ValueError("zero polynomial has no degree")
        return self._lo + len(self._v) - 1

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._v or not self._v:
            return self if self._v else o
        lo = min(self._lo, o._lo)
        v = [0] * (max(self._lo + len(self._v), o._lo + len(o._v)) - lo)
        for p in (self, o):
            for i, c in enumerate(p._v, p._lo - lo):
                v[i] += c
        return LaurentPoly._new(lo, v)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._new(self._lo, [-v for v in self._v])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._v, o._v
        if not a or not b:
            return _ZERO
        # Kronecker substitution: evaluate both factors at 256**nb, multiply
        # the two integers and read the product's coefficients back as its
        # base-256**nb digits.  Every product coefficient is below half in
        # absolute value, so adding half to each digit keeps it in range.
        n = len(a) + len(b) - 1
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        nb = bound.bit_length() // 8 + 1
        half = 1 << (8 * nb - 1)
        bias = half.to_bytes(nb, "little")

        def pack(v):
            digits = b"".join((c + half).to_bytes(nb, "little") for c in v)
            return int.from_bytes(digits, "little") - int.from_bytes(bias * len(v), "little")

        buf = (pack(a) * pack(b) + int.from_bytes(bias * n, "little")).to_bytes(n * nb, "little")
        v = [int.from_bytes(buf[i:i + nb], "little") - half for i in range(0, n * nb, nb)]
        return LaurentPoly._new(self._lo + o._lo, v)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self._v) == 1 and self._v[0] in (1, -1):
                return LaurentPoly({self._lo * k: self._v[0] if k % 2 else 1})
            raise ValueError("negative powers only for unit monomials")
        result = LaurentPoly({0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._lo == o._lo and self._v == o._v

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        return LaurentPoly._new(self._lo + k, self._v)

    # -- evaluation -----------------------------------------------------

    def at_one(self) -> int:
        return sum(self._v)

    def evaluate(self, x):
        """Evaluate at a numeric point (complex, float, Fraction, int)."""
        total = 0
        for e, v in self.coeffs().items():
            total += v * x**e
        return total

    def exact_div(self, other) -> "LaurentPoly":
        """Exact division by integer long division.

        Raises ExactDivisionError when a quotient coefficient is not an
        integer or the remainder is nonzero.
        """
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        num, den = list(self._v), o._v
        dd = len(den) - 1
        if len(num) <= dd:
            raise ExactDivisionError("quotient would not be polynomial")
        lead, low = den[-1], den[:-1]
        quot = [0] * (len(num) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c, r = divmod(num[k + dd], lead)
            if r:
                raise ExactDivisionError("quotient has non-integer coefficients")
            if c:
                quot[k] = c
                num[k:k + dd] = [x - c * d for x, d in zip(num[k:k + dd], low)]
        if any(num[:dd]):
            raise ExactDivisionError("inexact polynomial division (nonzero remainder)")
        return LaurentPoly._new(self._lo - o._lo, quot)

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict[str, str]:
        """Bit-exact JSON form: {exponent(str): coefficient(decimal str)}."""
        return {str(e): str(v) for e, v in self.coeffs().items()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        return cls({int(e): int(v) for e, v in obj.items()})

    def __repr__(self):
        if not self._v:
            return "0"
        terms = []
        for e, v in self.coeffs().items():
            if e == 0:
                terms.append(f"{v}")
            elif e == 1:
                terms.append("q" if v == 1 else ("-q" if v == -1 else f"{v}*q"))
            else:
                base = f"q^{e}"
                terms.append(base if v == 1 else (f"-{base}" if v == -1 else f"{v}*{base}"))
        return " + ".join(terms).replace("+ -", "- ")


#: the formal variable
q = LaurentPoly({1: 1})

_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def q_number(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-number requires n >= 0")
    return LaurentPoly({e: 1 for e in range(n)})


def q_factorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n] with [0]! = 1."""
    if n < 0:
        raise ValueError("q-factorial requires n >= 0")
    out = _ONE
    for k in range(2, n + 1):
        out = out * q_number(k)
    return out


@lru_cache(maxsize=None)
def q_binomial(n: int, r: int) -> LaurentPoly:
    """Gaussian binomial coefficient via the Pascal recursion.

    Returns 0 for r < 0 or r > n; at q=1 it reduces to comb(n, r).  The
    quotient-of-factorials form is kept as a test oracle only, so no
    intermediate rational functions ever appear.
    """
    if n < 0:
        raise ValueError("q-binomial requires n >= 0")
    if r < 0 or r > n:
        return _ZERO
    if r == 0 or r == n:
        return _ONE
    return q_binomial(n - 1, r - 1) + LaurentPoly.monomial(1, r) * q_binomial(n - 1, r)


def q_vandermonde(N: int, Np: int, r: int) -> LaurentPoly:
    """Convolution sum_j q^((N-j)(r-j)) [N,j][N',r-j]; equals [N+N', r]."""
    if N < 0 or Np < 0 or r < 0:
        raise ValueError("q-Vandermonde requires non-negative arguments")
    out = _ZERO
    for j in range(0, min(r, N) + 1):
        out = out + LaurentPoly.monomial(1, (N - j) * (r - j)) * q_binomial(N, j) * q_binomial(Np, r - j)
    return out


def es_special_R(r: int, N: int) -> LaurentPoly:
    """R_r(N) = q^(r(r-1)/2) [N, r]: e_r at the points (1, q, ..., q^(N-1))."""
    if r < 0:
        raise ValueError("order must be non-negative")
    return LaurentPoly.monomial(1, exact_half(r * (r - 1))) * q_binomial(N, r)


def es_special_L(r: int, N: int) -> LaurentPoly:
    """L_r(N) = q^(r(r+1)/2) [N, r]: e_r at the points (q, q^2, ..., q^N)."""
    if r < 0:
        raise ValueError("order must be non-negative")
    return LaurentPoly.monomial(1, exact_half(r * (r + 1))) * q_binomial(N, r)


@dataclass(frozen=True)
class IndexTuples:
    """Two strictly increasing non-negative tuples of equal length."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        b = tuple(int(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise ValueError("index tuples must have equal length")
        for t in (a, b):
            if any(x < 0 for x in t):
                raise ValueError("index tuples must be non-negative")
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError("index tuples must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.a)


def binomial_determinant(t: IndexTuples) -> int:
    """det( C(a_j, b_i) ) as an exact integer."""
    n = t.size
    rows = [[comb(t.a[j], t.b[i]) for j in range(n)] for i in range(n)]
    return _bareiss(rows, _int_div, 1)


def q_binomial_determinant(t: IndexTuples) -> LaurentPoly:
    """det( [a_j, b_i]_q ) over the exact Laurent ring."""
    n = t.size
    rows = [[q_binomial(t.a[j], t.b[i]) for j in range(n)] for i in range(n)]
    return exact_det(rows)


# -- determinants ------------------------------------------------------


def _as_laurent_rows(m) -> list[list[LaurentPoly]]:
    rows = []
    for r in m:
        row = []
        for x in r:
            if isinstance(x, LaurentPoly):
                row.append(x)
            elif isinstance(x, int):
                row.append(LaurentPoly({0: x}))
            else:
                raise TypeError(f"matrix entries must be LaurentPoly or int, got {type(x)!r}")
        rows.append(row)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def exact_det(m) -> LaurentPoly:
    """Exact determinant of a square LaurentPoly matrix (Bareiss elimination).

    Every interior division is exact by construction; :func:`det_by_minors`
    is the independent test oracle.
    """
    return _bareiss(_as_laurent_rows(m), LaurentPoly.exact_div, _ONE)


def _bareiss(a: list, div, one):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in place.

    Works over any ring whose elements support *, - and truth testing;
    div(x, y) is the ring's exact division and one its unit.
    """
    n = len(a)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = div(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def _int_div(x: int, y: int) -> int:
    quot, rem = divmod(x, y)
    if rem:
        raise ExactDivisionError("integer Bareiss division not exact")
    return quot


def det_by_minors(m) -> LaurentPoly:
    """Laplace expansion with memoization over column subsets (sizes <= ~8)."""
    rows = _as_laurent_rows(m)
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(r: int, cols: tuple[int, ...]) -> LaurentPoly:
        if not cols:
            return _ONE
        total = _ZERO
        for idx, c in enumerate(cols):
            piv = rows[r][c]
            if piv.is_zero():
                continue
            rest = cols[:idx] + cols[idx + 1:]
            term = piv * minor(r + 1, rest)
            total = total + (term if idx % 2 == 0 else -term)
        return total

    return minor(0, tuple(range(n)))


def exact_det_rational(rows) -> Fraction:
    """Exact determinant of an int/Fraction matrix (Bareiss over Q)."""
    a = [[Fraction(x) for x in r] for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix must be square")
    return _bareiss(a, operator.truediv, Fraction(1))
