"""Exact arithmetic in the formal variable q.

Laurent polynomials with arbitrary-precision integer coefficients carry all
q-combinatorics: Gaussian (q-)binomial coefficients, the q-Vandermonde
convolution, binomial and q-binomial determinants, and a fraction-free
determinant over the Laurent ring.  Identities in this layer are checked as
coefficient-wise equalities, never by sampling q numerically.

Everything runs on Python integers, and all heavy arithmetic on one packed
form: a dense coefficient list evaluated at X = 2^(8*nb), read as balanced
base-X digits (:func:`_pack`, :func:`_unpack`).  Evaluation at X is a ring
homomorphism, and a polynomial whose coefficients all lie below X/2 in
absolute value is recovered exactly from its value at X.  So each operation
picks a width nb that provably bounds its result, does one integer operation
and unpacks once:

- a product is one big-integer multiplication (Kronecker substitution);
- exact division is one ``divmod``, widened until the quotient provably
  multiplies back, and raises on a nonzero remainder;
- a determinant over the Laurent ring is the integer Bareiss elimination of
  the packed matrix (:func:`_packed_det`).  :func:`exact_det` takes its width
  from a Hadamard-type bound; :func:`q_binomial_determinant` from the value
  at q = 1, which bounds every coefficient of a lattice-path generating
  function, and checks the result against it.

One integer Bareiss elimination gives every determinant: over Z, over the
Laurent ring on the packed matrix, and over Q with rationals cleared to integers.

Products of factors 1 - q^a over 1 - q^b (Gaussian binomials, q-factorials,
box series) are expanded on one plain coefficient list in stages whose every
prefix is a polynomial, so that each division is exact and the list stays near
the answer's length (:func:`_q_ratio`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, isqrt, lcm, prod

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
    "vandermonde",
]


def exact_half(n: int) -> int:
    """Halve an integer that is provably even; parity failure is a bug."""
    if n % 2:
        raise ArithmeticError(f"exponent {n} is odd; expected an even integer")
    return n // 2


def _pack(v: list[int], nb: int) -> int:
    """The coefficient list v (lowest first) evaluated at X = 256**nb.

    Each coefficient becomes one balanced base-X digit, so every |c| must be
    below X/2; adding X/2 to each makes it an nb-byte unsigned digit.
    """
    half = 1 << (8 * nb - 1)
    digits = b"".join((c + half).to_bytes(nb, "little") for c in v)
    return int.from_bytes(digits, "little") - int.from_bytes(half.to_bytes(nb, "little") * len(v), "little")


def _unpack(x: int, n: int, nb: int) -> list[int]:
    """The n balanced base-256**nb digits of x, lowest first, each in [-X/2, X/2).

    Inverse of :func:`_pack`; raises OverflowError when x has no n-digit form.
    """
    half = 1 << (8 * nb - 1)
    buf = (x + int.from_bytes(half.to_bytes(nb, "little") * n, "little")).to_bytes(n * nb, "little")
    return [int.from_bytes(buf[i:i + nb], "little") - half for i in range(0, n * nb, nb)]


class LaurentPoly:
    """Immutable Laurent polynomial in q with integer coefficients.

    Stored densely as the lowest exponent and the list of coefficients from
    there up, trimmed so that both ends are nonzero; the zero polynomial is
    (0, []).  Exponents may be negative.  Arithmetic mixes freely with ints.
    Products and exact division run on the packed form of the coefficient
    lists (see :func:`_pack`).  Division exists only as :meth:`exact_div`,
    which insists on a quotient with integer coefficients and raises
    otherwise.
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
        # Kronecker substitution: every product coefficient is at most
        # max|a| * max|b| * min(len a, len b), so one width holds them all.
        nb = (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length() // 8 + 1
        v = _unpack(_pack(a, nb) * _pack(b, nb), len(a) + len(b) - 1, nb)
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
        """The quotient c with c * other == self; ExactDivisionError if there is none.

        With a and b the dense coefficient lists of self and other, c has
        n = len(a) - len(b) + 1 coefficients.  Both are packed at X = 256**nb
        (nb from max|a| and max|b|) and divided by one ``divmod``:

        - A nonzero remainder raises, at any width: a = b*c would give
          a(X) = b(X)*c(X).
        - Otherwise c is the quotient's n balanced digits.  It is accepted
          when max|c| * max|b| * min(n, len b) + max|a| < X/2: then every
          coefficient of c*b - a is below X/2 in absolute value and
          (c*b - a)(X) = 0, so c*b - a is zero.
        - Otherwise the width doubles and the division is retried, up to a
          cap.  A true quotient obeys Mignotte's bound
          max|c| <= 2^(n-1) * ||a||_2, so it passes the acceptance test once
          8*nb >= n + 1 plus the bit lengths of ||a||_2, max|b| and
          min(n, len b); a failure at that width raises.
        """
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        a, b = self._v, o._v
        if not a:
            return _ZERO
        n = len(a) - len(b) + 1
        if n < 1:
            raise ExactDivisionError("quotient would not be polynomial")
        ma, mb, m = max(map(abs, a)), max(map(abs, b)), min(n, len(b))
        norm_bits = (sum(map(operator.mul, a, a)).bit_length() + 1) // 2  # ||a||_2 < 2**norm_bits
        cap = (n + 1 + norm_bits + mb.bit_length() + m.bit_length() + 7) // 8
        nb = max(ma, mb).bit_length() // 8 + 1
        while True:
            c, r = divmod(_pack(a, nb), _pack(b, nb))
            if r:
                raise ExactDivisionError("inexact polynomial division (nonzero remainder)")
            try:
                v = _unpack(c, n, nb)
            except OverflowError:  # more than n digits: not the quotient yet
                v = None
            if v is not None and max(map(abs, v)) * mb * m + ma < 1 << (8 * nb - 1):
                return LaurentPoly._new(self._lo - o._lo, v)
            if nb >= cap:
                raise ExactDivisionError("inexact polynomial division (quotient exceeds Mignotte's bound)")
            nb = min(2 * nb, cap)

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


def _q_ratio(stages) -> LaurentPoly:
    """prod over stages (as, bs) of prod (1 - q^a) / prod (1 - q^b), on one integer list:
    1 - q^a multiplies by shift-and-subtract, 1 - q^b divides by a stride-b prefix sum
    whose top b entries (the remainder) must vanish.  Every prefix product of the stages
    must be a polynomial, so the list never grows past a prefix times one stage's numerators
    (all numerators first would double a cube's degree, with large alternating coefficients)."""
    c, deg = [1], 0
    for nums, dens in stages:
        c[deg + 1:] = [0] * sum(nums)
        for a in nums:
            deg += a
            c[a:deg + 1] = [x - y for x, y in zip(c[a:deg + 1], c[:deg + 1 - a])]
        for b in dens:
            for r in range(b):  # the prefix sum runs along each residue class mod b
                c[r:deg + 1:b] = accumulate(c[r:deg + 1:b])
            if deg < b or any(c[deg - b + 1:deg + 1]):
                raise ExactDivisionError(f"product failed to divide by 1 - q^{b}")
            deg -= b
    return LaurentPoly._new(0, c[:deg + 1])


def q_factorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n] = prod_{i<=n} (1 - q^i) / (1 - q), stage by stage, with [0]! = 1."""
    if n < 0:
        raise ValueError("q-factorial requires n >= 0")
    return _q_ratio(((i,), (1,)) for i in range(1, n + 1))


@lru_cache(maxsize=1024)
def q_binomial(n: int, r: int) -> LaurentPoly:
    """Gaussian binomial coefficient [n, r], MacMahon's product for an r x (n-r) x 1 box.

    prod_{i<=k} (1 - q^(n-k+i)) / (1 - q^i) with k = min(r, n-r), expanded
    by _q_ratio one stage per i (prefix [n-k+i, i]) and memoized on (n, k).
    Returns 0 for r < 0 or r > n; at q=1 it reduces to comb(n, r).
    """
    if n < 0:
        raise ValueError("q-binomial requires n >= 0")
    if r < 0 or r > n:
        return _ZERO
    k = min(r, n - r)
    return q_binomial(n, k) if k < r else _q_ratio(((n - k + i,), (i,)) for i in range(1, k + 1))


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
    return _bareiss(rows)


def q_binomial_determinant(t: IndexTuples) -> LaurentPoly:
    """det( [a_j, b_i]_q ) over the exact Laurent ring, packed at the width of its value at q = 1.

    It is the area generating function of non-intersecting lattice paths
    (Gessel & Viennot, Adv. Math. 58, 1985).  Take the points A_j = (0, -a_j)
    and B_i = (b_i, -b_i), unit steps east and north, and give each north step
    at column x the weight q^x.  A path from A_j to B_i makes b_i east and
    a_j - b_i north steps, so its weights run over the partitions in a
    (a_j - b_i) x b_i box and sum to exactly [a_j, b_i]_q, with no offset.
    As a and b strictly increase, a family of pairwise non-intersecting paths
    A_j -> B_i exists only for the identity permutation, so the determinant is
    the weight sum over such families: every coefficient is non-negative and
    at most the value at q = 1, :func:`binomial_determinant`, a Bareiss on
    small integers.  That value sizes the packing (widened to hold the
    entries) instead of :func:`exact_det`'s Hadamard bound, about half as many
    bits.  If it is 0 the determinant is 0.  The unpacked coefficients must be
    non-negative and sum to it; otherwise, or if they do not unpack, the
    determinant is redone at the Hadamard width.
    """
    n = t.size
    rows = [[q_binomial(t.a[j], t.b[i]) for j in range(n)] for i in range(n)]
    at_one = binomial_determinant(t)
    if not at_one:
        return _ZERO
    top = max((max(x._v) for r in rows for x in r if x._v), default=0)
    try:
        det = _packed_det(rows, max(at_one, top).bit_length() // 8 + 1)
    except OverflowError:
        det = None
    if det is None or det.at_one() != at_one or min(det._v) < 0:
        return exact_det(rows)
    return det


# -- determinants ------------------------------------------------------


def vandermonde(coords):
    """prod_{m<l} (x_m - x_l), i.e. det of the decreasing-power moment matrix."""
    return prod(a - b for a, b in combinations(coords, 2))


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
    """Exact determinant of a square LaurentPoly matrix, by integer Bareiss.

    Each row gives up q^(its lowest exponent), which leaves a polynomial
    matrix A(q) with det A = q^(-sum of those exponents) * det m.  Evaluation
    at X = 256**nb is a ring homomorphism, so det(A)(X) = det(A(X)): the
    entries are packed at one width and eliminated as plain ints, and the
    result is unpacked once.  The width is rigorous when every coefficient of
    det A is below X/2 in absolute value, and

        max|coeff| <= ||det A||_2 <= max over |z| = 1 of |det A(z)|
                   <= prod_i sqrt(sum_j ||a_ij||_1^2)

    (Parseval, then Hadamard's inequality with |a_ij(z)| <= ||a_ij||_1); the
    same holds over columns, and the smaller bound is taken.  It also bounds
    every entry's coefficients, so the entries pack at that width.  A zero
    row or column gives 0.  :func:`det_by_minors` is the independent test
    oracle.
    """
    rows = _as_laurent_rows(m)
    l1 = [[sum(map(abs, x._v)) for x in r] for r in rows]
    bound2 = min(prod(sum(t * t for t in r) for r in l1), prod(sum(t * t for t in c) for c in zip(*l1)))
    if not bound2:
        return _ZERO
    return _packed_det(rows, isqrt(bound2).bit_length() // 8 + 1)  # X/2 > isqrt(bound2) iff X/2 > sqrt(bound2)


def _packed_det(rows: list[list[LaurentPoly]], nb: int) -> LaurentPoly:
    """det of square LaurentPoly rows, none of them zero, by integer Bareiss at X = 256**nb.

    Exact when every coefficient of the entries and of the determinant lies in
    [-X/2, X/2).  A wider entry raises OverflowError in :func:`_pack`; a wider
    determinant raises it in :func:`_unpack` or unpacks to wrong digits.
    """
    los = [min(x._lo for x in r if x._v) for r in rows]
    packed = [[_pack(x._v, nb) << (8 * nb * (x._lo - lo)) if x._v else 0 for x in r] for r, lo in zip(rows, los)]
    ndigits = 1 + sum(max(x._lo + len(x._v) for x in r if x._v) - 1 - lo for r, lo in zip(rows, los))
    return LaurentPoly._new(sum(los), _unpack(_bareiss(packed), ndigits, nb))


def _bareiss(a: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in place.

    Every division is exact in exact arithmetic; each one is checked, and a
    nonzero remainder raises ExactDivisionError.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j], rem = divmod(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
                if rem:
                    raise ExactDivisionError("integer Bareiss division not exact")
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


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
    """Exact determinant of an int/Fraction matrix: integer Bareiss on the rows
    cleared by the lcm of their denominators, divided by the product of those lcms."""
    from fractions import Fraction  # here only: fractions loads decimal, which nothing else here needs

    a = [[Fraction(x) for x in r] for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix must be square")
    scales = [lcm(*(x.denominator for x in r)) for r in a]
    ints = [[x.numerator * (s // x.denominator) for x in r] for r, s in zip(a, scales)]
    return Fraction(_bareiss(ints), prod(scales))
