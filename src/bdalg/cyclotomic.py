"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as rational combinations of the N-th roots of unity
zeta_N^e, 0 <= e < N.  Sums, products and conjugates work on these raw terms.
Equality, hashing, the zero and rational tests and the JSON form all read one
canonical form, computed on demand and cached: the value written on the
Zumbroich basis of Q(zeta_n) at its conductor n, the least order whose field
holds the value (never 2 mod 4; 1 for rationals).  This is the basis GAP uses
(W. Bosma, "Canonical bases for cyclotomic fields", AAECC 1, 1990; T. Breuer,
"Integral bases for subfields of cyclotomic fields", AAECC 8, 1997), so equal
values have equal canonical terms.

No arithmetic here reduces modulo Phi_N.  cyclotomic_polynomial stays public and
cached for the test oracle, which decides equality modulo Phi_N independently
of the canonical form, and for the benchmark's tracer, which reads its cache.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .supernatural import _is_int, factorize


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    X^n - 1 divided exactly by the (monic) cyclotomic polynomials of the
    proper divisors of n.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            for i in range(len(poly) - 1, k - 1, -1):  # poly[i] is a quotient coefficient
                for j, c in enumerate(den[:k]):
                    poly[i - k + j] -= poly[i] * c
            assert not any(poly[:k]), "division is not exact"
            poly = poly[k:]
    return tuple(poly)


# ---------------------------------------------------------------------------
# the canonical form: the Zumbroich basis at the conductor

@functools.lru_cache(maxsize=None)
def _local(n: int) -> tuple:
    """(p, p^k, (n/p^k)^-1 mod p^k) for every prime power p^k exactly dividing n."""
    return tuple((p, p ** k, pow(n // p ** k, -1, p ** k)) for p, k in factorize(n).items())


def _normal(order: int, terms: dict) -> tuple:
    """(n, terms): the value sum c * zeta_order^e on the Zumbroich basis of
    Q(zeta_n), n its conductor.

    zeta_N^e is a basis element when, for every p^k exactly dividing N, the
    leading base-p digit of the local exponent e * (N/p^k)^-1 mod p^k is not 0
    (p odd) or not 1 (p = 2).  Other roots are rewritten one prime at a time by
    sum_{b<p} zeta_N^(e + b*N/p) = 0, which changes only that digit.  Then N
    steps down by p while the value lies in Q(zeta_(N/p)): when p divides every
    exponent (p^2 | N or p = 2), or, for odd p exactly dividing N, when the
    coefficients agree along each relation.

    >>> _normal(4, {0: 1, 2: 1})
    (1, {})
    >>> _normal(6, {1: 1})
    (3, {2: -1})
    """
    n = order
    for p, q, inv in _local(n):
        bad, top, step = int(p == 2), q // p, n // p
        out: dict = {}
        for e, c in terms.items():
            if e * inv % q // top == bad:
                for b in range(1, p):
                    f = (e + b * step) % n
                    out[f] = out[f] - c if f in out else -c
            else:
                out[e] = out[e] + c if e in out else c
        terms = {e: c for e, c in out.items() if c}
    while True:
        for p, q, inv in _local(n):
            if q > p or p == 2:
                if all(e % p == 0 for e in terms):
                    n, terms = n // p, {e // p: c for e, c in terms.items()}
                    break
            else:
                orbits: dict = {}  # orbit base (local digit 0) -> coefficients
                for e, c in terms.items():
                    orbits.setdefault((e - e * inv % p * (n // p)) % n, []).append(c)
                if all(cs.count(cs[0]) == p - 1 for cs in orbits.values()):
                    n, terms = n // p, {e // p: -cs[0] for e, cs in orbits.items()}
                    break
        else:
            return n, terms


# ---------------------------------------------------------------------------

def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


def _as_cyclo(c) -> "Cyclo":
    """A Cyclo as is; an exact rational as a Cyclo of order 1."""
    return c if isinstance(c, Cyclo) else Cyclo.from_rational(c)


# Bits beyond which to_complex refuses to work: the cost grows faster than
# linearly in the precision, and the result is rounded to a double anyway.
_MAX_PRECISION = 10_000

# Orders beyond which Cyclo refuses to work: the canonical form factors the
# order by trial division, and the rational 1 alone takes p - 1 terms on the
# basis at a prime order p.
_MAX_ORDER = 10 ** 6


class Cyclo:
    """A number in Q(zeta_order) on the root-of-unity basis.

    Immutable by convention; ``terms`` maps exponents in [0, order) to nonzero
    rational coefficients.  Equal values may have different ``order`` and
    ``terms``; ``==``, ``hash`` and ``to_json`` read the canonical form.
    Orders above _MAX_ORDER, given or reached as the lcm of two orders, are
    refused with ValueError.
    """

    __slots__ = ("order", "terms", "_canon")

    def __init__(self, order: int, terms=None):
        if order < 1:
            raise ValueError("order must be positive")
        if order > _MAX_ORDER:
            raise ValueError(f"order above {_MAX_ORDER}")
        clean: dict = {}
        for e, c in (terms or {}).items():
            e, c = int(e) % order, _as_fraction(c)
            clean[e] = clean[e] + c if e in clean else c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, *args):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, order: int, terms: dict) -> "Cyclo":
        """Trusted constructor: exponents already in [0, order), no zero coeffs."""
        self = cls.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_canon", None)
        return self

    @classmethod
    def from_rational(cls, c) -> "Cyclo":
        return cls(1, {0: _as_fraction(c)})

    @classmethod
    def zero(cls) -> "Cyclo":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclo":
        return cls.from_rational(1)

    # -- the canonical form ------------------------------------------------------

    def _form(self) -> tuple:
        """(conductor, terms on the Zumbroich basis), computed once."""
        if self._canon is None:
            object.__setattr__(self, "_canon", _normal(self.order, self.terms))
        return self._canon

    def is_zero(self) -> bool:
        if len(self.terms) < 2:
            return not self.terms  # a nonzero multiple of one root of unity is nonzero
        return not self._form()[1]

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        n, terms = self._form()
        return terms.get(0, Fraction(0)) if n == 1 else None

    # -- arithmetic -----------------------------------------------------------

    def _pair(self, other):
        """(n, terms of self, terms of other) in Q(zeta_n), n the lcm of the orders.

        An operand whose canonical form is known and shorter than its raw
        terms enters on the canonical form."""
        other = _as_cyclo(other)  # raises TypeError if not rational
        (m, a), (k, b) = [x._canon if x._canon and len(x._canon[1]) < len(x.terms)
                          else (x.order, x.terms) for x in (self, other)]
        if m == k:
            return m, a, b
        n = math.lcm(m, k)
        if n > _MAX_ORDER:
            raise ValueError(f"order above {_MAX_ORDER}")
        return (n, {e * (n // m): c for e, c in a.items()} if m < n else a,
                {e * (n // k): c for e, c in b.items()} if k < n else b)

    def __add__(self, other):
        try:
            n, terms, b = self._pair(other)
        except TypeError:
            return NotImplemented
        terms = dict(terms)
        for e, c in b.items():
            s = terms[e] + c if e in terms else c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Cyclo._raw(n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._raw(self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        try:
            return self + -_as_cyclo(other)
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            try:
                c = _as_fraction(other)
            except TypeError:
                return NotImplemented
            if not c:
                return Cyclo._raw(self.order, {})
            return Cyclo._raw(self.order, {e: v * c for e, v in self.terms.items()})
        n, a, b = self._pair(other)
        terms: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                s = terms[e] + c1 * c2 if e in terms else c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Cyclo._raw(n, terms)

    __rmul__ = __mul__

    def conj(self) -> "Cyclo":
        """Complex conjugation, zeta^e -> zeta^(order - e); a ring automorphism."""
        return Cyclo._raw(self.order,
                          {(-e) % self.order: c for e, c in self.terms.items()})

    def inverse(self) -> "Cyclo":
        """1/x: the product of the conjugates zeta^e -> zeta^(a*e), 1 < a < N
        coprime to N, divided by the rational norm.  x is taken on the raw or
        the canonical terms, whichever are fewer, at their order N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n, x = min((self.order, self.terms), self._form(), key=lambda f: len(f[1]))
        if len(x) == 1:
            (e, c), = x.items()
            return Cyclo._raw(n, {(-e) % n: 1 / c})
        others = Cyclo.one()
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                p = others * Cyclo._raw(n, {a * e % n: c for e, c in x.items()})
                others = Cyclo._raw(*_normal(p.order, p.terms))
        return others * (1 / (self * others).as_rational())

    def __truediv__(self, other):
        return self * _as_cyclo(other).inverse()

    # -- numerics --------------------------------------------------------------

    def to_complex(self, precision: int = 53) -> complex:
        """Floating point value; error is about (#terms * max|coeff|) * 2^(1-precision).

        Precisions beyond 53 bits use mpmath internally and round the result
        back to a double; fewer than 1 or more than _MAX_PRECISION bits are
        refused.
        """
        if precision < 1:
            raise ValueError("precision must be >= 1 bit")
        if precision > _MAX_PRECISION:
            raise ValueError(f"precision above {_MAX_PRECISION} bits")
        if precision <= 53:
            re = im = 0.0
            for e, c in self.terms.items():
                t = 2.0 * math.pi * e / self.order
                cf = float(c)
                re += cf * math.cos(t)
                im += cf * math.sin(t)
            return complex(re, im)
        import mpmath
        with mpmath.workprec(precision + 10):
            z = mpmath.mpc(0)
            for e, c in self.terms.items():
                z += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                    mpmath.mpf(2 * e) / self.order)
            return complex(float(z.real), float(z.imag))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # -- comparison / io ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self.order == other.order and self.terms == other.terms:
            return True  # the same raw terms: no need for the canonical form
        return self._form() == other._form()

    def __hash__(self):
        n, terms = self._form()
        return hash(terms.get(0, 0)) if n == 1 else hash((n, frozenset(terms.items())))

    def to_json(self) -> dict:
        """The canonical form: {"order": conductor, "terms": [[e, "p/q"], ...]}."""
        n, terms = self._form()
        return {"order": n, "terms": [[e, str(c)] for e, c in sorted(terms.items())]}

    @classmethod
    def from_json(cls, obj) -> "Cyclo":
        if not isinstance(obj, dict) or set(obj) != {"order", "terms"}:
            raise ValueError('cyclotomic value must be {"order": N, "terms": [...]}')
        if not _is_int(obj["order"]):
            raise ValueError("order must be an integer")
        if not isinstance(obj["terms"], list):
            raise ValueError("terms must be a list of [exponent, coefficient] pairs")
        terms = {}
        for it in obj["terms"]:
            if not isinstance(it, list) or len(it) != 2:
                raise ValueError("terms must be [exponent, coefficient] pairs")
            if not _is_int(it[0]):
                raise ValueError("exponents must be integers")
            if not (_is_int(it[1]) or isinstance(it[1], str)):
                raise ValueError("coefficients must be integers or exact rational strings")
            terms[it[0]] = Fraction(it[1])
        return cls(obj["order"], terms)

    def __repr__(self):
        if not self.terms:
            return "Cyclo(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.order}^{e}")
        return "Cyclo(" + " + ".join(parts) + ")"


def root_of_unity(k: int, n: int) -> Cyclo:
    """zeta_n^k, with k reduced mod n; root_of_unity(0, n) is 1.

    >>> root_of_unity(2, 4) == -1
    True
    >>> root_of_unity(2, 6) == root_of_unity(1, 3)
    True
    """
    if n < 1:
        raise ValueError("order must be positive")
    return Cyclo(n, {k % n: Fraction(1)})
