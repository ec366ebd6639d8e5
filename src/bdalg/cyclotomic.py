"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as rational combinations of the N-th roots of unity
zeta_N^e, 0 <= e < N (the group-algebra basis).  The zero test, and hence
equality, reduces the representing polynomial modulo the N-th cyclotomic
polynomial; values of different orders are first lifted into Q(zeta_lcm).
This is exact and plenty fast at desk scale (orders up to a few hundred).

The cyclotomic polynomial cache is guarded by ``lru_cache``'s internal lock,
so concurrent readers always see consistent data.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (dense, constant term first)

def _int_poly_exact_div(num: list, den: list) -> list:
    """Exact division of integer polynomials; remainder must vanish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0, "division is not exact"
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert all(c == 0 for c in num), "division is not exact"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Computed by dividing X^n - 1 by the cyclotomic polynomials of the proper
    divisors of n, all exactly.

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
            poly = _int_poly_exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_rem(poly: list, mod: tuple) -> list:
    """Remainder of a Fraction polynomial modulo a monic integer polynomial."""
    rem = list(poly)
    deg_m = len(mod) - 1
    support = [(j, c) for j, c in enumerate(mod) if c and j < deg_m]
    for i in range(len(rem) - 1, deg_m - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j, mc in support:
                rem[i - deg_m + j] -= c * mc
    del rem[deg_m:]
    return rem


# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    """True for a plain integer; bool is an int subclass and is refused."""
    return isinstance(x, int) and not isinstance(x, bool)


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


class Cyclo:
    """A number in Q(zeta_order) on the root-of-unity basis.

    Immutable by convention; ``terms`` maps exponents in [0, order) to nonzero
    rational coefficients.
    """

    __slots__ = ("order", "terms", "_reduced")

    def __init__(self, order: int, terms=None):
        if order < 1:
            raise ValueError("order must be positive")
        clean: dict = {}
        for e, c in (terms or {}).items():
            c = _as_fraction(c)
            if c:
                e = int(e) % order
                c0 = clean.get(e)
                clean[e] = c if c0 is None else c0 + c
                if not clean[e]:
                    del clean[e]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, *args):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, order: int, terms: dict) -> "Cyclo":
        """Trusted constructor: exponents already in [0, order), no zero coeffs."""
        self = cls.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_reduced", None)
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

    # -- representation management ------------------------------------------

    def lift(self, order: int) -> "Cyclo":
        """Re-express in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"{order} is not a multiple of {self.order}")
        k = order // self.order
        return Cyclo._raw(order, {e * k: c for e, c in self.terms.items()})

    def _pair(self, other):
        other = _as_cyclo(other)  # raises TypeError if not rational
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def reduced(self) -> tuple:
        """Canonical coefficients modulo the cyclotomic polynomial (cached)."""
        if self._reduced is None:
            poly = [Fraction(0)] * self.order
            for e, c in self.terms.items():
                poly[e] = c
            rem = _poly_rem(poly, cyclotomic_polynomial(self.order))
            while rem and not rem[-1]:
                rem.pop()
            object.__setattr__(self, "_reduced", tuple(rem))
        return self._reduced

    def canonical(self) -> "Cyclo":
        """The reduced representative on the power basis (exponents < phi(order))."""
        return Cyclo._raw(self.order,
                          {e: c for e, c in enumerate(self.reduced()) if c})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) == 1:
            return False  # a single monomial c*zeta^e with c != 0
        return not self.reduced()

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        red = self.reduced()
        if not red:
            return Fraction(0)
        if len(red) == 1:
            return red[0]
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        try:
            a, b = self._pair(other)
        except TypeError:
            return NotImplemented
        terms = dict(a.terms)
        for e, c in b.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return Cyclo._raw(a.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._raw(self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Cyclo):
            return self + (-other)
        try:
            return self + (-_as_fraction(other))
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
        a, b = self._pair(other)
        n = a.order
        terms: dict = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1 + e2) % n
                if e in terms:
                    s = terms[e] + c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
                else:
                    terms[e] = c1 * c2
        return Cyclo._raw(n, terms)

    __rmul__ = __mul__

    def conj(self) -> "Cyclo":
        """Complex conjugation, zeta^e -> zeta^(order - e); a ring automorphism."""
        return Cyclo._raw(self.order,
                          {(-e) % self.order: c for e, c in self.terms.items()})

    def inverse(self) -> "Cyclo":
        """1/x: the product of the conjugates zeta^e -> zeta^(a*e), 1 < a < order
        coprime to the order, divided by the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.order
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return Cyclo(n, {(-e) % n: 1 / c})
        x = self.canonical().terms
        others = Cyclo._raw(n, {0: Fraction(1)})
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                conj = Cyclo._raw(n, {a * e % n: c for e, c in x.items()})
                others = (others * conj).canonical()
        return (others * (1 / (self * others).as_rational())).canonical()

    def __truediv__(self, other):
        return self * _as_cyclo(other).inverse()

    # -- numerics --------------------------------------------------------------

    def to_complex(self, precision: int = 53) -> complex:
        """Floating point value; error is about (#terms * max|coeff|) * 2^(1-precision).

        Precisions beyond 53 bits use mpmath internally and round the result
        back to a double.
        """
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
        if self.order == other.order:
            if self.terms == other.terms:
                return True
            return self.reduced() == other.reduced()
        a, b = self._pair(other)
        return a.reduced() == b.reduced()

    __hash__ = None

    def to_json(self) -> dict:
        return {"order": self.order,
                "terms": [[e, str(c)] for e, c in sorted(self.terms.items())]}

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
