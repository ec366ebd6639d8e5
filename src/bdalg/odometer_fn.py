"""Locally constant functions on the odometer, as exact periodic value cycles.

A function with period l (l a divisor of the ambient supernatural number) is
the tuple of its values on the residues 0, ..., l-1; its value at a truncated
odometer element x is values[x mod l].  Characters, the Haar mean, pullback by
powers of the odometer map and the exact character (discrete Fourier)
decomposition all live here.

Each character coefficient is one sum of l values in a single dict (_sum), l^2
term operations in all.  The transform serves only the explicit decomposition:
the cocycle solver works on the values directly, by a prefix sum.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclo, _as_cyclo, _sum, root_of_unity
from .profinite import ProfiniteInt
from .supernatural import _Frozen, _int


class LocConstFn(_Frozen):
    """An l-periodic sequence of exact cyclotomic values."""

    __slots__ = ("period", "values")

    def __init__(self, values):
        vals = tuple(_as_cyclo(v) for v in values)
        if not vals:
            raise ValueError("a function needs at least one value")
        object.__setattr__(self, "period", len(vals))  # not _init: this runs on every operation
        object.__setattr__(self, "values", vals)

    @classmethod
    def _raw(cls, values: tuple) -> "LocConstFn":
        """Trusted constructor: `values` a nonempty tuple of Cyclo values, as the
        operations here build them; nothing is checked or converted."""
        self = cls.__new__(cls)
        object.__setattr__(self, "period", len(values))
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def constant(cls, c, period: int = 1) -> "LocConstFn":
        if _int(period, "period") < 1:
            raise ValueError("a function needs at least one value")
        return cls._raw((_as_cyclo(c),) * period)

    @classmethod
    def zero(cls, period: int = 1) -> "LocConstFn":
        return cls.constant(0, period)

    # -- evaluation -----------------------------------------------------------

    def at(self, k: int) -> Cyclo:
        """Value at the embedded integer k."""
        return self.values[_int(k, "point") % self.period]

    def evaluate(self, x: ProfiniteInt) -> Cyclo:
        """Value at a truncated odometer element; the period must divide its top level."""
        if x.chain.top % self.period != 0:
            raise ValueError(
                f"period {self.period} incompatible with chain top {x.chain.top}")
        return self.values[x.residue(self.period)]

    # -- periodic structure ----------------------------------------------------

    def with_period(self, l: int) -> "LocConstFn":
        """Re-present at a multiple period; same function, repeated cycle."""
        if l % self.period != 0:
            raise ValueError(f"{l} is not a multiple of the period {self.period}")
        if l == self.period:
            return self
        return LocConstFn._raw(self.values * (l // self.period))

    def pullback(self, m: int) -> "LocConstFn":
        """Composition with the m-th power of the odometer shift: k -> k + m."""
        m = _int(m, "shift") % self.period
        return self if m == 0 else LocConstFn._raw(self.values[m:] + self.values[:m])

    # -- integral and transform -------------------------------------------------

    def haar_integral(self) -> Cyclo:
        """The translation invariant mean: the average over one period."""
        return _sum((1, 0, v) for v in self.values) * Fraction(1, self.period)

    def char_coefficients(self) -> dict:
        """Exact character coefficients c_k with f = sum_k c_k * character(l, k).

        c_k = (1/l) sum_j f(j) zeta_l^(-jk); coefficients that vanish are dropped,
        and synthesize() inverts the transform exactly.
        """
        l = self.period
        out = {}
        for k in range(l):
            c = _sum(((1, -j * k, v) for j, v in enumerate(self.values)), l) * Fraction(1, l)
            if not c.is_zero():
                out[k] = c
        return out

    # -- pointwise algebra -------------------------------------------------------

    def _pair(self, other: "LocConstFn"):
        l = math.lcm(self.period, other.period)
        return self.with_period(l), other.with_period(l)

    def __add__(self, other):
        if not isinstance(other, LocConstFn):
            other = LocConstFn.constant(other)
        a, b = self._pair(other)
        return LocConstFn._raw(tuple(x + y for x, y in zip(a.values, b.values)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LocConstFn._raw(tuple(-v for v in self.values))

    def __mul__(self, other):
        """The pointwise product, at the lcm of the periods; a factor of period 1
        is a constant and multiplies as a scalar (scale), with no pointwise product."""
        if not isinstance(other, LocConstFn):
            return self.scale(other)
        if other.period == 1:
            return self.scale(other.values[0])
        if self.period == 1:
            return other.scale(self.values[0])
        a, b = self._pair(other)
        return LocConstFn._raw(tuple(x * y for x, y in zip(a.values, b.values)))

    __rmul__ = __mul__

    def scale(self, c) -> "LocConstFn":
        """Every value times c; self itself when c is the rational 1 of order 1."""
        c = _as_cyclo(c)
        if c.order == 1 and c.terms == {0: 1}:
            return self
        return LocConstFn._raw(tuple(v * c for v in self.values))

    def conj(self) -> "LocConstFn":
        return LocConstFn._raw(tuple(v.conj() for v in self.values))

    def is_zero(self) -> bool:
        return all(map(Cyclo.is_zero, self.values))

    def __eq__(self, other):
        if not isinstance(other, LocConstFn):
            return NotImplemented
        a, b = self._pair(other)
        return a.values == b.values

    __hash__ = None

    def to_json(self) -> dict:
        return {"period": self.period, "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "LocConstFn":
        if not isinstance(obj, dict) or set(obj) != {"period", "values"}:
            raise ValueError('function must be {"period": l, "values": [...]}')
        if not isinstance(obj["values"], list):
            raise ValueError("function values must be a list")
        vals = [Cyclo.from_json(v) for v in obj["values"]]
        if _int(obj["period"], "period") != len(vals):
            raise ValueError("period does not match the number of values")
        return cls(vals)

    def __repr__(self):
        return f"LocConstFn(period={self.period}, values={list(self.values)!r})"


def character(l: int, k: int) -> LocConstFn:
    """The l-periodic character with value zeta_l^(jk) at residue j.

    k = 0 gives the constant function 1.
    """
    if _int(l, "period") < 1:
        raise ValueError("period must be positive")
    k = _int(k, "character index")
    return LocConstFn([root_of_unity(j * k, l) for j in range(l)])


def synthesize(coefficients: dict, l: int) -> LocConstFn:
    """Rebuild sum_k c_k * character(l, k) from character coefficients."""
    terms = [(_int(k, "character index"), _as_cyclo(c)) for k, c in coefficients.items()]
    return LocConstFn([_sum(((1, j * k, c) for k, c in terms), l)
                       for j in range(_int(l, "period"))])
