"""Locally constant functions on the odometer, as exact periodic value cycles.

A function with period l (l a divisor of the ambient supernatural number) is
the tuple of its values on the residues 0, ..., l-1; its value at a truncated
odometer element x is values[x mod l].  Characters, the Haar mean, pullback by
powers of the odometer map and the exact character (discrete Fourier)
decomposition all live here.

The character transform is the plain O(l^2) cyclotomic DFT.  It serves only
the explicit decomposition: the cocycle solver works on the values directly,
by a prefix sum.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclo, _as_cyclo, _is_int, root_of_unity
from .profinite import ProfiniteInt


class LocConstFn:
    """An l-periodic sequence of exact cyclotomic values."""

    __slots__ = ("period", "values")

    def __init__(self, values):
        vals = tuple(_as_cyclo(v) for v in values)
        if not vals:
            raise ValueError("a function needs at least one value")
        object.__setattr__(self, "period", len(vals))
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *args):
        raise AttributeError("LocConstFn values are immutable")

    @classmethod
    def constant(cls, c, period: int = 1) -> "LocConstFn":
        return cls([_as_cyclo(c)] * period)

    @classmethod
    def zero(cls, period: int = 1) -> "LocConstFn":
        return cls.constant(0, period)

    # -- evaluation -----------------------------------------------------------

    def at(self, k: int) -> Cyclo:
        """Value at the embedded integer k."""
        return self.values[k % self.period]

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
        return LocConstFn([self.values[k % self.period] for k in range(l)])

    def minimal_period(self) -> "LocConstFn":
        """Reduce to the smallest period dividing the current one."""
        for d in range(1, self.period + 1):
            if self.period % d:
                continue
            if all(self.values[k] == self.values[k % d] for k in range(self.period)):
                return LocConstFn(self.values[:d])
        return self

    def pullback(self, m: int) -> "LocConstFn":
        """Composition with the m-th power of the odometer shift: k -> k + m."""
        return LocConstFn([self.values[(k + m) % self.period]
                           for k in range(self.period)])

    # -- integral and transform -------------------------------------------------

    def haar_integral(self) -> Cyclo:
        """The translation invariant mean: the average over one period."""
        total = Cyclo.zero()
        for v in self.values:
            total = total + v
        return (total * Fraction(1, self.period)).canonical()

    def char_coefficients(self) -> dict:
        """Exact character coefficients c_k with f = sum_k c_k * character(l, k).

        c_k = (1/l) sum_j f(j) zeta_l^(-jk); coefficients that vanish are dropped,
        and synthesize() inverts the transform exactly.
        """
        l = self.period
        out = {}
        for k in range(l):
            c = Cyclo.zero()
            for j, v in enumerate(self.values):
                c = c + v * root_of_unity(-j * k, l)
            c = (c * Fraction(1, l)).canonical()
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
        return LocConstFn([x + y for x, y in zip(a.values, b.values)])

    def __sub__(self, other):
        if not isinstance(other, LocConstFn):
            other = LocConstFn.constant(other)
        a, b = self._pair(other)
        return LocConstFn([x - y for x, y in zip(a.values, b.values)])

    def __neg__(self):
        return LocConstFn([-v for v in self.values])

    def __mul__(self, other):
        if not isinstance(other, LocConstFn):
            return self.scale(other)
        a, b = self._pair(other)
        return LocConstFn([x * y for x, y in zip(a.values, b.values)])

    __rmul__ = __mul__

    def scale(self, c) -> "LocConstFn":
        c = _as_cyclo(c)
        return LocConstFn([v * c for v in self.values])

    def conj(self) -> "LocConstFn":
        return LocConstFn([v.conj() for v in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def canonical(self) -> "LocConstFn":
        """Same function with every value reduced to its canonical representative."""
        return LocConstFn([v.canonical() for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, LocConstFn):
            return NotImplemented
        a, b = self._pair(other)
        return all(x == y for x, y in zip(a.values, b.values))

    __hash__ = None

    def sup_norm(self) -> float:
        """max |f| over one period (equals the sup over the whole odometer)."""
        return max(abs(v) for v in self.values)

    def to_json(self) -> dict:
        return {"period": self.period, "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "LocConstFn":
        if not isinstance(obj, dict) or set(obj) != {"period", "values"}:
            raise ValueError('function must be {"period": l, "values": [...]}')
        if not isinstance(obj["values"], list):
            raise ValueError("function values must be a list")
        vals = [Cyclo.from_json(v) for v in obj["values"]]
        if not _is_int(obj["period"]) or len(vals) != obj["period"]:
            raise ValueError("period does not match the number of values")
        return cls(vals)

    def __repr__(self):
        return f"LocConstFn(period={self.period}, values={list(self.values)!r})"


def character(l: int, k: int) -> LocConstFn:
    """The l-periodic character with value zeta_l^(jk) at residue j.

    k = 0 gives the constant function 1.
    """
    if l < 1:
        raise ValueError("period must be positive")
    return LocConstFn([root_of_unity(j * k, l) for j in range(l)])


def synthesize(coefficients: dict, l: int) -> LocConstFn:
    """Rebuild sum_k c_k * character(l, k) from character coefficients."""
    out = LocConstFn.zero(l)
    for k, c in coefficients.items():
        out = out + character(l, k).scale(c)
    return out
