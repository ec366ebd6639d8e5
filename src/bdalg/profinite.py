"""Truncated odometer arithmetic.

An element of the inverse-limit ring Z/SZ is always carried at an explicit
finite depth, as mixed-radix digits along a chain of divisors l_1 | l_2 | ...
of S.  Deepening is an explicit re-embedding, never lazy; every operation
below is pure and exact.
"""
from __future__ import annotations

from .supernatural import SupernaturalNumber, _Frozen, _int


class DivisorChain(_Frozen):
    """Strictly increasing divisors l_1 | l_2 | ... | l_N (l_0 = 1 implicit).

    The ambient supernatural number is optional; when present every level must
    divide it.
    """

    __slots__ = ("levels", "S")

    def __init__(self, levels, S: SupernaturalNumber = None):
        levels = tuple(levels)
        if not levels:
            raise ValueError("chain needs at least one level")
        prev = 1
        for l in levels:
            if _int(l, "chain level") <= prev:
                raise ValueError(f"levels must be strictly increasing, got {levels}")
            if l % prev != 0:
                raise ValueError(f"{prev} does not divide {l}")
            if S is not None and not S.divisible_by(l):
                raise ValueError(f"{l} does not divide {S}")
            prev = l
        self._init(levels, S)

    @classmethod
    def of(cls, levels, S: SupernaturalNumber = None) -> "DivisorChain":
        return cls(levels, S)

    @property
    def top(self) -> int:
        return self.levels[-1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def bases(self) -> tuple:
        """Digit bases l_n / l_{n-1}."""
        prev = 1
        out = []
        for l in self.levels:
            out.append(l // prev)
            prev = l
        return tuple(out)

    def embed(self, x: int) -> "ProfiniteInt":
        """The dense embedding of an integer: digits of x mod the top level.

        Negative integers reduce by mathematical mod, landing in [0, top).
        """
        return self.from_residue(_int(x, "argument") % self.top)

    def from_residue(self, r: int, l: int = None) -> "ProfiniteInt":
        """The unique element with the given top-level residue."""
        if l is not None and _int(l, "residue level") != self.top:
            raise ValueError(f"residue level {l} does not match chain top {self.top}")
        if not 0 <= _int(r, "residue") < self.top:
            raise ValueError(f"residue {r} out of range [0, {self.top})")
        digits = []
        prev = 1
        for l_n, base in zip(self.levels, self.bases):
            digits.append((r // prev) % base)
            prev = l_n
        return ProfiniteInt._raw(self, tuple(digits))

    def zero(self) -> "ProfiniteInt":
        return self.from_residue(0)

    def to_json(self) -> list:
        return list(self.levels)

    @classmethod
    def from_json(cls, obj, S: SupernaturalNumber = None) -> "DivisorChain":
        if not isinstance(obj, list):
            raise ValueError("chain must be a list of integers")
        return cls(obj, S)


class ProfiniteInt(_Frozen):
    """A truncated odometer element: digits a_n with 0 <= a_n < l_n/l_{n-1}.

    The residue represented at level n is sum_{k<=n} a_k l_{k-1}.
    """

    __slots__ = ("chain", "digits")

    def __init__(self, chain: DivisorChain, digits):
        digits = tuple(digits)
        if len(digits) != chain.depth:
            raise ValueError("one digit per chain level required")
        for a, base in zip(digits, chain.bases):
            if not 0 <= _int(a, "digit") < base:
                raise ValueError(f"digit {a} out of range [0, {base})")
        self._init(chain, digits)

    def value(self) -> int:
        """The top-level residue in [0, l_N)."""
        total, prev = 0, 1
        for a, l in zip(self.digits, self.chain.levels):
            total += a * prev
            prev = l
        return total

    def residue(self, l: int) -> int:
        """The residue mod l, for any l dividing the top level."""
        if l < 1 or self.chain.top % l != 0:
            raise ValueError(f"{l} does not divide the top level {self.chain.top}")
        return self.value() % l

    def _binop(self, other: "ProfiniteInt", op) -> "ProfiniteInt":
        if not isinstance(other, ProfiniteInt):
            return NotImplemented
        if self.chain.levels != other.chain.levels:
            raise ValueError("operands live on different chains")
        return self.chain.from_residue(op(self.value(), other.value()) % self.chain.top)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __neg__(self) -> "ProfiniteInt":
        return self.chain.from_residue((-self.value()) % self.chain.top)

    def shift(self, m: int = 1) -> "ProfiniteInt":
        """Odometer shift: add the embedded integer m (m = 1 is the odometer map)."""
        return self.chain.from_residue((self.value() + _int(m, "shift")) % self.chain.top)

    def to_json(self) -> dict:
        return {"chain": self.chain.to_json(), "digits": list(self.digits)}

    @classmethod
    def from_json(cls, obj, S: SupernaturalNumber = None) -> "ProfiniteInt":
        if not isinstance(obj, dict) or set(obj) != {"chain", "digits"}:
            raise ValueError('profinite integer must be {"chain": [...], "digits": [...]}')
        if not isinstance(obj["digits"], list):
            raise ValueError("digits must be a list of integers")
        return cls(DivisorChain.from_json(obj["chain"], S), obj["digits"])
