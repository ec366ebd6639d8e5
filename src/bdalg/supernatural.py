"""Supernatural numbers: formal products of prime powers with exponents in
{0, 1, ..., inf}.

A supernatural number encodes a divisibility type.  Only finitely many primes
may carry a nonzero exponent in this representation; every computation in the
package touches finitely many divisors at a time, so this restriction costs
nothing while keeping arithmetic exact.

Every layer checks its scalars with the two readers here, _int (a plain int)
and _rational (an int, Fraction or "p/q" string, as an int when integral, else
a Fraction); both refuse bool and float with ValueError.  _Frozen is the base
of the value classes.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

INF = math.inf

_MAX_EXPONENT = 4300  # Python's int-string digit limit: Fraction builds 10^e in full


def _int(x, what: str) -> int:
    """x if it is a plain int; ValueError for anything else, bool and float included."""
    if x.__class__ is not int:
        raise ValueError(f"non-integer {what}: {x!r}")
    return x


def _rational(x, what: str) -> int | Fraction:
    """x as an exact rational, an int when integral, else a Fraction: x is an int,
    a Fraction or a string such as "p/q", "0.5" or "1e-3" (|exponent| <=
    _MAX_EXPONENT).  ValueError for anything else, bool and float included."""
    if x.__class__ is int:
        return x
    if x.__class__ is str:
        try:
            if abs(int(x.lower().partition("e")[2] or 0)) <= _MAX_EXPONENT:
                x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    if x.__class__ is Fraction:
        return x.numerator if x.denominator == 1 else x
    raise ValueError(f"{what} is not an exact rational: {x!r}")


class _Frozen:
    """Base of the immutable values: a subclass lists its fields in __slots__ and
    sets them once, by _init, in a constructor that checks them.  ==, hash and
    repr read the fields in order; repr is Name(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _raw(cls, *values):  # trusted: the fields as the library's operations build them
        return cls.__new__(cls)._init(*values)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # for copy and pickle: object.__getstate__ gives (None, slots)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases 2..41 decides primality exactly below this bound
# (psi_13, Sorenson and Webster 2015).
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs here are desk scale."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# prime_index sieves up to p, so at this bound it holds a 10 MB bytearray.
_PRIME_INDEX_LIMIT = 10 ** 7

# Depth beyond which divisor_chain refuses to work: under an infinite exponent
# the levels grow geometrically, so level d has O(d) digits and the chain
# O(d^2) in all.
_MAX_CHAIN_DEPTH = 1000


def prime_index(p: int) -> int:
    """1-based position of p in the sequence of all primes (2 is the 1st).

    Counts the primes up to p with a sieve of Eratosthenes; raises ValueError
    above _PRIME_INDEX_LIMIT.
    """
    if p > _PRIME_INDEX_LIMIT:
        raise ValueError(
            f"{p} is too large: prime indices are counted only up to {_PRIME_INDEX_LIMIT}")
    sieve = bytearray([0, 0]) + bytearray([1]) * (p - 1)
    q = 2
    while q * q <= p:
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, p + 1, q)))
        q += 1
    return sieve.count(1)


def _pairs(items) -> list:
    """(prime, exponent) pairs with "inf" read as INF and integer 0 exponents dropped."""
    return [(p, INF if e == "inf" else e) for p, e in items if e != 0 or e.__class__ is not int]


class SupernaturalNumber(_Frozen):
    """Formal product ``prod p^e``, stored as ascending (prime, exponent) pairs,
    each exponent a positive int or INF (any float equal to INF is stored as INF)."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple((p, INF if e == INF else e) for p, e in factors)
        last = 1
        for p, e in factors:
            if not is_prime(_int(p, "prime")):
                raise ValueError(f"{p!r} is not a prime")
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e is not INF and _int(e, "exponent") < 1:
                raise ValueError(f"bad exponent {e!r} for prime {p}")
            last = p
        self._init(factors)

    @classmethod
    def of(cls, factors) -> "SupernaturalNumber":
        """Build from a {prime: exponent} mapping or pair iterable, in any order.

        Exponents may be given as positive ints, ``INF`` or the string "inf";
        zero exponents are dropped.
        """
        return cls(sorted(_pairs(factors.items() if isinstance(factors, dict) else factors)))

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        merged: dict[int, object] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return SupernaturalNumber.of(merged)

    def divisible_by(self, l: int) -> bool:
        """Whether the positive integer l divides this supernatural number."""
        if l < 1:
            raise ValueError("divisor must be a positive integer")
        return self.gcd(l) == l

    def gcd(self, n: int) -> int:
        """gcd of a positive integer with this number; always a finite integer.

        The cofactor n // gcd is coprime to the supernatural number.  Only the
        primes of this number are divided out, so n is never factored.
        """
        if n < 1:
            raise ValueError("gcd argument must be a positive integer")
        g = 1
        for p, e in self.factors:
            k = 0
            while k < e and n % p == 0:
                n //= p
                g *= p
                k += 1
        return g

    @property
    def is_finite(self) -> bool:
        return all(e != INF for _, e in self.factors)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite supernatural number has no integer value")
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out

    def divisor_chain(self, depth: int) -> list[int]:
        """The canonical strictly increasing chain of divisors, length `depth`
        (at most _MAX_CHAIN_DEPTH).

        Step n assigns the k-th prime the exponent min(n - k + 1, e_p), so the
        exponents climb one stair per step and converge to those of the number;
        trivial leading 1s are dropped and repeated values collapsed.  Chains of
        growing depth extend each other.

        >>> SupernaturalNumber.of({2: "inf"}).divisor_chain(3)
        [2, 4, 8]
        >>> SupernaturalNumber.of({2: "inf", 3: "inf"}).divisor_chain(3)
        [2, 12, 72]
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > _MAX_CHAIN_DEPTH:
            raise ValueError(f"depth above {_MAX_CHAIN_DEPTH}")
        indices = {p: prime_index(p) for p, _ in self.factors}
        chain: list[int] = []
        full = self.as_int() if self.is_finite else None
        n = min(indices.values(), default=1) - 1  # earlier steps give only 1
        while len(chain) < depth:
            n += 1
            value = 1
            for p, e in self.factors:
                a = n - indices[p] + 1
                if a > 0:
                    value *= p ** min(a, e)
            if value == 1 or (chain and value == chain[-1]):
                if full is not None and value == full:
                    raise ValueError(
                        f"no divisor chain of depth {depth} for {self}")
                continue
            chain.append(value)
        return chain

    def to_json(self) -> list:
        return [[p, "inf" if e == INF else e] for p, e in self.factors]

    @classmethod
    def from_json(cls, obj) -> "SupernaturalNumber":
        if not isinstance(obj, list) or not all(
                isinstance(it, list) and len(it) == 2 for it in obj):
            raise ValueError("supernatural number must be a list of [prime, exponent] pairs")
        return cls(_pairs(obj))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            if e == INF:
                parts.append(f"{p}^inf")
            elif e == 1:
                parts.append(str(p))
            else:
                parts.append(f"{p}^{e}")
        return "*".join(parts)
