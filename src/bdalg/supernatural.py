"""Supernatural numbers: formal products of prime powers with exponents in
{0, 1, ..., inf}.

A supernatural number encodes a divisibility type.  Only finitely many primes
may carry a nonzero exponent in this representation; every computation in the
package touches finitely many divisors at a time, so this restriction costs
nothing while keeping arithmetic exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import _is_int

INF = math.inf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


def prime_index(p: int) -> int:
    """1-based position of p in the sequence of all primes (2 is the 1st)."""
    count = 0
    q = 2
    while q <= p:
        if is_prime(q):
            count += 1
        q += 1
    return count


@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal product ``prod p^e``, stored as ascending (prime, exponent) pairs."""

    factors: tuple = ()

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"{p!r} is not a prime")
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e != INF and (not isinstance(e, int) or e < 1):
                raise ValueError(f"bad exponent {e!r} for prime {p}")
            last = p

    @classmethod
    def of(cls, factors) -> "SupernaturalNumber":
        """Build from a {prime: exponent} mapping or pair iterable.

        Exponents may be given as positive ints, ``INF`` or the string "inf";
        zero exponents are dropped.
        """
        items = factors.items() if isinstance(factors, dict) else factors
        norm = []
        for p, e in items:
            if e == "inf":
                e = INF
            if e == 0:
                continue
            norm.append((int(p), e if e == INF else int(e)))
        return cls(tuple(sorted(norm)))

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        return cls.of(factorize(n))

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
        """The canonical strictly increasing chain of divisors, length `depth`.

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
        indices = {p: prime_index(p) for p, _ in self.factors}
        chain: list[int] = []
        full = self.as_int() if self.is_finite else None
        n = 0
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
        pairs = [tuple(it) for it in obj]
        for p, e in pairs:
            if not _is_int(p) or not (_is_int(e) or e == "inf"):
                raise ValueError("primes must be integers and exponents integers or \"inf\"")
        for i in range(1, len(pairs)):
            if pairs[i][0] <= pairs[i - 1][0]:
                raise ValueError("primes must be ascending")
        return cls.of(pairs)

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
