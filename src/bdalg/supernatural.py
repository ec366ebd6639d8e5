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

INF = math.inf


def _is_int(x) -> bool:
    """True for a plain integer; bool is an int subclass and is refused."""
    return isinstance(x, int) and not isinstance(x, bool)


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
