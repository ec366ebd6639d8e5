"""Constructive derivation classification on the polynomial crossed product.

A continuous derivation is determined by finite classification data

    delta = C * delta_label + [M_G, .] + sum_n [U^n M_{F_n}, .]

with G mean zero (constants commute with everything, so the mean-zero
normalization pins the inner part down uniquely).  This module applies such
data, selects Fourier components, splits F into its mean C and G o beta - G
by a prefix sum on integer numerators over one denominator, recovers the
covariant F_n from the action on a single character, picks the character with
the 3/2 spectral gap, and builds the truncated non-smooth commutator
counterexamples.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .bd_algebra import BDElement, _label
from .cyclotomic import Cyclo, _as_cyclo, _from_numerators, _numerators, root_of_unity
from .odometer_fn import LocConstFn, character
from .supernatural import SupernaturalNumber, _Frozen, _int


def _commutator(x: BDElement, b: BDElement) -> BDElement:
    return x * b - b * x


class DerivationData(_Frozen):
    """Finite data (C, G, {F_n}) for C*delta_label + [M_G, .] + sum [U^n M_{F_n}, .];
    C is a Cyclo or an exact rational (see _rational)."""

    __slots__ = ("constant", "invariant_fn", "covariant")

    def __init__(self, constant, invariant_fn: LocConstFn, covariant: dict = None):
        if not invariant_fn.haar_integral().is_zero():
            raise ValueError("the inner diagonal part must have mean zero")
        clean = {}
        for n, f in (covariant or {}).items():
            if _int(n, "covariant index") == 0:
                raise ValueError("covariant indices must be nonzero")
            if not f.is_zero():
                clean[n] = f
        self._init(_as_cyclo(constant), invariant_fn, clean)

    @classmethod
    def zero(cls) -> "DerivationData":
        return cls(Cyclo.zero(), LocConstFn.zero(), {})

    def apply(self, b: BDElement) -> BDElement:
        """Evaluate the derivation on an element; satisfies the Leibniz rule."""
        out = BDElement.zero(b.S)
        if not self.constant.is_zero():
            out = out + b.delta_label().scale(self.constant)
        if not self.invariant_fn.is_zero():
            mg = BDElement.mult_op(b.S, self.invariant_fn)
            out = out + _commutator(mg, b)
        for n, f in self.covariant.items():
            x = BDElement(b.S, {n: f})
            out = out + _commutator(x, b)
        return out

    def fourier_component(self, n: int) -> "DerivationData":
        """Project onto the n-covariant part: n = 0 keeps (C, G), n != 0 keeps F_n."""
        if n == 0:
            return DerivationData(self.constant, self.invariant_fn, {})
        if n in self.covariant:
            return DerivationData(Cyclo.zero(), LocConstFn.zero(), {n: self.covariant[n]})
        return DerivationData.zero()

    def to_json(self) -> dict:
        c = self.constant.as_rational()
        return {"C": str(c) if c is not None else self.constant.to_json(),
                "G": self.invariant_fn.to_json(),
                "covariant": {str(n): f.to_json()
                              for n, f in sorted(self.covariant.items())}}

    @classmethod
    def from_json(cls, obj) -> "DerivationData":
        if not isinstance(obj, dict) or set(obj) != {"C", "G", "covariant"}:
            raise ValueError('derivation data must be {"C": ..., "G": ..., "covariant": {...}}')
        c = obj["C"]
        if not isinstance(obj["covariant"], dict):
            raise ValueError("covariant must be an object mapping labels to functions")
        return cls(Cyclo.from_json(c) if isinstance(c, dict) else c,
                   LocConstFn.from_json(obj["G"]),
                   {_label(n): LocConstFn.from_json(f)
                    for n, f in obj["covariant"].items()})


def _cocycle(f: LocConstFn):
    """(C, G): C the mean of f and G mean zero with G o beta - G = f - C, in ints.

    With f(i) = F_i/d at the common order n (_numerators) and S the sum of the
    F_i: C = S/(dl), G(0) = (2 sum_{i<l-1} (i+1-l) F_i + (l-1) S)/(2dl) and
    G(j+1) = G(j) + (2l F_j - 2S)/(2dl).  Each coefficient is divided once
    (_from_numerators), and every value has order n.
    """
    l = f.period
    n, d, nums = _numerators(f.values)
    s: dict = {}
    for num in nums:
        for e, x in num.items():
            s[e] = s[e] + x if e in s else x
    g = {e: (l - 1) * x for e, x in s.items()}  # its keys, S's, hold every F_i's
    for i, num in enumerate(nums[:-1]):
        for e, x in num.items():
            g[e] += 2 * (i + 1 - l) * x
    out = [_from_numerators(n, g, 2 * d * l)]
    for num in nums[:-1]:
        g = {e: x - 2 * s[e] for e, x in g.items()}
        for e, x in num.items():
            g[e] += 2 * l * x
        out.append(_from_numerators(n, g, 2 * d * l))
    return _from_numerators(n, s, d * l), LocConstFn._raw(tuple(out))


def solve_cocycle(ft: LocConstFn) -> LocConstFn:
    """Solve G o beta - G = ft with G mean zero; ft must have mean zero.

    G(j) = ft(0) + ... + ft(j-1), minus its mean sum_i (l-1-i) ft(i) / l, on
    integer numerators (_cocycle).  A nonzero mean of ft is the obstruction (G
    would not be periodic), which must be split off first.
    """
    c, g = _cocycle(ft)
    if not c.is_zero():
        raise ValueError("nonzero mean: split off the constant part first")
    return g


def decompose_invariant(f: LocConstFn):
    """Split F = C + (G o beta - G): returns (C, G) with C the Haar mean.

    The invariant derivation sending U to U M_F then equals
    C * delta_label + [M_G, .] on generators; one pass of _cocycle gives both.
    """
    return _cocycle(f)


def recover_covariant(n: int, l: int, k: int, delta_of_chi: BDElement) -> LocConstFn:
    """Recover F from delta(M_chi) where delta = [U^n M_F, .] and chi = character(l, k).

    Requires chi(q(n)) != 1, i.e. l does not divide n*k; then
    F = (1 - zeta_l^{nk})^{-1} * (0-th coefficient of U^{-n} delta(M_chi) M_chi^{-1}),
    and 1/(1 - zeta) = -(1/l) * sum_{j<l} j * zeta^j for every zeta != 1 with
    zeta^l = 1 (sum_{j<l} j*x^j = x(1 - l*x^(l-1) + (l-1)*x^l)/(1 - x)^2).
    """
    if _int(n, "covariant index") == 0:
        raise ValueError("covariant index must be nonzero")
    if _int(l, "period") < 1:
        raise ValueError("period must be positive")
    if (n * k) % l == 0:
        raise ValueError("character fixes q(n): pick one with chi(q(n)) != 1")
    S = delta_of_chi.S
    chi_inv = BDElement.mult_op(S, character(l, k).conj())
    extracted = (BDElement.shift(S, -n) * delta_of_chi * chi_inv).fourier_coefficient(0)
    inverse = Cyclo(l, {j * n * k: Fraction(-j, l) for j in range(1, l)})
    return extracted.scale(inverse)


class CharacterPick(tuple):
    """(l, j, bound): character index and the certified gap |1 - chi(q(n))|."""

    __slots__ = ()

    def __new__(cls, l, j, bound):
        return super().__new__(cls, (l, j, bound))

    l = property(lambda self: self[0])
    j = property(lambda self: self[1])
    bound = property(lambda self: self[2])


def pick_character(n: int, S: SupernaturalNumber) -> CharacterPick:
    """Choose a character chi = character(l, j) with |1 - chi(q(n))| >= sqrt(3) > 3/2.

    Following the constructive recipe: with g = gcd(|n|, S) and n' = |n|/g
    coprime to S, take l = g*h for the smallest even h with g*h | S (then
    chi(q(n)) = -1 exactly and the gap is 2), falling back to the smallest odd
    h >= 3 (gap 2*cos(pi/2h) >= sqrt(3)).  Every prime of such an h fits as
    well, so h is the smallest prime p of S with g*p | S: 2 when it fits.
    j = p*gamma mod l where p inverts n' mod h and gamma is h/2, resp. (h+1)/2.

    >>> S = SupernaturalNumber.of({2: "inf", 3: "inf"})
    >>> pick_character(2, S)
    (4, 1, 2.0)
    >>> pick = pick_character(8, SupernaturalNumber.of({2: 3, 3: "inf"}))
    >>> pick.l, pick.j, round(pick.bound, 6)
    (24, 2, 1.732051)
    """
    if _int(n, "n") == 0:
        raise ValueError("n must be nonzero")
    g = S.gcd(abs(n))
    n_prime = abs(n) // g
    h = next((p for p, _ in S.factors if S.divisible_by(g * p)), None)
    if h is None:
        raise ValueError(f"no admissible modulus h for n={n}, S={S}")

    l = g * h
    p = pow(n_prime, -1, h)  # n' is coprime to h since h | S and n' is coprime to S
    gamma = (h + 1) // 2  # h/2 for h = 2
    j = (p * gamma) % l
    bound = 2.0 if h == 2 else 2.0 * math.cos(math.pi / (2 * h))
    return CharacterPick(l, j, bound)


def nonsmooth_commutator(S: SupernaturalNumber, chain_depth: int, n_terms: int,
                         l: int, k: int) -> dict:
    """Truncated commutator series of the non-smooth symbol F(z) = sum z^{l_i}.

    With exponents 1 = l_0 < l_1 < ... along the canonical divisor chain of S
    and unit coefficients, the commutator with the k-th character of period l
    has symbol sum_i (1 - zeta_l^{k l_i}) z^{l_i}.  Once l divides l_i the terms
    vanish, so the result is a polynomial no matter how far the truncation runs.
    It is returned as {power of z: Cyclo}, holding only the nonzero terms.
    """
    if not S.divisible_by(_int(l, "period")):
        raise ValueError(f"{l} does not divide {S}")
    if not 0 <= _int(k, "character index") < l:
        raise ValueError(f"character index {k} out of range [0, {l})")
    if not 0 <= _int(n_terms, "truncation") <= _int(chain_depth, "chain depth"):
        raise ValueError(f"truncation {n_terms} out of range [0, {chain_depth}]")
    chain = S.divisor_chain(chain_depth)
    exponents = [1] + chain[:n_terms]
    terms = {}
    for e in exponents:
        if (k * e) % l != 0:
            terms[e] = Cyclo.one() - root_of_unity(k * e, l)
    return terms
