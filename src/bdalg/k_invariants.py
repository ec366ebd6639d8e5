"""K-theoretic bookkeeping for the odometer crossed product.

Projections onto residue classes generate the even K-group, whose classes are
the rationals k/l with l dividing the ambient supernatural number; the
homomorphism obstruction witnesses that this group admits no nonzero map to
the integers.  The odd K-homology side is presented by integer-valued
functions on (level, residue) pairs closed under downward residue-class
summation; storing only the deepest level makes that closure automatic.  The
running sums R, the invariants tau and rho, the coboundary of the dual shift
and its explicit preimage on the tau-kernel live here, together with the digit
construction certifying that rho hits every truncated odometer element.

Recorded, not computed: on the odd K-group the inclusion of one finite-period
subalgebra into the next sends the winding unitary to the winding unitary, so
it induces the identity map and the group of the limit algebra is the
integers.  Only that statement is carried here; nothing in it is finite data.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .profinite import DivisorChain, ProfiniteInt
from .supernatural import SupernaturalNumber, _Frozen, _int, _rational

if TYPE_CHECKING:  # for the annotations only: the PhiFn verbs load no algebra layer
    from .bd_algebra import BDElement


class GSRational(_Frozen):
    """A reduced fraction whose denominator divides the ambient supernatural
    number; the value of a K0 class under the trace pairing."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if _int(den, "denominator") < 1:
            raise ValueError("denominator must be positive")
        if math.gcd(_int(num, "numerator"), den) != 1:
            raise ValueError(f"{num}/{den} is not reduced")
        self._init(num, den)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "GSRational":
        q = _rational(q, "class value")
        return cls(q.numerator, q.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "GSRational") -> "GSRational":
        return GSRational.from_fraction(self.as_fraction() + other.as_fraction())

    def __str__(self):
        return f"{self.num}/{self.den}"

    def to_json(self) -> str:
        return str(self)

    @classmethod
    def from_json(cls, obj) -> "GSRational":
        if not isinstance(obj, str):
            raise ValueError('class value must be a "num/den" string')
        return cls.from_fraction(obj)


def residue_projection(l: int, j: int, S: SupernaturalNumber) -> BDElement:
    """The diagonal projection onto the residue class j mod l.

    Exactly idempotent and self-adjoint; the projections for distinct residues
    at the same level are mutually orthogonal and sum to the identity.
    """
    if l < 1:
        raise ValueError("level must be positive")
    if not S.divisible_by(l):
        raise ValueError(f"{l} does not divide {S}")
    from . import bd_algebra, odometer_fn  # here: no other function builds an element

    values = [1 if r == j % l else 0 for r in range(l)]
    return bd_algebra.BDElement.mult_op(S, odometer_fn.LocConstFn(values))


def k0_class(p: BDElement) -> GSRational:
    """The K0 class of a projection under the trace pairing.

    Verifies p^2 = p = p* exactly first; the value is the trace, a rational
    with denominator dividing the period, additive on orthogonal projections.
    """
    if p * p != p:
        raise ValueError("not a projection: p*p differs from p")
    if p.adjoint() != p:
        raise ValueError("not a projection: adjoint differs from p")
    tr = p.trace().as_rational()
    if tr is None:
        raise ValueError("projection trace is not rational")
    out = GSRational.from_fraction(tr)
    if p.period % out.den != 0:
        raise ValueError("trace denominator does not divide the period")
    return out


def hom_obstruction(l: int, a: int, chain: DivisorChain) -> int:
    """First chain level l_i with l | l_i whose ratio l_i / l does not divide a.

    Such a level witnesses that no homomorphism from the divisor-group of
    rationals to the integers can send 1/l to a: the compatibility relation
    (l'/l) * a_{l'} = a_l forces every ratio to divide a.  A witness exists
    once l_i / l exceeds |a|.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if l < 1:
        raise ValueError("level must be positive")
    seen_divisible = False
    for level in chain.levels:
        if level % l != 0:
            continue
        seen_divisible = True
        if a % (level // l) != 0:
            return level
    if not seen_divisible:
        raise ValueError(f"{l} divides no level of the chain")
    raise ValueError(
        f"chain too shallow: every ratio up to {chain.top}//{l} divides {a}")


class PhiFn(_Frozen):
    """An integer-valued function on (level, residue) pairs, stored at the top.

    The value at a coarser level l | l_N is the sum over its residue class,
    which makes the downward-summation closure hold by construction.
    """

    __slots__ = ("chain", "top")

    def __init__(self, chain: DivisorChain, top):
        top = tuple([_int(v, "top value") for v in top])
        if len(top) != chain.top:
            raise ValueError(f"need {chain.top} top-level values, got {len(top)}")
        self._init(chain, top)

    @classmethod
    def zero(cls, chain: DivisorChain) -> "PhiFn":
        return cls(chain, (0,) * chain.top)

    # -- values and running sums -------------------------------------------------

    def value(self, l: int, k: int) -> int:
        """phi(l, k) = sum of the top values over the class k mod l."""
        top_level = self.chain.top
        if l < 1 or top_level % l != 0:
            raise ValueError(f"{l} does not divide the top level {top_level}")
        return sum(self.top[(k + j * l) % top_level]
                   for j in range(top_level // l))

    def r_sum(self, l: int, lp: int, mode: str = "def") -> int:
        """The running double sum R(l, l').

        mode="def": sum_{a=1}^{(l'/l)-1} sum_{j=0}^{al-1} phi(l', j), with empty
        ranges summing to zero (so R(l, l) = 0).
        mode="lin": the linear form sum_{j=0}^{l'-2} (j+1) phi(l', j), defined
        for l = 1 only.  The two disagree by a sign mod l':
        R(1,l',lin) = -R(1,l',def) (mod l').

        Both are read off the top vector in closed form: top[k] lies in the
        class j = k mod l' and is counted once for each a with al > j, that is
        l'/l - 1 - floor(j/l) times (def), or j + 1 times unless j = l' - 1 (lin).
        """
        top_level = self.chain.top
        if l < 1 or lp < 1 or top_level % lp != 0 or lp % l != 0:
            raise ValueError(f"need l | l' | top, got l={l}, l'={lp}, top={top_level}")
        if mode == "def":
            return sum(t * (lp // l - 1 - k % lp // l) for k, t in enumerate(self.top))
        if mode == "lin":
            if l != 1:
                raise ValueError("mode 'lin' is defined for l = 1 only")
            return sum(t * (k % lp + 1) for k, t in enumerate(self.top) if k % lp != lp - 1)
        raise ValueError(f"unknown mode {mode!r}")

    def tau(self) -> int:
        """The total sum phi(1, 0)."""
        return sum(self.top)

    def rho(self) -> ProfiniteInt:
        """The truncated odometer element with residue R(1, l_i) mod l_i at
        every level; well defined because the R values are congruent along the
        chain."""
        r = self.r_sum(1, self.chain.top, "def")
        return self.chain.from_residue(r % self.chain.top)

    # -- dual shift ----------------------------------------------------------------

    def coboundary(self) -> "PhiFn":
        """(1 - shift*)(self): top'[k] = top[k] - top[k+1 mod l_N]; kills tau."""
        n = self.chain.top
        return PhiFn(self.chain,
                     [self.top[k] - self.top[(k + 1) % n] for k in range(n)])

    def coboundary_preimage(self) -> "PhiFn":
        """Solve (1 - shift*) psi = self on the tau-kernel.

        Requires tau = 0.  The top vector of psi is the negated prefix sum, and
        psi(l, 0) = (R(1, l) + psi(1, 0)) / l holds at every level with
        psi(1, 0) = -R(1, l_N); the divisibility is guaranteed by the congruence
        of R along the chain and asserted here.
        """
        if self.tau() != 0:
            raise ValueError("nonzero tau: the coboundary equation has no solution")
        n = self.chain.top
        psi_top = [0] * n
        for k in range(1, n):
            psi_top[k] = psi_top[k - 1] - self.top[k - 1]
        psi = PhiFn(self.chain, psi_top)
        psi_10 = -self.r_sum(1, n, "def")
        assert psi.tau() == psi_10
        for l in self.chain.levels:
            num = self.r_sum(1, l, "def") + psi_10
            assert num % l == 0, "R values must be congruent along the chain"
            assert psi.value(l, 0) == num // l
        return psi

    @classmethod
    def from_profinite(cls, x: ProfiniteInt) -> "PhiFn":
        """The digit construction: phi(l_n, 0) = a_1 - ... - a_n and
        phi(l_n, l_k) = a_{k+1}, realized through its top-level vector.

        Its linear R-form reproduces the residues of x at every level, which is
        the desk-scale certificate that rho is onto.
        """
        chain = x.chain
        n = chain.depth
        top = [0] * chain.top
        digits = x.digits
        top[0] = digits[0] - sum(digits[1:])
        for k in range(1, n):
            top[chain.levels[k - 1] % chain.top] += digits[k]
        return cls(chain, top)

    # -- group structure -------------------------------------------------------------

    def __add__(self, other: "PhiFn") -> "PhiFn":
        if self.chain.levels != other.chain.levels:
            raise ValueError("operands live on different chains")
        return PhiFn(self.chain, [a + b for a, b in zip(self.top, other.top)])

    def __sub__(self, other: "PhiFn") -> "PhiFn":
        return self + (-other)

    def __neg__(self) -> "PhiFn":
        return PhiFn(self.chain, [-a for a in self.top])

    def __eq__(self, other):
        if not isinstance(other, PhiFn):
            return NotImplemented
        return self.chain.levels == other.chain.levels and self.top == other.top

    __hash__ = None

    def to_json(self) -> dict:
        return {"chain": self.chain.to_json(), "top": list(self.top)}

    @classmethod
    def from_json(cls, obj) -> "PhiFn":
        if not isinstance(obj, dict) or set(obj) != {"chain", "top"}:
            raise ValueError('phi function must be {"chain": [...], "top": [...]}')
        if not isinstance(obj["top"], list):
            raise ValueError("top must be a list of integers")
        return cls(DivisorChain.from_json(obj["chain"]), obj["top"])

    def __repr__(self):
        return f"PhiFn(chain={self.chain.levels}, top={self.top})"
