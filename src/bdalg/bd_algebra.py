"""The polynomial crossed-product algebra of the odometer.

Elements are finite sums  sum_n U^n M_{f_n}  where U is the shift unitary and
M_f multiplies by a locally constant function f.  The single covariance rule

    M_f U = U M_{f o beta}        (beta the odometer shift)

drives the product, the adjoint, the matrix symbol over the circle and the
norm estimation.  Every element carries one common period l for all its
coefficients, which is also the size of its matrix symbol.

Norms and spectra are evaluated straight from the coefficients: U^n M_f has
the symbol entry f(i) z^floor((i+n)/l) at row (i+n) mod l, column i, so the
sampled symbol is assembled from the complex values f_n(i) without forming
the exact symbol.  The exact MatrixSymbol serves only ``bd symbol`` and the
*-homomorphism tests.

Norm values obtained from circle sampling are estimates bracketed by an exact
window; only the diagonal case is exact.  Internally the estimates are carried
as exact rationals so the two assembly rules for higher norms (binomial sum
versus the recursion |a|_{M+1} = |a|_M + |delta(a)|_M) agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyclo, _as_cyclo, _is_int, root_of_unity
from .odometer_fn import LocConstFn
from .supernatural import SupernaturalNumber


class BDElement:
    """A finite sum  sum_n U^n M_{f_n}  with a common period for all f_n."""

    __slots__ = ("S", "period", "coeffs")

    def __init__(self, S: SupernaturalNumber, coeffs: dict, period: int = None):
        l = period or 1
        for f in coeffs.values():
            l = math.lcm(l, f.period)
        if not S.divisible_by(l):
            raise ValueError(f"period {l} does not divide {S}")
        clean = {}
        for n, f in coeffs.items():
            if not f.is_zero():
                clean[int(n)] = f.with_period(l)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "period", l)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *args):
        raise AttributeError("BDElement values are immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, S: SupernaturalNumber) -> "BDElement":
        return cls(S, {})

    @classmethod
    def one(cls, S: SupernaturalNumber) -> "BDElement":
        return cls(S, {0: LocConstFn.constant(1)})

    @classmethod
    def shift(cls, S: SupernaturalNumber, n: int = 1) -> "BDElement":
        """U^n."""
        return cls(S, {n: LocConstFn.constant(1)})

    @classmethod
    def mult_op(cls, S: SupernaturalNumber, f: LocConstFn) -> "BDElement":
        """The multiplication operator M_f."""
        return cls(S, {0: f})

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def with_period(self, l: int) -> "BDElement":
        """Re-present with a larger common period (a multiple of the current one)."""
        if l % self.period != 0:
            raise ValueError(f"{l} is not a multiple of the period {self.period}")
        return BDElement(self.S, self.coeffs, period=l)

    def fourier_coefficient(self, n: int) -> LocConstFn:
        """The coefficient f_n (the zero function if absent); n = 0 is the
        conditional expectation onto the diagonal."""
        return self.coeffs.get(n, LocConstFn.zero(self.period))

    # -- *-algebra operations -----------------------------------------------------

    def _check_compatible(self, other: "BDElement"):
        if self.S != other.S:
            raise ValueError("elements live over different supernatural numbers")

    def __add__(self, other: "BDElement") -> "BDElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for n, g in other.coeffs.items():
            out[n] = out[n] + g if n in out else g
        return BDElement(self.S, out)

    def __sub__(self, other: "BDElement") -> "BDElement":
        return self + (-other)

    def __neg__(self) -> "BDElement":
        return BDElement(self.S, {n: -f for n, f in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, BDElement):
            return self.scale(other)
        self._check_compatible(other)
        out: dict = {}
        for m, f in self.coeffs.items():
            for n, g in other.coeffs.items():
                # U^m M_f U^n M_g = U^(m+n) M_{(f o beta^n) g}
                term = f.pullback(n) * g
                k = m + n
                out[k] = out[k] + term if k in out else term
        return BDElement(self.S, out)

    def scale(self, c) -> "BDElement":
        c = _as_cyclo(c)
        return BDElement(self.S, {n: f.scale(c) for n, f in self.coeffs.items()})

    __rmul__ = scale

    def adjoint(self) -> "BDElement":
        """(U^n M_f)* = U^(-n) M_{conj(f) o beta^(-n)}."""
        return BDElement(self.S, {-n: f.conj().pullback(-n)
                                  for n, f in self.coeffs.items()})

    def delta_label(self) -> "BDElement":
        """The label derivation [L, .]: multiplies the n-th coefficient by n."""
        return BDElement(self.S, {n: f.scale(n) for n, f in self.coeffs.items()})

    def circle_action(self, theta) -> "BDElement":
        """The circle automorphism scaling U by exp(2 pi i theta); theta must be
        an exact rational so the phases stay cyclotomic."""
        if isinstance(theta, float):
            raise ValueError("the angle must be an exact rational, not a float")
        theta = Fraction(theta)
        p, q = theta.numerator, theta.denominator
        return BDElement(self.S, {n: f.scale(root_of_unity(n * p, q))
                                  for n, f in self.coeffs.items()})

    def trace(self) -> Cyclo:
        """Haar mean of the diagonal part; tracial and normalized at 1."""
        return self.fourier_coefficient(0).haar_integral()

    def __eq__(self, other):
        if not isinstance(other, BDElement):
            return NotImplemented
        if self.S != other.S:
            return False
        for n in set(self.coeffs) | set(other.coeffs):
            if self.fourier_coefficient(n) != other.fourier_coefficient(n):
                return False
        return True

    __hash__ = None

    # -- symbol ---------------------------------------------------------------------

    def matrix_symbol(self) -> "MatrixSymbol":
        """The image in l x l matrices of Laurent polynomials over the circle.

        The shift maps to the cyclic matrix J(z) with ones on the subdiagonal
        and z in the upper right corner; M_f maps to diag(f(0), ..., f(l-1)).
        Other conventions for the shift symbol differ from J(z) by a fixed
        unitary conjugation, which changes no norm, spectrum or class computed
        from the symbol; this package fixes J(z) throughout.

        The entry of J^n M_f at row (i+n) mod l, column i is f(i) z^floor((i+n)/l).
        Labels congruent mod l share an entry but never a power of z, since the
        row and the power together determine i + n.
        """
        l = self.period
        rows = [[{} for _ in range(l)] for _ in range(l)]
        for n, f in self.coeffs.items():
            for i, v in enumerate(f.values):
                rows[(i + n) % l][i][(i + n) // l] = v
        return MatrixSymbol([[LaurentPoly(e) for e in row] for row in rows])

    def to_json(self) -> dict:
        return {"S": self.S.to_json(),
                "period": self.period,
                "coeffs": {str(n): f.to_json() for n, f in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, obj) -> "BDElement":
        if not isinstance(obj, dict) or set(obj) != {"S", "period", "coeffs"}:
            raise ValueError('element must be {"S": ..., "period": l, "coeffs": {...}}')
        period = obj["period"]
        if not _is_int(period) or period < 1:
            raise ValueError("period must be a positive integer")
        if not isinstance(obj["coeffs"], dict):
            raise ValueError("coeffs must be an object mapping labels to functions")
        S = SupernaturalNumber.from_json(obj["S"])
        coeffs = {int(n): LocConstFn.from_json(f) for n, f in obj["coeffs"].items()}
        return cls(S, coeffs, period=period)

    def __repr__(self):
        return f"BDElement(S={self.S}, period={self.period}, support={self.support})"


# ---------------------------------------------------------------------------
# Laurent polynomials and matrix symbols

class LaurentPoly:
    """A Laurent polynomial in one variable with exact cyclotomic coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for p, c in (terms or {}).items():
            c = _as_cyclo(c)
            if c.terms:
                clean[int(p)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPoly values are immutable")

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out[p] + c if p in out else c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _as_cyclo(other)
            return LaurentPoly({p: v * c for p, v in self.terms.items()})
        out: dict = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = p1 + p2
                t = c1 * c2
                out[p] = out[p] + t if p in out else t
        return LaurentPoly(out)

    __rmul__ = __mul__

    def star(self) -> "LaurentPoly":
        """Adjoint on the circle: conjugate coefficients and invert the variable."""
        return LaurentPoly({-p: c.conj() for p, c in self.terms.items()})

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def coefficient(self, p: int) -> Cyclo:
        return self.terms.get(p, Cyclo.zero())

    @property
    def powers(self) -> tuple:
        return tuple(sorted(self.terms))

    def to_json(self) -> list:
        return [[p, self.terms[p].to_json()] for p in sorted(self.terms)]

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        if not isinstance(obj, list):
            raise ValueError("Laurent polynomial must be a list of [power, coeff] pairs")
        for it in obj:
            if not isinstance(it, list) or len(it) != 2:
                raise ValueError("Laurent polynomial terms must be [power, coeff] pairs")
            if not _is_int(it[0]):
                raise ValueError("Laurent polynomial powers must be integers")
        return cls({p: Cyclo.from_json(c) for p, c in obj})

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        return "LaurentPoly(" + " + ".join(
            f"({c!r})*z^{p}" for p, c in sorted(self.terms.items())) + ")"


class MatrixSymbol:
    """An l x l matrix of Laurent polynomials over the circle.

    The symbol map is a *-homomorphism: symbols multiply like the elements and
    the adjoint is the conjugate transpose with z inverted.
    """

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("symbol must be square")
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *args):
        raise AttributeError("MatrixSymbol values are immutable")

    def __add__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        return MatrixSymbol([[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        if not isinstance(other, MatrixSymbol):
            return MatrixSymbol([[e * other for e in row] for row in self.entries])
        if self.size != other.size:
            raise ValueError("symbols have different sizes")
        n = self.size
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentPoly.zero()
                for k in range(n):
                    e1 = self.entries[i][k]
                    if e1.terms:
                        acc = acc + e1 * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return MatrixSymbol(out)

    def star(self) -> "MatrixSymbol":
        n = self.size
        return MatrixSymbol([[self.entries[j][i].star() for j in range(n)]
                             for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        return self.size == other.size and all(
            a == b for r1, r2 in zip(self.entries, other.entries)
            for a, b in zip(r1, r2))

    __hash__ = None

    def to_json(self) -> dict:
        return {"size": self.size,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, obj) -> "MatrixSymbol":
        if not isinstance(obj, dict) or set(obj) != {"size", "entries"}:
            raise ValueError('symbol must be {"size": l, "entries": [[...]]}')
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ValueError("symbol entries must be a list of rows")
        if not _is_int(obj["size"]) or obj["size"] != len(entries):
            raise ValueError("symbol size does not match its entries")
        return cls([[LaurentPoly.from_json(e) for e in row] for row in entries])


# ---------------------------------------------------------------------------
# norms and spectra

@dataclass(frozen=True)
class NormReport:
    """A norm value together with how it was obtained and an exact bracket.

    window = (max_n (1+|n|)^M |f_n|_inf, sum_n (1+|n|)^M |f_n|_inf); at M = 0
    this is the usual bracket max |f_n| <= |a| <= sum |f_n|.  The sampled value
    sits inside the window whenever the sampling grid exceeds the Laurent power
    span of the symbol, which operator_norm arranges automatically.
    """

    value: float
    kind: str
    grid: int
    window: tuple

    def __post_init__(self):
        if self.kind not in ("exact", "grid-estimate"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.window[0] > self.window[1] + 1e-12:
            raise ValueError("window lower bound exceeds upper bound")

    def to_json(self) -> dict:
        return {"value": self.value, "kind": self.kind, "grid": self.grid,
                "window": [self.window[0], self.window[1]]}


def _max_power(a: BDElement) -> int:
    """Largest |floor((i+n)/l)| over the values f_n(i) that are not zero: the
    largest |power| of z in the symbol of a, and of every delta^j(a) with a
    label other than 0 (label 0 only reaches power 0)."""
    l = a.period
    return max((abs((i + n) // l) for n, f in a.coeffs.items()
                for i, v in enumerate(f.values) if not v.is_zero()), default=0)


# Grid points per block: one (block, l, l) buffer of about a mebibyte is
# assembled and decomposed at a time.  A whole (grid, l, l) array is 9 MiB at
# l = 48 and raises peak memory by as much again once the heap fragments.
_BLOCK_BYTES = 1 << 20


def _symbol_blocks(a: BDElement, grid: int, levels: int):
    """Sample the symbols of delta^j(a) = sum_n n^j U^n M_{f_n}, j < levels, at
    the points z_k = exp(2 pi i k / grid), in blocks of consecutive k.

    J^n M_f has the entry f(i) z^floor((i+n)/l) at row (i+n) mod l, column i,
    so label n contributes f_n(i) z_k^floor((i+n)/l) at the rows (i+n) mod l;
    labels congruent mod l land on the same entries and are summed.  A block's
    per-label samples are computed once for all levels.  Yields (j, block)
    with one reused buffer, so each block must be used before the next step.
    """
    l = a.period
    cols = np.arange(l)
    values = [(n, np.array([v.to_complex() for v in f.values], dtype=complex))
              for n, f in sorted(a.coeffs.items())]
    step = max(1, _BLOCK_BYTES // (16 * l * l))
    buf = np.zeros((min(step, grid), l, l), dtype=complex)
    for k0 in range(0, grid, step):
        z = np.exp(2j * np.pi * np.arange(k0, min(k0 + step, grid)) / grid)
        classes: dict = {}
        for n, vals in values:
            classes.setdefault(n % l, []).append((n, vals * z[:, None] ** ((cols + n) // l)))
        block = buf[:len(z)]
        for j in range(levels):
            for r, parts in classes.items():
                block[:, (cols + r) % l, cols] = sum(n ** j * smp for n, smp in parts)
            yield j, block


def _base_norms(a: BDElement, m: int, grid: int) -> list:
    """(value as Fraction, kind, effective grid) of |delta^j(a)| for j = 0..m.

    A diagonal element short-circuits to the exact sup of |f_0| at j = 0, and
    the vanishing delta^j(a) with j >= 1 to an exact 0.  Otherwise every level
    is the largest singular value of its symbol maximized over
    max(grid, 2 * max power + 1) circle points; the levels only reweight the
    same sampled coefficients, which are evaluated once.
    """
    if all(n == 0 for n in a.coeffs):
        top = Fraction(a.coeffs[0].sup_norm()) if a.coeffs else Fraction(0)
        return [(top, "exact", 0)] + [(Fraction(0), "exact", 0)] * m
    eff = max(grid, 2 * _max_power(a) + 1)
    top = [0.0] * (m + 1)
    for j, block in _symbol_blocks(a, eff, m + 1):
        top[j] = max(top[j], float(np.linalg.svd(block, compute_uv=False).max()))
    return [(Fraction(t), "grid-estimate", eff) for t in top]


def operator_norm(a: BDElement, m: int = 0, grid: int = 256,
                  method: str = "binomial") -> NormReport:
    """Estimate the M-norm built from the label derivation.

    The base norms |delta^j(a)|, j = 0..m, are sampled straight from the
    coefficients of a: delta^j only reweights label n by n^j, so the sampled
    coefficients are shared by all levels and no delta^j(a) is built.
    method="binomial" assembles sum_j C(m, j) |delta^j(a)| directly;
    method="recursive" uses |a|_{M+1} = |a|_M + |delta(a)|_M.  Both run on the
    same exact base-norm values, so they agree bit for bit.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if m < 0:
        raise ValueError("norm level must be nonnegative")
    if method not in ("binomial", "recursive"):
        raise ValueError(f"unknown method {method!r}")

    parts = _base_norms(a, m, grid)
    base = [p[0] for p in parts]

    if method == "binomial":
        value = sum((math.comb(m, j) * base[j] for j in range(m + 1)), Fraction(0))
    else:
        memo = {}

        def rec(j, level):
            if level == 0:
                return base[j]
            if (j, level) not in memo:
                memo[(j, level)] = rec(j, level - 1) + rec(j + 1, level - 1)
            return memo[(j, level)]

        value = rec(0, m)

    kind = "exact" if all(p[1] == "exact" for p in parts) else "grid-estimate"
    eff = max(p[2] for p in parts)
    lower, upper = 0.0, 0.0
    for n, f in a.coeffs.items():
        w = (1 + abs(n)) ** m * f.sup_norm()
        lower = max(lower, w)
        upper += w
    return NormReport(float(value), kind, eff, (lower, upper))


def spectrum_sample(a: BDElement, grid: int = 256) -> list:
    """Eigenvalues of the symbol, sampled straight from the coefficients at the
    `grid` equispaced points of the circle, grid point by grid point.

    For normal elements this samples the spectrum; the output is a plain
    sample, not a certified enclosure.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    points = []
    for _, block in _symbol_blocks(a, grid, 1):
        points.extend(complex(w) for w in np.linalg.eigvals(block).reshape(-1))
    return points
