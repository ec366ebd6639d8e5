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
the exact symbol, as the blocks its labels allow (see _symbol_blocks).  The
exact symbol is plain data, l rows of l {power: Cyclo} dicts, and serves only
``bd symbol``.
The derivation levels j >= 1 of a norm carry no label 0, so they are sampled
from a's own coefficients weighted by n^j, without label 0 and as the blocks
the other labels allow; delta(a) is never built.  Every block's norm is the
square root of the largest eigenvalue of its Gram matrix (_top_singular), in
closed form for 3 x 3 blocks and from LAPACK's eigvalsh otherwise.

A sampling with exactly two labels n0 < n1 (every level of a two-term
element, and the levels j >= 1 of a three-term one with label 0) needs only
two grid points per block.  Each block is, up to diagonal unitaries, one
weighted s-cycle whose singular values depend on z only through one cycle
phase psi_c, and its top singular value is largest where cos psi_c is: at
psi = 0 by Wielandt's rho(A) <= rho(|A|), and falling in |psi| on [0, pi] by
the Floquet theory of periodic Jacobi matrices (see _phase_points).  So the
grid maximum is taken over the two grid points per block whose phase is
nearest 0, which give the same value as all of them.

Norm values obtained from circle sampling are estimates bracketed by an exact
window, into which they are clamped; only the diagonal case is exact.
Internally the estimates are carried as exact rationals so the two assembly
rules for higher norms (binomial sum versus the recursion
|a|_{M+1} = |a|_M + |delta(a)|_M) agree bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclo, _as_cyclo, root_of_unity
from .odometer_fn import LocConstFn
from .supernatural import SupernaturalNumber, _Frozen, _int, _rational


def _label(key: str) -> int:
    """The label a JSON object key names.  Only the form str(n) is read, so that
    no two keys ("1" and "01", or "10" and " 1_0") name the same label."""
    n = int(key) if isinstance(key, str) and key.removeprefix("-").isdecimal() else None
    if n is None or str(n) != key:
        raise ValueError(f"label {key!r} is not an integer written in canonical decimal form")
    return n


class BDElement(_Frozen):
    """A finite sum  sum_n U^n M_{f_n}  with a common period for all f_n."""

    __slots__ = ("S", "period", "coeffs")

    def __init__(self, S: SupernaturalNumber, coeffs: dict, period: int = None):
        l = 1 if period is None else _int(period, "period")
        if l < 1:
            raise ValueError("period must be a positive integer")
        for f in coeffs.values():
            l = math.lcm(l, f.period)
        if not S.divisible_by(l):
            raise ValueError(f"period {l} does not divide {S}")
        clean = {}
        for n, f in coeffs.items():
            _int(n, "label")
            if not f.is_zero():
                clean[n] = f.with_period(l)
        object.__setattr__(self, "S", S)  # not _init: this runs on every operation
        object.__setattr__(self, "period", l)
        object.__setattr__(self, "coeffs", clean)

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
        if self.S is not other.S and self.S != other.S:
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
        theta = _rational(theta, "angle")
        p, q = theta.numerator, theta.denominator
        return BDElement(self.S, {n: f.scale(root_of_unity(n * p, q))
                                  for n, f in self.coeffs.items()})

    def trace(self) -> Cyclo:
        """Haar mean of the diagonal part; tracial and normalized at 1."""
        return self.fourier_coefficient(0).haar_integral()

    def __eq__(self, other):
        if not isinstance(other, BDElement):
            return NotImplemented
        if self.S is not other.S and self.S != other.S:
            return False
        for n in set(self.coeffs) | set(other.coeffs):
            if self.fourier_coefficient(n) != other.fourier_coefficient(n):
                return False
        return True

    __hash__ = None

    # -- symbol ---------------------------------------------------------------------

    def matrix_symbol(self) -> list:
        """The image in l x l matrices of Laurent polynomials over the circle, as
        l rows of l dicts {power of z: Cyclo} that hold no zero value.

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
                if not v.is_zero():
                    rows[(i + n) % l][i][(i + n) // l] = v
        return rows

    def to_json(self) -> dict:
        return {"S": self.S.to_json(),
                "period": self.period,
                "coeffs": {str(n): f.to_json() for n, f in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, obj) -> "BDElement":
        if not isinstance(obj, dict) or set(obj) != {"S", "period", "coeffs"}:
            raise ValueError('element must be {"S": ..., "period": l, "coeffs": {...}}')
        if not isinstance(obj["coeffs"], dict):
            raise ValueError("coeffs must be an object mapping labels to functions")
        S = SupernaturalNumber.from_json(obj["S"])
        coeffs = {_label(n): LocConstFn.from_json(f) for n, f in obj["coeffs"].items()}
        return cls(S, coeffs, period=obj["period"])

    def __repr__(self):
        return f"BDElement(S={self.S}, period={self.period}, support={self.support})"


# ---------------------------------------------------------------------------
# norms and spectra

class NormReport(_Frozen):
    """A norm value together with how it was obtained and an exact bracket.

    window = (max_n (1+|n|)^M |f_n|_inf, sum_n (1+|n|)^M |f_n|_inf); at M = 0
    this is the usual bracket max |f_n| <= |a| <= sum |f_n|.  The sampled value
    sits inside the window whenever the sampling grid exceeds the Laurent power
    span of the symbol, which operator_norm arranges automatically: every
    |f_n(i)| is a Fourier coefficient of a symbol entry, so at most the grid
    maximum, and the upper end is the triangle inequality.  Rounding alone can
    put the computed value a few ulps outside, so it is clamped into the window.
    """

    __slots__ = ("value", "kind", "grid", "window")

    def __init__(self, value: float, kind: str, grid: int, window: tuple):
        if kind not in ("exact", "grid-estimate"):
            raise ValueError(f"unknown norm kind {kind!r}")
        if window[0] > window[1] + 1e-12:
            raise ValueError("window lower bound exceeds upper bound")
        self._init(value, kind, grid, window)

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


# Grid points per block: one (block, g, s, s) buffer of about a mebibyte is
# assembled and decomposed at a time.  A whole (grid, l, l) array is 9 MiB at
# l = 48 and raises peak memory by as much again once the heap fragments.
_BLOCK_BYTES = 1 << 20

# Limits on the sampling work, checked before anything is sampled: the norm
# level m, and (m + 1) * grid points * l^2, the size of the l x l symbols the
# levels would fill without the coset split.
_MAX_LEVEL = 64
_MAX_SAMPLES = 1 << 26


def _check_grid(grid):
    if _int(grid, "grid") < 16:
        raise ValueError("grid must be an integer of at least 16")


def _check_samples(levels: int, points: int, l: int):
    if levels * points * l * l > _MAX_SAMPLES:
        raise ValueError(f"sampling {levels} level(s) at {points} grid points of the "
                         f"{l} x {l} symbol exceeds {_MAX_SAMPLES} entries")


def _numpy():
    """numpy, imported on first use so that the exact paths never load it.

    It is kept as the module attribute `np`, and the sampling code reads that
    attribute, so a wrapper assigned to `bd_algebra.np` takes effect.
    """
    global np
    if "np" not in globals():
        import numpy as np
    return np


def __getattr__(name):
    if name == "np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cosets(l: int, labels) -> tuple:
    """(g, n0): n0 the smallest of the labels (0 without labels) and g the gcd
    of the period l with every difference n - n0.

    Every label is n0 mod g, so the symbol maps the columns i = c (mod g) into
    the rows c + n0 (mod g): it is a permutation of g blocks of size l/g.
    """
    labels = sorted(labels)
    n0 = labels[0] if labels else 0
    return math.gcd(l, *(n - n0 for n in labels)), n0


def _complex_values(a: BDElement) -> dict:
    """The values of each coefficient of a as a complex array, by label."""
    np = _numpy()
    return {n: np.array([v.to_complex() for v in f.values], dtype=complex)
            for n, f in a.coeffs.items()}


def _symbol_blocks(a: BDElement, grid: int, levels: int, first: int = 0,
                   values: dict | None = None, points=None):
    """Sample the symbols of delta^j(a) = sum_n n^j U^n M_{f_n}, first <= j <
    levels, at the points z_k = exp(2 pi i k / grid), in blocks of consecutive k.

    J^n M_f has the entry f(i) z^floor((i+n)/l) at row (i+n) mod l, column i;
    labels congruent mod l land on the same entries and are summed.  With
    (g, n0) from _cosets and s = l/g, only the columns i = c (mod g) reach the
    rows c + n0 (mod g), so the symbol is stored as its g blocks of size s:
    block c holds the entry of row r, column i = c (mod g) at (r // g, i // g).
    From first = 1 on, label 0, whose weight is 0^j = 0, is dropped and g
    comes from the remaining labels, so the levels j >= 1 can split into more
    blocks than level 0.
    A block of grid points is a (points, g, s, s) array, assembled in place.
    Its per-label samples are computed once for all levels, and level j weights
    label n by n^j.  `values` are a's values from _complex_values, converted
    here when not given.  Yields (j, block) with one reused buffer, so each
    block must be used before the next step.

    `points`, an array of grid indices k, restricts the sampling to those
    points, and the p-th of them to block p mod g: each step then yields a
    (points, s, s) stack, one matrix per index.  _base_norms passes the
    points of _phase_points for a sampling with exactly two labels, whose
    blocks reach their maximum over the grid where their cycle phase is
    nearest 0.
    """
    np = _numpy()
    l = a.period
    coeffs = {n: f for n, f in a.coeffs.items() if n or not first}
    g = _cosets(l, coeffs)[0]
    s = l // g
    cols = np.arange(l)
    if values is None:
        values = _complex_values(a)
    values = [(n, values[n]) for n in sorted(coeffs)]
    cb, cc = cols % g, cols // g
    rows = {n % l: (cols + n) % l // g for n in coeffs}
    count = grid if points is None else len(points)
    step = max(1, _BLOCK_BYTES // (16 * l * s))
    buf = np.zeros((min(step, count), g, s, s), dtype=complex)
    for k0 in range(0, count, step):
        k = np.arange(k0, min(k0 + step, count))
        z = np.exp(2j * np.pi * (k if points is None else points[k]) / grid)
        classes: dict = {}
        for n, vals in values:
            classes.setdefault(n % l, []).append((n, vals * z[:, None] ** ((cols + n) // l)))
        block = buf[:len(z)]
        for j in range(first, levels):
            for r, parts in classes.items():
                block[:, cb, rows[r], cc] = sum(n ** j * smp for n, smp in parts)
            yield j, block if points is None else block[k - k0, k % g]


# A 3 x 3 Gram matrix whose r = det(G - qI) / (2 p^3) is below this has a
# nearly double top eigenvalue, where the closed form loses about half its
# digits; those matrices go to eigvalsh.
_NEAR_DOUBLE = -1 + 1e-4


def _top_eigenvalue3(gram):
    """The largest eigenvalue of each Hermitian 3 x 3 matrix of the stack
    `gram` (shape (matrices, 3, 3)), by the trigonometric closed form
    (O. K. Smith, Comm. ACM 4(4), 1961).

    With q = tr(G)/3, p = |G - qI|_F / sqrt(6) and r = det(G - qI) / (2 p^3)
    clipped to [-1, 1], the eigenvalues are q + 2p cos((arccos(r) + 2 pi k)/3)
    and the largest is k = 0.  Each matrix is first scaled, exactly, by a
    power of two near 1 / trace, so no power overflows; a matrix with p = 0
    is qI.  Near r = -1 the top two eigenvalues meet and the cosine's slope in
    r is unbounded, so the matrices with r < _NEAR_DOUBLE are sent to one
    eigvalsh call instead, as in J. Kopp's hybrid (Int. J. Mod. Phys. C 19,
    2008).
    """
    np = _numpy()
    x = gram.reshape(-1, 9)
    trace = x[:, 0].real + x[:, 4].real + x[:, 8].real
    scale = np.ldexp(1.0, np.minimum(-np.frexp(trace)[1], 1000))
    q = trace * scale / 3
    a, b, c = (x[:, k].real * scale - q for k in (0, 4, 8))
    d, e, f = (x[:, k] * scale for k in (1, 2, 5))
    dd, ee, ff = [w.real ** 2 + w.imag ** 2 for w in (d, e, f)]
    p = np.sqrt((a * a + b * b + c * c + 2 * (dd + ee + ff)) / 6)
    det = a * b * c + 2 * (d * f * e.conj()).real - a * ff - b * ee - c * dd
    den = 2 * p ** 3
    r = np.clip(np.divide(det, den, out=np.zeros_like(det), where=den > 0), -1, 1)
    lam = (q + 2 * p * np.cos(np.arccos(r) / 3)) / scale
    near = np.flatnonzero(r < _NEAR_DOUBLE)
    if near.size:
        lam[near] = np.linalg.eigvalsh(gram.reshape(-1, 3, 3)[near])[:, -1]
    return lam


def _top_singular(blocks, gram):
    """The largest singular value of each s x s matrix B of the stack `blocks`
    (shape (..., s, s)), as sqrt(lambda_max(B^H B)).

    The Gram matrices B^H B are formed in `gram`, a buffer shaped like the
    largest stack of a sampling and reused for each of its steps, and only
    their top eigenvalue is computed: for s = 3 by the closed form of
    _top_eigenvalue3, which hands only the nearly double ones to eigvalsh,
    and for every other s by eigvalsh on the whole stack.  The largest is off
    by at most about c * s * eps * |B|^2, so its square root is as accurate,
    relative to |B|, as the top value of a singular value decomposition.
    Rounding can leave it slightly below 0, so it is clipped at 0.  1 x 1
    blocks are their own modulus.
    """
    np = _numpy()
    s = blocks.shape[-1]
    if s == 1:
        return np.abs(blocks[..., 0, 0])
    gram = gram[:len(blocks)]
    np.matmul(blocks.conj().swapaxes(-1, -2), blocks, out=gram)
    if s == 3:
        lam = _top_eigenvalue3(gram)
    else:  # LAPACK sees a plain stack of s x s matrices
        lam = np.linalg.eigvalsh(gram.reshape(-1, s, s))[:, -1]
    return np.sqrt(np.maximum(lam, 0.0)).reshape(blocks.shape[:-2])


def _phase_points(l: int, labels, values: dict, j: int, grid: int):
    """The grid indices at which level j of a sampling with exactly two labels
    n0 < n1 reaches its maximum: two per block, the p-th for block p mod g, as
    _symbol_blocks takes them.

    With g = gcd(l, n1 - n0) and s = l/g, block c is P (D_0 + Q D_1) for a
    permutation P, the diagonals D_n of the weighted samples n^j f_n(i)
    z^floor((i+n)/l) at the columns i = c (mod g), and Q one s-cycle, since
    (n1 - n0)/g is prime to s.  Diagonal unitaries on either side keep the
    singular values, and they take every phase of the block's 2s entries into
    one cycle phase psi_c = alpha_c + e_c theta at z = exp(i theta), with
    alpha_c = arg prod (n1^j f_n1(i)) conj(n0^j f_n0(i)) and
    e_c = sum (floor((i+n1)/l) - floor((i+n0)/l)) over those i.  So B^H B is
    a periodic Jacobi matrix with flux psi_c, and its largest eigenvalue is a
    non-increasing function of |psi_c| on [0, pi]: at psi = 0 it is largest,
    as rho(A) <= rho(|A|) (Wielandt), and above the top band the Floquet
    discriminant is monotone, so the top eigenvalue falls as cos psi does.
    The grid point nearest psi_c = 0 (mod 2 pi) thus holds the block's
    maximum over the grid; where a value is 0 the cycle is broken and every
    point gives the same value.

    With d_c = gcd(e_c, grid) and m_c = grid / d_c, the phases e_c k / grid
    (mod 1) are the multiples t / m_c, reached at k = t (e_c / d_c)^-1
    (mod m_c).  The nearest is one of the two t next to -alpha_c m_c / (2 pi),
    and keeping both also covers a tie and a rounding of alpha_c.  The sign of n^j
    adds j pi per negative label and column, which is carried exactly, in
    half turns.
    """
    np = _numpy()
    n0, n1 = labels
    g = math.gcd(l, n1 - n0)
    cols = np.arange(l)
    arg = np.angle(values[n1]) - np.angle(values[n0])
    turns = arg.reshape(-1, g).sum(axis=0) / (2 * np.pi)
    turns += (l // g) * j * ((n1 < 0) - (n0 < 0)) / 2
    e = ((cols + n1) // l - (cols + n0) // l).reshape(-1, g).sum(axis=0)
    d = np.gcd(e, grid)
    m = grid // d
    inv = np.array([pow(int(x), -1, int(y)) for x, y in zip(e // d, m)])
    t = np.floor(-turns * m).astype(np.int64) + np.arange(2)[:, None]
    return (t % m * inv % m).ravel()


def _raise_top(top: list, blocks):
    """Raise top[j] to the largest top singular value of each (j, block) that
    `blocks` yields (see _top_singular)."""
    np = _numpy()
    gram = None
    for j, block in blocks:
        if gram is None:
            gram = np.empty_like(block)
        top[j] = max(top[j], float(_top_singular(block, gram).max()))


def _base_norms(a: BDElement, m: int, grid: int) -> list:
    """(value as Fraction, kind, effective grid) of |delta^j(a)| for j = 0..m.

    A diagonal element short-circuits to the exact sup of |f_0| at j = 0, and
    the vanishing delta^j(a) with j >= 1 to an exact 0.  Otherwise every level
    is the largest singular value of its symbol maximized over
    eff = max(grid, 2 * max power + 1) circle points: the largest over the
    symbol's blocks (see _top_singular).  Level 0 is one sampling of a; the
    levels j >= 1 are a second sampling of a's own coefficients, weighted by
    n^j, at the same eff.  They carry no label 0, so that sampling drops it
    and is split into the blocks the other labels allow: for labels
    (-3, 0, 1) the symbol of a is one l x l block, but every later level is
    gcd(l, 4) blocks.  No delta^j(a) is built; within each sampling the levels
    only reweight the same sampled coefficients, and both samplings share one
    conversion of a's values to complex numbers.

    A sampling with exactly two labels (every level of a two-term element,
    and the levels j >= 1 of a three-term one with label 0) has its maximum
    over the grid, block by block, at the grid point whose cycle phase is
    nearest 0 (see _phase_points), so each of its levels samples and
    decomposes only two points per block: at most 2g matrices, not eff * g.
    """
    if all(n == 0 for n in a.coeffs):
        top = Fraction(a.coeffs[0].sup_norm()) if a.coeffs else Fraction(0)
        return [(top, "exact", 0)] + [(Fraction(0), "exact", 0)] * m
    eff = max(grid, 2 * _max_power(a) + 1)
    _check_samples(m + 1, eff, a.period)
    top = [0.0] * (m + 1)
    values = _complex_values(a)
    for first, levels in [(0, 1), (1, m + 1)] if m else [(0, 1)]:
        labels = sorted(n for n in a.coeffs if n or not first)
        if len(labels) != 2:
            _raise_top(top, _symbol_blocks(a, eff, levels, first, values))
            continue
        for j in range(first, levels):
            points = _phase_points(a.period, labels, values, j, eff)
            _raise_top(top, _symbol_blocks(a, eff, j + 1, j, values, points))
    return [(Fraction(t), "grid-estimate", eff) for t in top]


def operator_norm(a: BDElement, m: int = 0, grid: int = 256,
                  method: str = "binomial") -> NormReport:
    """Estimate the M-norm built from the label derivation.

    The base norms |delta^j(a)|, j = 0..m, are sampled straight from a's
    coefficients, and no delta^j(a) is built: delta^j only reweights label n
    by n^j.  Level 0 is one sampling; the levels j >= 1, which have no label
    0, are a second one without it, and within each sampling the sampled
    coefficients are shared by its levels.  Each symbol is sampled as the g
    blocks of size l/g that its own labels allow (see _symbol_blocks), and its
    norm is the largest of the blocks' top singular values, each the square
    root of the largest eigenvalue of the block's Gram matrix: in closed form
    for 3 x 3 blocks, from eigvalsh otherwise (see _top_singular).  A
    sampling with exactly two labels is decomposed only at the two grid points
    per block whose cycle phase is nearest 0, where the block's top singular
    value is largest (Wielandt, and the Floquet theory of periodic Jacobi
    matrices; see _phase_points); the value is still the grid maximum over
    eff points, so kind, grid and window keep their meaning.
    method="binomial" assembles sum_j C(m, j) |delta^j(a)| directly;
    method="recursive" uses |a|_{M+1} = |a|_M + |delta(a)|_M.  Both run on the
    same exact base-norm values, so they agree bit for bit, also after the
    value is clamped into its window (see NormReport).

    m and grid must be plain integers (bool refused), m >= 0 and grid >= 16.
    Levels m above _MAX_LEVEL, and sampling work (m + 1) * eff * l^2 above
    _MAX_SAMPLES, are refused with ValueError before anything is sampled.
    """
    _check_grid(grid)
    if _int(m, "norm level") < 0:
        raise ValueError("norm level must be a nonnegative integer")
    if m > _MAX_LEVEL:
        raise ValueError(f"norm level above {_MAX_LEVEL}")
    if method not in ("binomial", "recursive"):
        raise ValueError(f"unknown method {method!r}")
    return _assemble_norm(a, _base_norms(a, m, grid), method)


def _assemble_norm(a: BDElement, parts: list, method: str) -> NormReport:
    """The M-norm report of a from its base norms |delta^j(a)|, j = 0..M, as
    listed by _base_norms; M is len(parts) - 1.  Every level shares one kind
    and one effective grid.  The values are exact Fractions, so both methods
    give the same sum, and the same value once it is clamped into the window."""
    m = len(parts) - 1
    base = [p[0] for p in parts]
    if method == "binomial":
        value = sum((math.comb(m, j) * base[j] for j in range(m + 1)), Fraction(0))
    else:  # Pascal rows: |.|_{k+1} at level j is |.|_k at j plus |.|_k at j + 1
        for _ in range(m):
            base = [x + y for x, y in zip(base, base[1:])]
        value = base[0]
    _, kind, eff = parts[0]
    lower, upper = 0.0, 0.0
    for n, f in a.coeffs.items():
        w = (1 + abs(n)) ** m * f.sup_norm()
        lower = max(lower, w)
        upper += w
    # both ends bound the exact grid maximum, so only rounding puts it outside
    return NormReport(min(max(float(value), lower), upper), kind, eff, (lower, upper))


def spectrum_sample(a: BDElement, grid: int = 256) -> list:
    """Eigenvalues of the symbol, sampled straight from the coefficients at the
    `grid` equispaced points of the circle, grid point by grid point.

    The symbol is sampled as its g blocks B_c of size s = l/g (see
    _symbol_blocks), and block c maps coset c to coset c + n0 (mod g).  Under
    c -> c + n0 the blocks form h = gcd(g, n0) cycles of length k = g/h, and
    the symbol restricted to one cycle c_0, ..., c_(k-1) is block-cyclic: its
    eigenvalues are the k k-th roots of each eigenvalue of the product
    B_(c_(k-1)) ... B_(c_0).  Each factor is divided by its largest modulus
    before the product, and the k-th root of the product of those scales is
    put back factor by factor, so no product overflows.  The l eigenvalues of
    a grid point come out cycle by cycle.  grid must be a plain integer of at
    least 16, and grid * l * l above _MAX_SAMPLES is refused with ValueError.

    For normal elements this samples the spectrum; the output is a plain
    sample, not a certified enclosure.
    """
    _check_grid(grid)
    _check_samples(1, grid, a.period)
    np = _numpy()
    g, n0 = _cosets(a.period, a.coeffs)
    s = a.period // g
    h = math.gcd(g, n0)
    k = g // h
    cycles = [(np.arange(h) + j * n0) % g for j in range(k)]
    turns = np.exp(2j * np.pi * np.arange(k) / k)[:, None]
    points = []
    for _, block in _symbol_blocks(a, grid, 1):
        scale = np.abs(block).max(axis=(2, 3))
        scale[scale == 0] = 1
        unit = block / scale[:, :, None, None]
        prod = unit[:, cycles[0]]
        for c in cycles[1:]:
            prod = unit[:, c] @ prod
        if s == 1:
            mu = prod[..., 0]
        else:  # LAPACK sees a plain stack of s x s matrices
            mu = np.linalg.eigvals(prod.reshape(-1, s, s)).reshape(prod.shape[:-1])
        if k > 1:
            mu = np.abs(mu) ** (1 / k) * np.exp(1j * np.angle(mu) / k)
        back = np.prod([scale[:, c] ** (1 / k) for c in cycles], axis=0)
        ev = mu[:, :, None, :] * turns * back[:, :, None, None]
        points.extend(ev.reshape(-1).tolist())
    return points
