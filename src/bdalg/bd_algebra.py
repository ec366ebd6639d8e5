"""The polynomial crossed-product algebra of the odometer.

Elements are finite sums  sum_n U^n M_{f_n}  where U is the shift unitary and
M_f multiplies by a locally constant function f.  The single covariance rule

    M_f U = U M_{f o beta}        (beta the odometer shift)

drives the product, the adjoint, the matrix symbol over the circle and the
norm estimation.  Every element carries one common period l for all its
coefficients, which is also the size of its matrix symbol.  Elements whose
coefficients are constants, such as U^n and one(), have period 1 and multiply
by scaling (LocConstFn.scale): a product with U^n is a relabeling and a pullback.
The algebra's own results are built by one trusted constructor (_raw), which
skips the checks their operands passed; outside input (the constructor,
from_json, mult_op, with_period) keeps every check.  No stored coefficient is
zero, so equality compares the label sets and then the value tuples.

Norms and spectra are evaluated straight from the coefficients: U^n M_f has
the symbol entry f(i) z^floor((i+n)/l) at row (i+n) mod l, column i, so the
sampled symbol is assembled from the complex values f_n(i) without forming
the exact symbol, as the blocks its labels allow: _symbol_blocks builds only
the (level, grid point, block) matrices asked for, each alone, for norms and
spectra alike, and the whole grid is one such request.  The exact symbol is
plain data, l rows of l {power: Cyclo} dicts, and serves only ``bd symbol``.
The derivation levels of a norm are read from a's own coefficients, level j
weighting label n by n^j; delta(a) is never built.  Each label set is read
once for all its levels: the levels j >= 1 carry no label 0, so they share one
reading without it, and without label 0 level 0 joins them.  A sampled block's
norm is the square root of the largest eigenvalue of its Gram matrix, from
LAPACK's eigvalsh (_top_singular), at some grid points only, with the maximum
over all of them.

A reading with at most one label n is not sampled: its levels are
n^j U^n M_{f_n}, of norm exactly |n|^j sup |f_n| (0 without a label), which
covers diagonal and one-term elements and the levels j >= 1 of one with labels
{0, n}.  With two labels each block is, up to diagonal unitaries, one weighted
s-cycle whose singular values depend on z only through one cycle phase psi_c,
and peak where cos psi_c does (Wielandt's rho(A) <= rho(|A|), and the Floquet
theory of periodic Jacobi matrices; see _phase_points): two points per block
and level, in one eigvalsh call.  With three or more, every 8th point and the
best one's neighbours are decomposed, and the rest where a Schur-complement
Cholesky certificate cannot prove them lower (see _seeded_tops).

Norm values obtained from circle sampling are estimates bracketed by an exact
window, into which they are clamped; only the diagonal case is reported exact.
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

_ONE = LocConstFn.constant(1)  # the coefficient of U^n and one(), shared


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
        for n in coeffs:
            _int(n, "label")
        self._set(S, l, {n: f.with_period(l) for n, f in coeffs.items() if not f.is_zero()})

    def _set(self, S, l: int, coeffs: dict) -> "BDElement":
        object.__setattr__(self, "S", S)  # not _init: this runs on every operation
        object.__setattr__(self, "period", l)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def _raw(cls, S, coeffs: dict, nonzero: bool = False) -> "BDElement":
        """Trusted constructor of the algebra's results: labels and periods are not
        checked.  The period is the lcm of all coefficient periods, zero ones
        included, as in __init__; zeros are dropped unless nonzero rules them out."""
        periods = {f.period for f in coeffs.values()}
        l = math.lcm(*periods)
        if len(periods) > 1:
            coeffs = {n: f.with_period(l) for n, f in coeffs.items()}
        if not nonzero:
            coeffs = {n: f for n, f in coeffs.items() if not f.is_zero()}
        return cls.__new__(cls)._set(S, l, coeffs)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, S: SupernaturalNumber) -> "BDElement":
        return cls(S, {})

    @classmethod
    def one(cls, S: SupernaturalNumber) -> "BDElement":
        return cls.shift(S, 0)

    @classmethod
    def shift(cls, S: SupernaturalNumber, n: int = 1) -> "BDElement":
        """U^n."""
        return cls.__new__(cls)._set(S, 1, {_int(n, "label"): _ONE})

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
        n = _int(n, "label")
        return self.coeffs[n] if n in self.coeffs else LocConstFn.zero(self.period)

    # -- *-algebra operations -----------------------------------------------------

    def _check_compatible(self, other: "BDElement"):
        if self.S is not other.S and self.S != other.S:
            raise ValueError("elements live over different supernatural numbers")

    def __add__(self, other: "BDElement") -> "BDElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for n, g in other.coeffs.items():
            out[n] = out[n] + g if n in out else g
        return BDElement._raw(self.S, out)

    def __sub__(self, other: "BDElement") -> "BDElement":
        return self + (-other)

    def __neg__(self) -> "BDElement":
        return BDElement._raw(self.S, {n: -f for n, f in self.coeffs.items()}, True)

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
        # a single-term period-1 factor c U^n (c != 0) only relabels: no zero term
        return BDElement._raw(self.S, out, len(self.coeffs) == 1 and self.period == 1
                              or len(other.coeffs) == 1 and other.period == 1)

    def scale(self, c) -> "BDElement":
        c = _as_cyclo(c)
        return BDElement._raw(self.S, {n: f.scale(c) for n, f in self.coeffs.items()},
                              not c.is_zero())

    __rmul__ = scale

    def adjoint(self) -> "BDElement":
        """(U^n M_f)* = U^(-n) M_{conj(f) o beta^(-n)}."""
        return BDElement._raw(self.S, {-n: f.conj().pullback(-n)
                                       for n, f in self.coeffs.items()}, True)

    def delta_label(self) -> "BDElement":
        """The label derivation [L, .]: multiplies the n-th coefficient by n."""
        return BDElement._raw(self.S, {n: f.scale(n) for n, f in self.coeffs.items()},
                              0 not in self.coeffs)

    def circle_action(self, theta) -> "BDElement":
        """The circle automorphism scaling U by exp(2 pi i theta); theta must be
        an exact rational so the phases stay cyclotomic."""
        theta = _rational(theta, "angle")
        p, q = theta.numerator, theta.denominator
        return BDElement._raw(self.S, {n: f.scale(root_of_unity(n * p, q))
                                       for n, f in self.coeffs.items()}, True)

    def trace(self) -> Cyclo:
        """Haar mean of the diagonal part; tracial and normalized at 1."""
        return self.fourier_coefficient(0).haar_integral()

    def __eq__(self, other):
        if not isinstance(other, BDElement):
            return NotImplemented
        if self.S is not other.S and self.S != other.S:
            return False
        a, b = self.coeffs, other.coeffs  # no stored coefficient is zero
        return a.keys() == b.keys() and all(f == b[n] for n, f in a.items())

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


# Sampling steps: at most half a mebibyte of s x s blocks at a time, so that
# their Gram matrices fit in the other half.  A whole (grid, l, l) array is 9 MiB
# at l = 48 and raises peak memory by as much again once the heap fragments.
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
    """The values of each coefficient of a as a list of complex numbers, by
    label: the one conversion that a norm's samplings and its window share."""
    return {n: [v.to_complex() for v in f.values] for n, f in a.coeffs.items()}


def _symbol_blocks(a: BDElement, grid: int, first: int, values: dict, points):
    """Sample the symbols of delta^j(a) = sum_n n^j U^n M_{f_n}, j >= first, at
    points z_k = exp(2 pi i k / grid), as stacks of the blocks asked for.

    J^n M_f has the entry f(i) z^floor((i+n)/l) at row (i+n) mod l, column i;
    labels congruent mod l land on the same entries and are summed.  With
    (g, n0) from _cosets and s = l/g, only the columns i = c (mod g) reach the
    rows c + n0 (mod g), so the symbol is its g blocks of size s: block c
    holds the entry of row r, column i = c (mod g) at (r // g, i // g).
    From first = 1 on, label 0, whose weight is 0^j = 0, is dropped and g
    comes from the remaining labels, so the levels j >= 1 can split into more
    blocks than level 0.

    `points` is a (levels - first, P) array of grid indices with g dividing P:
    row r asks for level first + r at its indices, the p-th of them in block
    p mod g, so that np.arange(grid).repeat(g) is the whole grid.  Each
    (level, index, block) is one s x s matrix, built from that block's own s
    columns, with label n weighted by n^j.  They are yielded row by row as
    (matrices, s, s) stacks of whole groups of g, each step at most half of
    _BLOCK_BYTES, so that the caller's Gram matrices fit in the other half,
    and in one reused buffer: each stack must be used before the next step.
    `values` are a's values from _complex_values.  _base_norms passes the
    points of _phase_points for a sampling with two labels and those of
    _seeded_tops for more; spectrum_sample and _grid_top (verify) pass the
    whole grid.
    """
    np = _numpy()
    l = a.period
    labels = sorted(n for n in a.coeffs if n or not first)
    g = _cosets(l, labels)[0]
    s = l // g
    cols = np.arange(l).reshape(s, g).T  # row c: the columns of block c
    classes: dict = {}  # n mod l: (the row of each column, the labels' terms)
    for n in labels:
        weights = np.array([n ** j for j in range(first, first + len(points))], dtype=complex)
        terms = classes.setdefault(n % l, ((cols + n) % l // g, []))[1]
        terms.append((weights, np.asarray(values[n], dtype=complex)[None, cols], (cols + n) // l))
    per, points = points.shape[1], points.reshape(-1, g)  # a group: one index per block
    step = max(1, _BLOCK_BYTES // (32 * l * s))
    buf = np.zeros((min(step, len(points)), g, s, s), dtype=complex)
    blocks, cc = np.arange(g)[:, None], np.arange(s)
    for p0 in range(0, len(points), step):
        k = points[p0:p0 + step]
        r = np.arange(p0, p0 + len(k)) * g // per  # the level of each group
        if (k == k[:, :1]).all():  # one index for all g blocks, as repeat(g) gives
            k = k[:, :1]  # so z once per grid point
        z = np.exp(2j * np.pi * k / grid)[..., None]
        stack = buf[:len(k)]  # slot c of a group is always block c: no stale entries
        for rows, terms in classes.values():
            stack[:, blocks, rows, cc] = sum(w[r, None, None] * (vals * z ** pw)
                                             for w, vals, pw in terms)
        yield stack.reshape(-1, s, s)


def _top_singular(blocks, gram):
    """The largest singular value of each s x s matrix B of the stack `blocks`
    (shape (..., s, s)), as sqrt(lambda_max(B^H B)).

    The Gram matrices B^H B are formed in `gram`, a buffer shaped like the
    largest stack of a sampling and reused for each of its steps, and their
    eigenvalues come from one eigvalsh call on the whole stack.  The largest
    is off by at most about c * s * eps * |B|^2, so its square root is as
    accurate, relative to |B|, as the top value of a singular value
    decomposition.  Rounding can leave it slightly below 0, so it is clipped
    at 0.  1 x 1 blocks are their own modulus.
    """
    np = _numpy()
    s = blocks.shape[-1]
    if s == 1:
        return np.abs(blocks[..., 0, 0])
    gram = gram[:len(blocks)]
    np.matmul(blocks.conj().swapaxes(-1, -2), blocks, out=gram)
    lam = np.linalg.eigvalsh(gram.reshape(-1, s, s))[:, -1]
    return np.sqrt(np.maximum(lam, 0.0)).reshape(blocks.shape[:-2])


def _phase_points(l: int, labels, values: dict, levels: range, grid: int):
    """The grid indices at which each level j in `levels` of a sampling with
    exactly two labels n0 < n1 reaches its maximum: a row of two per block for
    each level, the p-th for block p mod g, as _symbol_blocks takes them.

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
    half turns; it is the only way the points depend on j, so the rows of
    levels of one parity are equal.
    """
    np = _numpy()
    n0, n1 = labels
    g = math.gcd(l, n1 - n0)
    cols = np.arange(l)
    arg = np.angle(values[n1]) - np.angle(values[n0])
    j = np.arange(levels.start, levels.stop)[:, None, None]
    turns = arg.reshape(-1, g).sum(axis=0) / (2 * np.pi)
    turns = turns + (l // g) * j * ((n1 < 0) - (n0 < 0)) / 2
    e = ((cols + n1) // l - (cols + n0) // l).reshape(-1, g).sum(axis=0)
    d = np.gcd(e, grid)
    m = grid // d
    inv = np.array([pow(int(x), -1, int(y)) for x, y in zip(e // d, m)])
    t = np.floor(-turns * m).astype(np.int64) + np.arange(2)[:, None]
    return (t % m * inv % m).reshape(len(levels), -1)


def _point_tops(a: BDElement, grid: int, first: int, values: dict, points):
    """The top singular value of each (level, grid index) matrix of `points`
    (see _symbol_blocks), as an array shaped like `points`."""
    np = _numpy()
    gram, out = None, []
    for stack in _symbol_blocks(a, grid, first, values, points):
        if gram is None:
            gram = np.empty_like(stack)
        out.append(_top_singular(stack, gram))
    return np.concatenate(out).reshape(points.shape)


def _definite(h):
    """Whether each Hermitian matrix of the stack h is positive definite: one
    batched Cholesky, and only where that fails, the least eigenvalue of each."""
    from numpy.linalg import LinAlgError  # the class itself, past any wrapper of np
    np = _numpy()
    try:
        np.linalg.cholesky(h)
        return np.ones(h.shape[:-2], dtype=bool)
    except LinAlgError:
        return np.linalg.eigvalsh(h)[..., 0] > 0


_SEED_STEP, _MARGIN, _GAP = 8, 1e-9, 1e-3  # see _seeded_tops and _uncovered


def _uncovered(a: BDElement, grid: int, j: int, values: dict, lam: float, rest):
    """The grid indices of `rest` where level j of a (three or more labels) is
    not proved below c = (1 - _MARGIN) lam, lam its top at the other points.

    The columns F of a block whose entries carry one power of z each are
    constant up to a diagonal unitary, and the others are B_V(z) = sum_p z^p
    B_p.  With C = B_F^H B_F and c I - C = L L^H, lambda_max(B^H B) < c
    exactly where the r x r Schur complement c I - A(z)^H A(z) is definite,
    A(z) = sum_p z^p [B_p; L^-1 B_F^H B_p] (r = |V|, 4 for labels (-3, 0, 1)):
    a Laurent polynomial, checked at the grid points by one batched Cholesky.
    All are returned unless (1 - _GAP) lam I - C is definite, which keeps the
    rounding, about (s + f) eps / _GAP relative to lam, below _MARGIN.
    """
    np = _numpy()
    if not rest.size:
        return rest
    l, labels = a.period, sorted(n for n in a.coeffs if n or not j)
    g = _cosets(l, labels)[0]
    s, cols = l // g, np.arange(l)
    pw = np.array([(cols + n) // l for n in labels])
    powers, at = np.unique(pw, return_inverse=True)
    coef = np.zeros((len(powers), g, s, s), dtype=complex)
    for n, p in zip(labels, at.reshape(pw.shape)):
        coef[p, cols % g, (cols + n) % l // g, cols // g] = complex(n ** j) * np.array(values[n])
    fixed = (pw == pw[0]).all(axis=0).reshape(s, g).all(axis=1)
    bf, bv = coef.sum(axis=0)[..., fixed], coef[..., ~fixed]
    c, gram, eye = (1 - _MARGIN) * lam, bf.conj().swapaxes(-1, -2) @ bf, np.eye(fixed.sum())
    if not _definite((1 - _GAP) * lam * eye - gram).all():
        return rest
    low = np.linalg.cholesky(c * eye - gram)
    bv = np.concatenate([bv, np.linalg.solve(low, bf.conj().swapaxes(-1, -2) @ bv)], axis=-2)
    r = bv.shape[-1]
    prods = np.einsum("pgar,qgat->pqgrt", bv.conj(), bv).reshape(len(powers) ** 2, -1)
    shift = (powers[None, :] - powers[:, None]).ravel()  # A_p^H A_q carries z^(q - p)
    step = max(1, _BLOCK_BYTES // (16 * g * r * r))
    bad = [rest[:0]]
    for k in np.split(rest, range(step, rest.size, step)):
        phase = np.exp(2j * np.pi * np.outer(k, shift) / grid)
        bad.append(k[~_definite(c * np.eye(r) - (phase @ prods).reshape(-1, g, r, r)).all(axis=1)])
    return np.concatenate(bad)


def _seeded_tops(a: BDElement, grid: int, first: int, levels: int, values: dict):
    """The grid maxima of levels first..levels - 1 of a sampling with three or
    more labels, from every _SEED_STEP-th point, the points around each level's
    best one, and the points that _uncovered cannot prove lower."""
    np = _numpy()
    g = _cosets(a.period, [n for n in a.coeffs if n or not first])[0]
    seed = np.arange(0, grid, _SEED_STEP).repeat(g)  # the p-th for block p mod g
    seen = _point_tops(a, grid, first, values, np.tile(seed, (levels - first, 1)))
    best = seed[seen.argmax(axis=1)]
    near = (best[:, None] + np.r_[1 - _SEED_STEP:0, 1:_SEED_STEP]) % grid
    near_tops = _point_tops(a, grid, first, values, near.repeat(g, axis=1))
    top = np.maximum(seen.max(axis=1), near_tops.max(axis=1))
    for r, j in enumerate(range(first, levels)):
        rest = np.ones(grid, dtype=bool)
        rest[seed] = rest[near[r]] = False
        rest = _uncovered(a, grid, j, values, top[r] ** 2, np.flatnonzero(rest)).repeat(g)
        if rest.size:
            top[r] = max(top[r], _point_tops(a, grid, j, values, rest[None]).max())
    return top


def _base_norms(a: BDElement, m: int, grid: int, values: dict | None = None) -> list:
    """(value as Fraction, kind, effective grid) of |delta^j(a)| for j = 0..m.

    Level j weights a's own coefficients by n^j, so the levels that share a
    label set share one reading: with label 0, level 0 is one and the levels
    j >= 1, which drop it, another.  Both share `values`, a's values from
    _complex_values.  A reading with at most one label n is exact, as its
    levels are n^j U^n M_{f_n}: |n|^j sup |f_n|, or 0 with no label, and
    numpy is not loaded for it.  One with two labels is sampled at the points
    of _phase_points and one with three or more at those of _seeded_tops,
    each the largest top singular value (see _top_singular) of the symbol's
    blocks over eff = max(grid, 2 * max power + 1) circle points, with the
    maximum over the whole grid (see the module); _symbol_blocks builds only
    the blocks at those points.  kind is "exact" and eff 0 when every label is
    0; otherwise kind is "grid-estimate", once _check_samples allows the
    sampling.
    """
    if values is None:
        values = _complex_values(a)
    if all(n == 0 for n in a.coeffs):
        kind, eff = "exact", 0
    else:
        kind, eff = "grid-estimate", max(grid, 2 * _max_power(a) + 1)
        _check_samples(m + 1, eff, a.period)
    top = []
    for first, levels in [(0, 1), (1, m + 1)] if m and 0 in a.coeffs else [(0, m + 1)]:
        labels = sorted(n for n in a.coeffs if n or not first)
        if len(labels) <= 1:  # |n|^j sup |f_n|; j = 0 or no label (0) takes no product
            sup = Fraction(max(map(abs, values[labels[0]]))) if labels else Fraction(0)
            top += [abs(labels[0]) ** j * sup if j and labels else sup
                    for j in range(first, levels)]
        elif len(labels) == 2:
            points = _phase_points(a.period, labels, values, range(first, levels), eff)
            top += map(Fraction, _point_tops(a, eff, first, values, points).max(axis=1).tolist())
        else:
            top += map(Fraction, _seeded_tops(a, eff, first, levels, values).tolist())
    return [(t, kind, eff) for t in top]


def operator_norm(a: BDElement, m: int = 0, grid: int = 256,
                  method: str = "binomial") -> NormReport:
    """Estimate the M-norm built from the label derivation.

    The base norms |delta^j(a)|, j = 0..m, are read straight from a's
    coefficients, each label set once for all its levels (see _base_norms).
    A level with at most one label is the exact |n|^j sup |f_n|, so every
    level of a diagonal element (kind "exact", grid 0) and of a one-term
    element U^n M_f, n != 0, is exact; the latter keeps kind "grid-estimate"
    and grid eff, and its window is the one point (1 + |n|)^m sup |f|.
    Two-label samplings are decomposed where their blocks peak; one with
    three or more labels at every 8th grid point, around the best one, and
    where a Schur-complement Cholesky certificate cannot prove the rest
    lower.  The value is still the maximum over all eff grid points (bit for
    bit with three or more labels, as each block is sampled alone), so kind,
    grid and window keep their meaning.  a's values are converted to complex
    numbers once, for the base norms and the window.
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
    values = _complex_values(a)
    return _assemble_norm(_base_norms(a, m, grid, values), method, values)


def _assemble_norm(parts: list, method: str, values: dict) -> NormReport:
    """The M-norm report of an element a from its base norms |delta^j(a)|,
    j = 0..M, as listed by _base_norms; M is len(parts) - 1.  Every level
    shares one kind and one effective grid.  The values are exact Fractions, so
    both methods give the same sum, and the same value once it is clamped into
    the window.  The window reads sup |f_n| from `values`, a's values from
    _complex_values."""
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
    for n, z in values.items():
        w = (1 + abs(n)) ** m * max(map(abs, z))
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
    for stack in _symbol_blocks(a, grid, 0, _complex_values(a), np.arange(grid).repeat(g)[None]):
        block = stack.reshape(-1, g, s, s)
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
