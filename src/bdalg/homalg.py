"""Integer Smith normal form and Hom/Ext-to-Z of finitely generated Abelian
groups given by presentation matrices.

The normal form is computed with explicit unimodular transformations.  Each
pivot is the entry of smallest absolute value in the remaining block (then
smallest row, then smallest column); its column and then its row are cleared
by nearest-integer quotients, the smallest remainder taking over as pivot, so
the output is deterministic.  D is unique; U and V are one valid pair of many.
Each working row stores only the unfinished columns of the active block, which
shrinks by one column per final pivot, followed by its row of U (the border);
V is kept transposed, one row per column.  Everything is exact integer
arithmetic; the matrices here are desk scale.

Ext needs only D, so a nonsingular square matrix takes a shorter route: one
Bareiss elimination gives the determinant and some minors of orders n-1 and
n-2, and their gcds certify d_1, ..., d_{n-1} at every prime that does not
divide the pivot those minors share; the rare primes that divide both are
factored and settled by an elimination modulo a prime power.  Singular and non-square
matrices, 1 x 1 matrices and shared factors too large to factor go through
the Smith form elimination above.

Two identities relevant to the odometer algebras involve groups that are not
finitely generated and have no faithful finite presentation, so they are
recorded here rather than computed: for the torsion group of all roots of
unity whose order divides a supernatural number S, Ext^1 to the integers is
the profinite ring Z/SZ; and for the divisor group {k/l : l | S} of rationals,
Ext^1 to the integers is Z/SZ modulo its dense copy of Z.  The testable
shadows are the cyclic computations below and the homomorphism obstruction in
the K-invariant module.
"""
from __future__ import annotations

import math

from .supernatural import _Frozen, _int, factorize


class IntMatrix(_Frozen):
    """A dense integer matrix; entries is a row-major tuple of tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if _int(rows, "matrix dimensions") < 0 or _int(cols, "matrix dimensions") < 0:
            raise ValueError("matrix dimensions must be nonnegative integers")
        if not isinstance(entries, (tuple, list)) or not all(
                isinstance(r, (tuple, list)) for r in entries):
            raise ValueError("entries must be a sequence of rows")
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match the declared shape")
        for r in entries:
            for v in r:
                _int(v, "entry")
        self._init(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, tuple(rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, other.cols, tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols)) for i in range(self.rows)))

    def diagonal(self) -> list:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        if self.rows == 0:
            return 1
        got = _bareiss([list(r) for r in self.entries], 1)
        return 0 if got is None else got[0] * got[2][0][0]

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [v for r in self.entries for v in r]}

    @classmethod
    def from_json(cls, obj) -> "IntMatrix":
        if not isinstance(obj, dict) or set(obj) != {"rows", "cols", "entries"}:
            raise ValueError('matrix must be {"rows": r, "cols": c, "entries": [...]}')
        r, c = _int(obj["rows"], "matrix dimensions"), _int(obj["cols"], "matrix dimensions")
        flat = obj["entries"]
        if not isinstance(flat, list) or r * c != len(flat):
            raise ValueError("entries must be a row-major list of length rows*cols")
        return cls(r, c, [flat[i * c:(i + 1) * c] for i in range(r)])


class FGAbelianGroup(_Frozen):
    """Z^rank plus cyclic torsion Z/d_1 + ... with d_1 | d_2 | ..., d_i >= 2."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion=()):
        if _int(rank, "rank") < 0:
            raise ValueError("rank must be a nonnegative integer")
        if not isinstance(torsion, (tuple, list)):
            raise ValueError("torsion must be a list")
        torsion = tuple(torsion)
        prev = 1
        for d in torsion:
            if _int(d, "torsion coefficient") < 2 or d % prev != 0:
                raise ValueError(f"torsion coefficients must form a divisor chain, got {torsion}")
            prev = d
        self._init(rank, torsion)

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj) -> "FGAbelianGroup":
        if not isinstance(obj, dict) or set(obj) != {"rank", "torsion"}:
            raise ValueError('group must be {"rank": r, "torsion": [...]}')
        return cls(obj["rank"], obj["torsion"])

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _diagonalize(w, vt, m, n) -> list:
    """Bring the m x n matrix at the left of the row list w to Smith form and
    return its nonzero diagonal; a border after it (U) ends every row of w.

    Before pivot t, rows t.. hold columns t..n-1 of the active block and then
    the border, so a row operation carries the border along.  Once pivot t is
    final, row t is left as it is and every later row drops its leading entry,
    which is zero.  A column operation rewrites the pivot row, the only
    nonzero entry in its column, and the matching row of vt (V transposed).
    """
    diag, t = [], 0
    while t < min(m, n):
        piv = None  # (|x|, row): smallest |x|, then row, then column
        for i in range(t, m):
            v = min(filter(None, map(abs, w[i][:n - t])), default=0)
            if v and (piv is None or v < piv[0]):
                piv = (v, i)
                if v == 1:
                    break
        if piv is None:
            break
        v, i = piv
        w[t], w[i] = w[i], w[t]
        j = list(map(abs, w[t][:n - t])).index(v)
        while j is not None:  # bring column j in as column t, then clear column t and row t
            for r in w[t:]:
                r[0], r[j] = r[j], r[0]
            vt[t], vt[t + j] = vt[t + j], vt[t]
            while True:  # the smallest remainder in column t becomes the pivot
                top, p, best = w[t], w[t][0], None
                for i in range(t + 1, m):
                    if w[i][0]:
                        q = (2 * w[i][0] + p) // (2 * p)  # nearest-integer quotient
                        w[i] = r = [a - q * b for a, b in zip(w[i], top)]
                        if r[0] and (best is None or abs(r[0]) < abs(w[best][0])):
                            best = i
                if best is None:
                    break
                w[t], w[best] = w[best], w[t]
            top, p, j = w[t], w[t][0], None  # the same along row t, by columns
            for k in range(1, n - t):
                if top[k]:
                    q = (2 * top[k] + p) // (2 * p)
                    top[k] -= q * p
                    vt[t + k] = [a - q * b for a, b in zip(vt[t + k], vt[t])]
                    if top[k] and (j is None or abs(top[k]) < abs(top[j])):
                        j = k
        offender = None if abs(p) == 1 else next(
            (i for i in range(t + 1, m) if any(x % p for x in w[i][1:n - t])), None)
        if offender is not None:
            w[t] = [a + b for a, b in zip(w[t], w[offender])]  # pull it in, then re-pick
            continue
        if p < 0:
            w[t] = [-a for a in w[t]]
        diag.append(abs(p))
        for r in w[t + 1:]:
            del r[0]
        t += 1
    return diag


def smith_normal_form(a: IntMatrix):
    """Diagonalize by unimodular row and column operations.

    Returns (U, D, V) with U*A*V = D, det U = +-1, det V = +-1, and the
    diagonal of D a nonnegative divisibility chain d_1 | d_2 | ...

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))[1].diagonal()
    [2, 4]
    """
    m, n = a.rows, a.cols
    w = [list(r) + [int(i == k) for k in range(m)] for i, r in enumerate(a.entries)]
    vt = [[int(i == k) for k in range(n)] for i in range(n)]
    diag = _diagonalize(w, vt, m, n)
    d = [[x if i == j else 0 for j in range(n)]
         for i, x in enumerate(diag + [0] * (m - len(diag)))]
    return (IntMatrix(m, m, [r[-m:] for r in w]), IntMatrix(m, n, d),
            IntMatrix(n, n, list(zip(*vt))))


# The primes that most often divide the minors of a matrix.  Bareiss pivots are
# picked free of them where they can be, so that the last pivot, which every
# entry of the trailing block shares, seldom has a prime in common with them.
_SMALL_PRIMES = 2 * 3 * 5 * 7 * 11 * 13
# Factoring by trial division stays cheap below this bound.
_FACTOR_BOUND = 1 << 32


def _pivot(w, k: int):
    """(row, column) of the pivot for step k: in column-major order over the
    active block, the first nonzero entry prime to _SMALL_PRIMES, else the
    first of least gcd with it; None when the block is zero."""
    best = None
    for j in range(len(w[k])):
        for i in range(k, len(w)):
            if w[i][j]:
                g = math.gcd(w[i][j], _SMALL_PRIMES)
                if g == 1:
                    return i, j
                if best is None or g < best[0]:
                    best = (g, i, j)
    return best and best[1:]


def _bareiss(w, stop: int):
    """Fraction-free (Bareiss) elimination of the n x n row list w, in place,
    down to its trailing stop x stop block.

    Step k divides by the previous pivot and keeps only the active columns.
    By Sylvester's identity every entry of the block left after step k is the
    (k+2)-minor on rows and columns 0..k and its own row and column (after
    the swaps), and the pivot of step k is the leading (k+1)-minor.  Pivots
    avoid small primes (_pivot).  Returns (sign of the swaps, last pivot q,
    block), with q = 1 when no step is taken, or None when a whole active
    block is zero (det A = 0).
    """
    n, sign, q = len(w), 1, 1
    for k in range(n - stop):
        at = _pivot(w, k)
        if at is None:
            return None
        i, j = at
        if i != k:
            w[k], w[i] = w[i], w[k]
            sign = -sign
        if j:
            for r in w[k:]:
                r[0], r[j] = r[j], r[0]
            sign = -sign
        p, rest = w[k][0], w[k][1:]
        for i in range(k + 1, n):
            r = w[i]
            c = r[0]
            w[i] = [(p * x - c * y) // q for x, y in zip(r[1:], rest)]
        q = p
    return sign, q, w[n - stop:]


def _coprime_part(x: int, q: int) -> int:
    """The largest divisor of x that shares no prime with q."""
    c = math.gcd(x, q)
    while c > 1:
        x //= c
        c = math.gcd(x, c)
    return x


def _local_valuations(rows, p: int, e: int) -> list:
    """v_p(d_1), ..., v_p(d_{n-1}) for a square matrix with v_p(det) < e.

    Elimination over Z/p^e: while no entry of the remaining block is a unit,
    the block is divided by p.  A unit pivot is then normalized to 1 and its
    column cleared by row operations; the column operations that would clear
    its row change nothing else, so its row and column are dropped.  The
    number of divisions so far is the pivot's valuation.
    """
    pe, s, vals = p ** e, 0, []
    w = [[x % pe for x in r] for r in rows]
    for _ in range(len(w) - 1):
        while not any(x % p for r in w for x in r):
            pe //= p
            s += 1
            w = [[x // p for x in r] for r in w]
        i, j = next((i, j) for i, r in enumerate(w) for j, x in enumerate(r) if x % p)
        w[0], w[i] = w[i], w[0]
        for r in w:
            r[0], r[j] = r[j], r[0]
        inv = pow(w[0][0], -1, pe)
        top = [x * inv % pe for x in w[0][1:]]
        w = [[(x - r[0] * y) % pe for x, y in zip(r[1:], top)] for r in w[1:]]
        vals.append(s)
    return vals


def _determinant_diagonal(a: IntMatrix):
    """The Smith diagonal d_1, ..., d_n of a nonsingular square A with n >= 2,
    from its determinant and minors; None where that cannot be certified.

    A 2 x 2 matrix is bordered to diag(1, A), which has the same cokernel.
    Bareiss elimination stops at the trailing 3 x 3 block M, whose entries are
    (n-2)-minors sharing the leading minor q.  Then det A = det M / q^2, the
    2 x 2 minors of M over q are nine (n-1)-minors of A, and c, the gcd of M,
    is a multiple of d_1...d_{n-2}.  Let g = gcd(det A, the nine minors), a
    multiple of d_1...d_{n-1}.  At a prime p not dividing q, M / q is a Schur
    complement over the p-adic integers, so v_p(d_{n-2}) = v_p(c),
    v_p(d_{n-1}) = v_p(g) - v_p(c) and the d_i before are prime to p.  The
    primes of g that divide q are factored, below _FACTOR_BOUND, and each
    gets its valuations from an elimination over Z/p^e.
    """
    rows = [list(r) for r in a.entries]
    if a.rows == 2:
        rows = [[1, 0, 0], [0] + rows[0], [0] + rows[1]]
    got = _bareiss([r[:] for r in rows], 3)
    if got is None:
        return None
    sign, q, m = got
    pairs = ((1, 2), (0, 2), (0, 1))
    adj = [[m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1] for j1, j2 in pairs]
           for i1, i2 in pairs]  # adj[i][j]: the 2 x 2 minor of M without row i and column j
    det = sign * (m[0][0] * adj[0][0] - m[0][1] * adj[0][1] + m[0][2] * adj[0][2]) // (q * q)
    if det == 0:
        return None
    g = math.gcd(det, *(v // q for r in adj for v in r))
    free = _coprime_part(g, q)
    c = _coprime_part(math.gcd(*(v for r in m for v in r)), q)
    d = [1] * (len(rows) - 3) + [c, free // c]
    y = g // free
    if y >= _FACTOR_BOUND:
        return None
    for p in factorize(y):
        e = 1
        while det % p ** e == 0:
            e += 1
        for i, v in enumerate(_local_valuations(rows, p, e)):
            d[i] *= p ** v
    d.append(abs(det) // math.prod(d))
    return d[len(rows) - a.rows:]


def ext1_hom(a: IntMatrix):
    """Hom(G, Z) and Ext^1(G, Z) for G presented as the cokernel of A.

    With D the Smith form, Hom is free of rank (rows - rank D) and Ext^1 is the
    direct sum of Z/d over the elementary divisors d >= 2; higher Ext vanishes
    over the integers.  The diagonal is computed without U and V: for a
    nonsingular square matrix with n >= 2 from the determinant and the gcd of
    some of its (n-1)- and (n-2)-minors (_determinant_diagonal); where those
    do not settle it, and for every other shape, by the elimination that
    smith_normal_form uses.

    >>> ext1_hom(IntMatrix.from_rows([[2, 0], [0, 3]]))[1].torsion
    (6,)
    """
    diag = None
    if a.rows == a.cols >= 2:
        diag = _determinant_diagonal(a)
    if diag is None:
        diag = _diagonalize([list(r) for r in a.entries], [[] for _ in range(a.cols)],
                            a.rows, a.cols)
    hom = FGAbelianGroup(a.rows - len(diag))
    ext = FGAbelianGroup(0, tuple(x for x in diag if x >= 2))
    return hom, ext
