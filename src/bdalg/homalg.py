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

from dataclasses import dataclass

from .supernatural import _is_int


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix."""

    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples

    def __post_init__(self):
        if not all(_is_int(d) and d >= 0 for d in (self.rows, self.cols)):
            raise ValueError("matrix dimensions must be nonnegative integers")
        if not isinstance(self.entries, (tuple, list)) or not all(
                isinstance(r, (tuple, list)) for r in self.entries):
            raise ValueError("entries must be a sequence of rows")
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        for r in self.entries:
            for v in r:
                if not _is_int(v):
                    raise ValueError(f"non-integer entry {v!r}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [v for r in self.entries for v in r]}

    @classmethod
    def from_json(cls, obj) -> "IntMatrix":
        if not isinstance(obj, dict) or set(obj) != {"rows", "cols", "entries"}:
            raise ValueError('matrix must be {"rows": r, "cols": c, "entries": [...]}')
        r, c, flat = obj["rows"], obj["cols"], obj["entries"]
        if not _is_int(r) or not _is_int(c):
            raise ValueError("rows and cols must be integers")
        if not isinstance(flat, list) or len(flat) != r * c:
            raise ValueError("entries must be a row-major list of length rows*cols")
        return cls(r, c, tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r)))


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^rank plus cyclic torsion Z/d_1 + ... with d_1 | d_2 | ..., d_i >= 2."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if not _is_int(self.rank) or self.rank < 0:
            raise ValueError("rank must be a nonnegative integer")
        if not isinstance(self.torsion, (tuple, list)):
            raise ValueError("torsion must be a list")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = 1
        for d in self.torsion:
            if not _is_int(d) or d < 2 or d % prev != 0:
                raise ValueError(f"torsion coefficients must form a divisor chain, got {self.torsion}")
            prev = d

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


def ext1_hom(a: IntMatrix):
    """Hom(G, Z) and Ext^1(G, Z) for G presented as the cokernel of A.

    With D the Smith form, Hom is free of rank (rows - rank D) and Ext^1 is the
    direct sum of Z/d over the elementary divisors d >= 2; higher Ext vanishes
    over the integers.  The diagonal is computed without U and V.

    >>> ext1_hom(IntMatrix.from_rows([[2, 0], [0, 3]]))[1].torsion
    (6,)
    """
    diag = _diagonalize([list(r) for r in a.entries], [[] for _ in range(a.cols)],
                        a.rows, a.cols)
    hom = FGAbelianGroup(a.rows - len(diag))
    ext = FGAbelianGroup(0, tuple(x for x in diag if x >= 2))
    return hom, ext
