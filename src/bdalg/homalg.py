"""Integer Smith normal form and Hom/Ext-to-Z of finitely generated Abelian
groups given by presentation matrices.

The normal form is computed with explicit unimodular transformations and a
fixed pivoting rule (smallest absolute value, then smallest row, then smallest
column), so the output is deterministic.  Everything is exact integer
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

from .cyclotomic import _is_int


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix."""

    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        for r in self.entries:
            for v in r:
                if not _is_int(v):
                    raise ValueError(f"non-integer entry {v!r}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(int(v) for v in r) for r in rows]
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
        return IntMatrix.from_rows(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
              for j in range(other.cols)] for i in range(self.rows)])

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
        if not isinstance(obj["torsion"], list):
            raise ValueError("torsion must be a list")
        return cls(obj["rank"], tuple(obj["torsion"]))

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(a: IntMatrix):
    """Diagonalize by unimodular row and column operations.

    Returns (U, D, V) with U*A*V = D, det U = +-1, det V = +-1, and the
    diagonal of D a nonnegative divisibility chain d_1 | d_2 | ...
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # row_i -= q * row_k
        for j in range(n):
            d[i][j] -= q * d[k][j]
        for j in range(m):
            u[i][j] -= q * u[k][j]

    def col_op(j, k, q):  # col_j -= q * col_k
        for i in range(m):
            d[i][j] -= q * d[i][k]
        for i in range(n):
            v[i][j] -= q * v[i][k]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for i in range(m):
            d[i][j], d[i][k] = d[i][k], d[i][j]
        for i in range(n):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    t = 0
    while t < min(m, n):
        pivot = min(
            ((abs(d[i][j]), i, j)
             for i in range(t, m) for j in range(t, n) if d[i][j] != 0),
            default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                row_op(i, t, d[i][t] // d[t][t])
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, n):
            if d[t][j] != 0:
                col_op(j, t, d[t][j] // d[t][t])
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot

        offender = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
             if d[i][j] % d[t][t] != 0), None)
        if offender is not None:
            row_op(t, offender[0], -1)  # pull the offending row in, then redo
            continue

        if d[t][t] < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    return (IntMatrix.from_rows(u) if m else IntMatrix(0, 0, ()),
            IntMatrix.from_rows(d) if m else IntMatrix(0, n, ()),
            IntMatrix.from_rows(v) if n else IntMatrix(n, n, ()))


def ext1_hom(a: IntMatrix):
    """Hom(G, Z) and Ext^1(G, Z) for G presented as the cokernel of A.

    With D the Smith form, Hom is free of rank (rows - rank D) and Ext^1 is the
    direct sum of Z/d over the elementary divisors d >= 2; higher Ext vanishes
    over the integers.
    """
    _, d, _ = smith_normal_form(a)
    diag = [x for x in d.diagonal() if x != 0]
    hom = FGAbelianGroup(a.rows - len(diag))
    ext = FGAbelianGroup(0, tuple(x for x in diag if x >= 2))
    return hom, ext
