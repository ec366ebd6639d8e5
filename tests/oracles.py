"""Independent oracles used to pin expected values.

The crossed-product elements act on the standard basis (E_k) by

    U^n M_f E_k = f(k) E_{k+n},

so products and adjoints can be checked entry by entry against operator
composition on a window of basis vectors, without going through the algebra's
own multiplication.  The matrix symbol of period l is read off the same action:
a E_c, c < l, written as sum_i v_i E_i, has v_i z^(i // l) at row i % l, column
c.  Symbols are l rows of l dicts {power: Cyclo} holding no zero value, and
their sum, product and adjoint are computed here over that plain form.

Cyclotomic values are compared by reducing their difference modulo the
cyclotomic polynomial Phi_N, N the lcm of the orders, independently of the
canonical form that Cyclo itself uses.

The Smith form's diagonal is pinned by the determinantal divisors: d_k is
Delta_k / Delta_{k-1}, where Delta_k is the gcd of all k x k minors.

The running sums R(l, l') of a phi function are pinned by their defining
double sums over the values phi(l', j).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from bdalg import BDElement, Cyclo, cyclotomic_polynomial


def cyclo_equal(x: Cyclo, y: Cyclo) -> bool:
    """x == y, decided by reducing x - y modulo Phi_N in Q[X]."""
    n = math.lcm(x.order, y.order)
    poly = [Fraction(0)] * n
    for v, sign in ((x, 1), (y, -1)):
        for e, c in v.terms.items():
            poly[e * (n // v.order)] += sign * c
    mod = cyclotomic_polynomial(n)
    deg = len(mod) - 1
    for i in range(n - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j, m in enumerate(mod):
                poly[i - deg + j] -= c * m
    return not any(poly)


def apply_to_basis(a: BDElement, k: int) -> dict:
    """The column of matrix entries of a at basis vector E_k: {row: value}."""
    out: dict = {}
    for n, f in a.coeffs.items():
        v = f.at(k)
        if not v.is_zero():
            i = k + n
            out[i] = out[i] + v if i in out else v
    return {i: v for i, v in out.items() if not v.is_zero()}


def compose_on_basis(a: BDElement, b: BDElement, k: int) -> dict:
    """The column of a(b(E_k)) computed by operator composition."""
    out: dict = {}
    for j, c in apply_to_basis(b, k).items():
        for i, d in apply_to_basis(a, j).items():
            t = d * c
            out[i] = out[i] + t if i in out else t
    return {i: v for i, v in out.items() if not v.is_zero()}


def columns_equal(col1: dict, col2: dict) -> bool:
    keys = set(col1) | set(col2)
    zero = Cyclo.zero()
    return all(col1.get(i, zero) == col2.get(i, zero) for i in keys)


def symbol(a: BDElement) -> list:
    """The symbol of a at its period l, from the action on E_0, ..., E_(l-1)."""
    l = a.period
    rows = [[{} for _ in range(l)] for _ in range(l)]
    for c in range(l):
        for i, v in apply_to_basis(a, c).items():
            rows[i % l][c][i // l] = v
    return rows


def _laurent(terms) -> dict:
    """{power: value} from (power, value) pairs, like powers summed, zeros dropped."""
    out: dict = {}
    for p, c in terms:
        out[p] = out[p] + c if p in out else c
    return {p: c for p, c in out.items() if not c.is_zero()}


def symbol_sum(x: list, y: list) -> list:
    return [[_laurent([*e.items(), *f.items()]) for e, f in zip(r, s)] for r, s in zip(x, y)]


def symbol_product(x: list, y: list) -> list:
    n = len(x)
    return [[_laurent((p + q, c * d) for k in range(n) for p, c in x[i][k].items()
                      for q, d in y[k][j].items()) for j in range(n)] for i in range(n)]


def symbol_star(x: list) -> list:
    """The conjugate transpose with z inverted."""
    n = len(x)
    return [[{-p: c.conj() for p, c in x[j][i].items()} for j in range(n)] for i in range(n)]


def entry(a: BDElement, i: int, j: int) -> Cyclo:
    """The matrix entry <E_i, a E_j>."""
    return apply_to_basis(a, j).get(i, Cyclo.zero())


def _det(rows: list) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def determinantal_divisors(rows: list) -> list:
    """[Delta_0, ..., Delta_min(m, n)] for an m x n list of integer rows."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = math.gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


def r_sum(phi, l: int, lp: int, mode: str = "def") -> int:
    """R(l, l') from its definition: sum_{a=1}^{l'/l-1} sum_{j<al} phi(l', j)
    for mode "def", sum_{j<l'-1} (j+1) phi(l', j) for mode "lin" (l = 1)."""
    if mode == "def":
        return sum(phi.value(lp, j) for a in range(1, lp // l) for j in range(a * l))
    return sum((j + 1) * phi.value(lp, j) for j in range(lp - 1))
