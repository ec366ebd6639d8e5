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
canonical form that Cyclo itself uses; functions and elements are compared
through those values at the lcm of their periods, label by label.

The Smith form's diagonal is pinned by the determinantal divisors: d_k is
Delta_k / Delta_{k-1}, where Delta_k is the gcd of all k x k minors.

The values phi(l, j) of a phi function are read from its top vector by their
definition, sum_i top[(j + i l) mod l_N], never through PhiFn.value; the
running sums R(l, l') are pinned by their defining double sums over those
values, the coboundary preimage by the running negated sum it replaced, and the
digit construction by the loop that places each digit.

The cocycle solver is pinned by the chain of Cyclo sums it replaced: G(0) and
each step G(j+1) = G(j) + f(j) - c as one _sum of Fraction coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from bdalg import BDElement, Cyclo, LocConstFn, cyclotomic_polynomial
from bdalg.cyclotomic import _sum


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


def fn_equal(f: LocConstFn, g: LocConstFn) -> bool:
    """f == g, decided value by value at the lcm of the periods with cyclo_equal."""
    l = math.lcm(f.period, g.period)
    return all(cyclo_equal(f.values[i % f.period], g.values[i % g.period]) for i in range(l))


def bd_equal(a: BDElement, b: BDElement) -> bool:
    """a == b, decided label by label with fn_equal; a missing label reads as the
    zero function."""
    zero = LocConstFn.zero()
    return a.S == b.S and all(fn_equal(a.coeffs.get(n, zero), b.coeffs.get(n, zero))
                              for n in set(a.coeffs) | set(b.coeffs))


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


def sup_norm(f) -> float:
    """max |f| over one period of a LocConstFn, which is its sup over the
    whole odometer."""
    return max(abs(v) for v in f.values)


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


def phi_value(phi, l: int, j: int) -> int:
    """phi(l, j) from its definition: sum_i top[(j + i l) mod l_N], i < l_N / l."""
    n = len(phi.top)
    return sum(phi.top[(j + i * l) % n] for i in range(n // l))


def r_sum(phi, l: int, lp: int, mode: str = "def") -> int:
    """R(l, l') from its definition: sum_{a=1}^{l'/l-1} sum_{j<al} phi(l', j)
    for mode "def", sum_{j<l'-1} (j+1) phi(l', j) for mode "lin" (l = 1)."""
    vals = [phi_value(phi, lp, j) for j in range(lp)]
    if mode == "def":
        return sum(sum(vals[:a * l]) for a in range(1, lp // l))
    return sum((j + 1) * vals[j] for j in range(lp - 1))


def coboundary_preimage(phi) -> list:
    """The top of psi with (1 - shift*) psi = phi and psi top[0] = 0, for
    tau(phi) = 0: psi[k] = psi[k-1] - phi[k-1]."""
    psi = [0] * len(phi.top)
    for k in range(1, len(psi)):
        psi[k] = psi[k - 1] - phi.top[k - 1]
    return psi


def digit_phi(x) -> list:
    """The top of the digit construction of x: a_1 - ... - a_n at 0 and
    a_{k+1} added at l_k for k < n."""
    levels, digits = x.chain.levels, x.digits
    top = [0] * levels[-1]
    top[0] = digits[0] - sum(digits[1:])
    for k in range(1, len(levels)):
        top[levels[k - 1]] += digits[k]
    return top


def cocycle_reference(f: LocConstFn, c: Cyclo) -> LocConstFn:
    """G mean zero with G o beta - G = f - c, c the mean of f: G(0) = (sum_{i<l-1}
    (i+1-l) f(i) + c l(l-1)/2) / l and G(j+1) = G(j) + f(j) - c, each one _sum."""
    l, vals = f.period, f.values[:-1]
    g = [_sum([(i + 1 - l, 0, v) for i, v in enumerate(vals)] + [(l * (l - 1) // 2, 0, c)])
         * Fraction(1, l)]
    for v in vals:
        g.append(_sum(((1, 0, g[-1]), (1, 0, v), (-1, 0, c))))
    return LocConstFn(g)
