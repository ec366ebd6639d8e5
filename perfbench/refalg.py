"""Independent reference arithmetic for the correctness checks.

Nothing here calls bdalg: exact cyclotomic values are reduced with a
cyclotomic polynomial built from the Moebius product formula (the program
divides out proper divisors instead), operators act on basis vectors of
l^2(Z), matrix symbols are assembled densely in numpy straight from the
coefficients, and integer matrices are multiplied and eliminated directly.
Values cross in as the program's JSON documents.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# exact cyclotomic values: (order, {exponent: Fraction})


def moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


_PHI: dict = {}


def _pmul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pdiv_exact(a: list, b: list) -> list:
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] // b[-1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_poly(n: int) -> list:
    """Phi_n = prod_{d | n} (x^(n/d) - 1)^mu(d), constant term first."""
    if n not in _PHI:
        num, den = [1], [1]
        for d in range(1, n + 1):
            if n % d == 0 and moebius(d):
                f = [-1] + [0] * (n // d - 1) + [1]
                if moebius(d) > 0:
                    num = _pmul(num, f)
                else:
                    den = _pmul(den, f)
        _PHI[n] = _pdiv_exact(num, den)
    return _PHI[n]


def value(doc: dict):
    """A cyclotomic JSON document as (order, {exponent: Fraction})."""
    n = doc["order"]
    terms: dict = {}
    for e, c in doc["terms"]:
        e %= n
        terms[e] = terms.get(e, 0) + Fraction(c)
    return n, terms


def rational(q) -> tuple:
    return 1, {0: Fraction(q)}


def lift(v, n: int) -> dict:
    o, t = v
    k = n // o
    return {e * k: c for e, c in t.items()}


def add(*vs):
    n = math.lcm(*(v[0] for v in vs))
    out: dict = {}
    for v in vs:
        for e, c in lift(v, n).items():
            out[e] = out.get(e, 0) + c
    return n, out


def neg(v):
    return v[0], {e: -c for e, c in v[1].items()}


def mul(a, b):
    n = math.lcm(a[0], b[0])
    out: dict = {}
    for e1, c1 in lift(a, n).items():
        for e2, c2 in lift(b, n).items():
            e = (e1 + e2) % n
            out[e] = out.get(e, 0) + c1 * c2
    return n, out


def conj(v):
    n = v[0]
    return n, {(-e) % n: c for e, c in v[1].items()}


def root(k: int, n: int):
    return n, {k % n: Fraction(1)}


def canon(v, n: int) -> tuple:
    """Coefficients of v in Q(zeta_n) reduced modulo Phi_n (n a multiple of v's order)."""
    poly = [Fraction(0)] * n
    for e, c in lift(v, n).items():
        poly[e] += c
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1
    for i in range(n - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j in range(deg + 1):
                poly[i - deg + j] -= c * mod[j]
    rem = poly[:deg]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem)


def equal(a, b) -> bool:
    n = math.lcm(a[0], b[0])
    return canon(a, n) == canon(b, n)


def is_zero(v) -> bool:
    return not canon(v, v[0])


def to_complex(v) -> complex:
    n, t = v
    return sum((float(c) * cmath.exp(2j * math.pi * e / n) for e, c in t.items()),
               0j)


# periodic functions: a list of values, indexed mod its length

def fn_values(doc: dict) -> list:
    return [value(v) for v in doc["values"]]


def fn_equal(f: list, g: list) -> bool:
    n = math.lcm(len(f), len(g))
    return all(equal(f[k % len(f)], g[k % len(g)]) for k in range(n))


def synthesize(coeffs: dict, l: int) -> list:
    """sum_k c_k * zeta_l^(jk) at every residue j, coefficients as values."""
    return [add(*[mul(c, root(j * k, l)) for k, c in coeffs.items()] or [rational(0)])
            for j in range(l)]


def element_coeffs(doc: dict) -> dict:
    """A crossed-product element document as {n: values}."""
    return {int(n): fn_values(f) for n, f in doc["coeffs"].items()}


def act(coeffs: dict, vec: dict) -> dict:
    """(sum_n U^n M_{f_n}) applied to sum_k v_k e_k, with U e_k = e_{k+1}."""
    out: dict = {}
    for k, v in vec.items():
        for n, f in coeffs.items():
            t = mul(f[k % len(f)], v)
            out[k + n] = add(out[k + n], t) if k + n in out else t
    return out


def vec_equal(a: dict, b: dict) -> bool:
    zero = rational(0)
    return all(equal(a.get(k, zero), b.get(k, zero)) for k in set(a) | set(b))


# ---------------------------------------------------------------------------
# supernatural numbers as {prime: exponent or inf}

def factorize(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sn(doc: list) -> dict:
    return {p: math.inf if e == "inf" else e for p, e in doc}


def sn_divides(l: int, S: dict) -> bool:
    return all(e <= S.get(p, 0) for p, e in factorize(l).items())


def sn_gcd(n: int, S: dict) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= p ** min(e, S.get(p, 0))
    return out


# ---------------------------------------------------------------------------
# numeric symbols

def symbol_blocks(coeffs: dict, l: int, grid: int):
    """{n: (grid, l, l) array} with (J^n)[(i+n) mod l, i] = z^floor((i+n)/l)
    times f_n(i), on the grid points z_k = exp(2 pi i k / grid)."""
    import numpy as np
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    out = {}
    for n, f in coeffs.items():
        block = np.zeros((grid, l, l), dtype=complex)
        for i in range(l):
            block[:, (i + n) % l, i] = to_complex(f[i % len(f)]) * z ** ((i + n) // l)
        out[n] = block
    return out


def max_power(coeffs: dict, l: int) -> int:
    return max((abs((i + n) // l) for n in coeffs for i in range(l)), default=0)


# ---------------------------------------------------------------------------
# integer matrices

def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def rows_of(doc: dict) -> list:
    r, c, flat = doc["rows"], doc["cols"], doc["entries"]
    return [flat[i * c:(i + 1) * c] for i in range(r)]


def det_rank(a: list):
    """(determinant if square else None, rank) by exact Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    det, rank = Fraction(1), 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, rows):
            if m[r][c]:
                q = m[r][c] / m[rank][c]
                for k in range(c, cols):
                    m[r][k] -= q * m[rank][k]
        rank += 1
    return (det if rows == cols else None), rank


def divisor_chain_ok(ds: list) -> bool:
    """Nonnegative, zeros last, each nonzero entry divides the next."""
    nz = [d for d in ds if d]
    return (all(d >= 0 for d in ds) and ds[:len(nz)] == nz
            and all(b % a == 0 for a, b in zip(nz, nz[1:])))
