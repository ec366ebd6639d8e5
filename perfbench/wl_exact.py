"""exact: character transforms, the cocycle solver, products, derivations.

No floats and no numpy in the ops.  Checks recompute each identity in the
benchmark's own exact arithmetic (refalg): synthesis of the returned character
coefficients, G o beta - G = ft with mean zero, products against composition
on basis vectors, adjoints against matrix coefficients, recovered = F, and
the 3/2 gap of every picked character.
"""
from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

from bdalg import bd_algebra as B
from bdalg import cyclotomic as C
from bdalg import derivations as D
from bdalg import odometer_fn as O
from bdalg import supernatural as SN

import refalg as R
from gen import S23, smallest_of_each_kind


def _fn(doc):
    return O.LocConstFn.from_json(doc)


def prepare(task):
    a, kind = task["args"], task["kind"]
    if kind in ("charco", "decompose"):
        return _fn(a["f"])
    if kind == "synth":
        return {int(k): C.Cyclo.from_json(c) for k, c in a["coeffs"].items()}
    if kind == "cocycle":
        return _fn(a["ft"])
    if kind == "bdmul":
        return B.BDElement.from_json(a["a"]), B.BDElement.from_json(a["b"])
    if kind == "adjoint":
        return B.BDElement.from_json(a["a"])
    if kind == "covariance":
        return SN.SupernaturalNumber.from_json(S23), _fn(a["f"])
    if kind == "derivation":
        data = D.DerivationData(C.Cyclo.zero(), O.LocConstFn.zero(), {a["n"]: _fn(a["F"])})
        return SN.SupernaturalNumber.from_json(a["S"]), data
    if kind == "pickchar":
        return SN.SupernaturalNumber.from_json(a["S"])
    raise ValueError(kind)


def _covariance(S, f):
    mf = B.BDElement.mult_op(S, f)
    u = B.BDElement.shift(S)
    return mf * u == u * B.BDElement.mult_op(S, f.pullback(1))


def run(task, obj, timed):
    a, kind = task["args"], task["kind"]
    if kind == "charco":
        return timed(obj.char_coefficients)
    if kind == "synth":
        return timed(O.synthesize, obj, a["l"])
    if kind == "cocycle":
        return timed(D.solve_cocycle, obj)
    if kind == "decompose":
        return timed(D.decompose_invariant, obj)
    if kind == "bdmul":
        return timed(operator.mul, *obj)
    if kind == "adjoint":
        return timed(obj.adjoint)
    if kind == "covariance":
        return timed(_covariance, *obj)
    if kind == "derivation":
        S, data = obj
        n = a["n"]
        pick = timed(D.pick_character, n, S)
        chi = B.BDElement.mult_op(S, O.character(pick.l, pick.j))
        delta = timed(data.apply, chi)
        return pick, timed(D.recover_covariant, n, pick.l, pick.j, delta)
    if kind == "pickchar":
        return timed(D.pick_character, a["n"], obj)
    raise ValueError(kind)


warm_tasks = smallest_of_each_kind


# ---------------------------------------------------------------------------
# checks

def _gap_ok(pick, n: int, S_doc) -> bool:
    l, j, bound = pick
    gap = abs(1 - cmath.exp(2j * math.pi * j * n / l))
    return (R.sn_divides(l, R.sn(S_doc)) and 0 <= j < l
            and gap >= 1.5 - 1e-12 and 1.5 <= bound <= gap + 1e-12)


def _coboundary_ok(g: list, ft: list) -> bool:
    """g o beta - g == ft at every residue, and g has mean zero."""
    n = math.lcm(len(g), len(ft))
    return (all(R.equal(R.add(g[(k + 1) % len(g)], R.neg(g[k % len(g)])), ft[k % len(ft)])
                for k in range(n))
            and R.is_zero(R.add(*g)))


def _vec(k: int) -> dict:
    return {k: R.rational(1)}


def _check(task, out) -> bool:
    a, kind = task["args"], task["kind"]
    if kind == "charco":
        coeffs = {k: R.value(c.to_json()) for k, c in out.items()}
        return R.fn_equal(R.synthesize(coeffs, len(a["f"]["values"])), R.fn_values(a["f"]))
    if kind == "synth":
        coeffs = {int(k): R.value(c) for k, c in a["coeffs"].items()}
        return R.fn_equal(R.fn_values(out.to_json()), R.synthesize(coeffs, a["l"]))
    if kind == "cocycle":
        return _coboundary_ok(R.fn_values(out.to_json()), R.fn_values(a["ft"]))
    if kind == "decompose":
        c, g = out
        f = R.fn_values(a["f"])
        mean = R.mul(R.add(*f), R.rational(Fraction(1, len(f))))
        return (R.equal(R.value(c.to_json()), mean)
                and _coboundary_ok(R.fn_values(g.to_json()),
                                   [R.add(v, R.neg(mean)) for v in f]))
    if kind == "bdmul":
        prod = R.element_coeffs(out.to_json())
        fa, fb = R.element_coeffs(a["a"]), R.element_coeffs(a["b"])
        return all(R.vec_equal(R.act(prod, _vec(k)), R.act(fa, R.act(fb, _vec(k))))
                   for k in range(a["a"]["period"]))
    if kind == "adjoint":
        adj = R.element_coeffs(out.to_json())
        fa = R.element_coeffs(a["a"])
        for j in range(a["a"]["period"]):
            # <a e_k, e_j> = f_{j-k}(k), so a* e_j = sum_n conj(f_n(j-n)) e_{j-n}
            want = {j - n: R.conj(f[(j - n) % len(f)]) for n, f in fa.items()}
            if not R.vec_equal(R.act(adj, _vec(j)), want):
                return False
        return True
    if kind == "covariance":
        return out is True
    if kind == "derivation":
        pick, recovered = out
        return (_gap_ok(pick, a["n"], a["S"])
                and R.fn_equal(R.fn_values(recovered.to_json()), R.fn_values(a["F"])))
    if kind == "pickchar":
        return _gap_ok(out, a["n"], a["S"])
    raise ValueError(kind)


def check(records: list) -> list:
    return [_check(task, out) for _, task, out, _ in records]
