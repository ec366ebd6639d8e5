"""integer: K-homology functions, K0 classes, Smith normal form, supernaturals.

Checks: U A V = D with U and V unimodular and D a divisibility chain whose
product is |det A| (determinants by the benchmark's own elimination),
coboundary(preimage) = phi, rho residues against the digits, R sums from the
definition, and gcd / divisibility / divisor chains from a fresh factorization.
"""
from __future__ import annotations

import math

from bdalg import homalg as H
from bdalg import k_invariants as K
from bdalg import profinite as P
from bdalg import supernatural as SN

import refalg as R
from gen import smallest_of_each_kind


def prepare(task):
    a, kind = task["args"], task["kind"]
    if kind in ("rsum", "psi"):
        return K.PhiFn.from_json(a["phi"])
    if kind == "rho":
        return P.ProfiniteInt.from_json(a["x"])
    if kind == "k0":
        return SN.SupernaturalNumber.from_json(a["S"])
    if kind == "homobs":
        return P.DivisorChain.from_json(a["chain"])
    if kind in ("snf", "ext"):
        return H.IntMatrix.from_json(a["matrix"])
    if kind == "sn":
        return SN.SupernaturalNumber.from_json(a["S"])
    raise ValueError(kind)


def run(task, obj, timed):
    a, kind = task["args"], task["kind"]
    if kind == "rsum":
        return [timed(obj.r_sum, l, lp) for l, lp in a["pairs"]]
    if kind == "psi":
        return timed(obj.coboundary_preimage)
    if kind == "rho":
        phi = timed(K.PhiFn.from_profinite, obj)
        return timed(phi.rho)
    if kind == "k0":
        p = timed(K.residue_projection, a["l"], a["j"], obj)
        return p, timed(K.k0_class, p)
    if kind == "homobs":
        return timed(K.hom_obstruction, a["l"], a["a"], obj)
    if kind == "snf":
        return timed(H.smith_normal_form, obj)
    if kind == "ext":
        return timed(H.ext1_hom, obj)
    if kind == "sn":
        return (timed(obj.divisor_chain, a["depth"]), timed(obj.gcd, a["n"]),
                timed(obj.divisible_by, a["d"]))
    raise ValueError(kind)


warm_tasks = smallest_of_each_kind


# ---------------------------------------------------------------------------
# checks

def _phi_value(top: list, l: int, k: int) -> int:
    return sum(top[(k + j * l) % len(top)] for j in range(len(top) // l))


def _r_sum(top: list, l: int, lp: int) -> int:
    vals = [_phi_value(top, lp, j) for j in range(lp)]
    return sum(sum(vals[:a * l]) for a in range(1, lp // l))


def _snf_ok(a_doc: dict, u, d, v) -> bool:
    a = R.rows_of(a_doc)
    U, Dm, V = (R.rows_of(m.to_json()) for m in (u, d, v))
    if R.matmul(R.matmul(U, a), V) != Dm:
        return False
    if abs(R.det_rank(U)[0]) != 1 or abs(R.det_rank(V)[0]) != 1:
        return False
    n = len(Dm)
    if any(Dm[i][j] for i in range(n) for j in range(len(Dm[0])) if i != j):
        return False
    diag = [Dm[i][i] for i in range(min(n, len(Dm[0])))]
    det_a, _ = R.det_rank(a)
    g = math.gcd(*a_doc["entries"])
    return (R.divisor_chain_ok(diag) and (not det_a or math.prod(diag) == abs(det_a))
            and (not g or diag[0] == g))


def _ext_ok(a_doc: dict, hom, ext) -> bool:
    a = R.rows_of(a_doc)
    det_a, rank = R.det_rank(a)
    tors = list(ext.torsion)
    return (hom.rank == a_doc["rows"] - rank and ext.rank == 0
            and R.divisor_chain_ok(tors) and all(t >= 2 for t in tors)
            and (not det_a or math.prod(tors) == abs(det_a)))


def _check(task, out) -> bool:
    a, kind = task["args"], task["kind"]
    if kind == "rsum":
        top = a["phi"]["top"]
        return out == [_r_sum(top, l, lp) for l, lp in a["pairs"]]
    if kind == "psi":
        psi = out.top
        n = len(psi)
        return [psi[k] - psi[(k + 1) % n] for k in range(n)] == a["phi"]["top"]
    if kind == "rho":
        levels, digits = a["x"]["chain"], a["x"]["digits"]
        place = [1] + levels[:-1]
        x = sum(d * p for d, p in zip(digits, place))
        rho = out.to_json()
        r = sum(d * p for d, p in zip(rho["digits"], place))
        # rho uses the defining R form, which is minus the linear form mod l
        return rho["chain"] == levels and all(r % l == (-x) % l for l in levels)
    if kind == "k0":
        p, cls = out
        l, j = a["l"], a["j"]
        coeffs = p.to_json()["coeffs"]
        want = [str(1 if r == j % l else 0) for r in range(l)]
        got = [t["terms"][0][1] if t["terms"] else "0"
               for t in coeffs.get("0", {"values": []})["values"]]
        return got == want and (cls.num, cls.den) == (1, l)
    if kind == "homobs":
        for level in a["chain"]:
            if level % a["l"] == 0 and a["a"] % (level // a["l"]) != 0:
                return out == level
        return False
    if kind == "snf":
        return _snf_ok(a["matrix"], *out)
    if kind == "ext":
        return _ext_ok(a["matrix"], *out)
    if kind == "sn":
        chain, g, div = out
        S = R.sn(a["S"])
        return (len(chain) == a["depth"] and all(R.sn_divides(c, S) for c in chain)
                and all(y % x == 0 and y > x for x, y in zip([1] + chain, chain))
                and g == R.sn_gcd(a["n"], S) and div == R.sn_divides(a["d"], S))
    raise ValueError(kind)


def check(records: list) -> list:
    return [_check(task, out) for _, task, out, _ in records]
