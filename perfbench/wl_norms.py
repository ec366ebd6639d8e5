"""norms: operator_norm at m = 0..6 with both methods, and spectrum_sample.

Elements live over S = 2^inf 3^inf with period l in {6, 12, 24, 48}, 1-3
terms with |n| <= 3 and root-of-unity values of order <= 12; two norm tasks per
period use a diagonal element (the exact short-circuit).  Checks compare every
value with a dense numpy symbol assembled straight from the coefficients.
"""
from __future__ import annotations

import math

import numpy as np

from bdalg import bd_algebra as B

import refalg as R

GRID = 256


def prepare(task):
    return B.BDElement.from_json(task["args"]["a"])


def run(task, a, timed):
    args = task["args"]
    if task["kind"] == "norm":
        return timed(B.operator_norm, a, args["m"], grid=GRID, method=args["method"])
    return timed(B.spectrum_sample, a, grid=GRID)


def warm_tasks(warm_round: list) -> list:
    """One call of each kind at l <= 12 and m <= 1, diagonal and not."""
    seen, out = set(), []
    for t in warm_round:
        key = (t["kind"], t["size"], t["eid"].endswith(":diag"))
        if key not in seen and t["size"] <= 12 and t["args"].get("m", 1) <= 1:
            seen.add(key)
            out.append(t)
    return out


class _Reference:
    """Dense symbol data for one element: base norms s_j of delta^j(a)."""

    def __init__(self, doc: dict):
        l = doc["period"]
        self.coeffs = R.element_coeffs(doc)
        self.sup = {n: max(abs(R.to_complex(v)) for v in f) for n, f in self.coeffs.items()}
        self.diagonal = set(self.coeffs) == {0}
        eff = max(GRID, 2 * R.max_power(self.coeffs, l) + 1)
        blocks = R.symbol_blocks(self.coeffs, l, eff)
        self.base = []
        for j in range(7):
            sym = sum(float(n) ** j * b for n, b in blocks.items())
            self.base.append(float(np.linalg.svd(sym, compute_uv=False).max()))
        self.period = l

    def spectrum_symbol(self):
        return sum(R.symbol_blocks(self.coeffs, self.period, GRID).values())

    def norm(self, m: int) -> float:
        return sum(math.comb(m, j) * self.base[j] for j in range(m + 1))

    def window(self, m: int):
        w = [(1 + abs(n)) ** m * s for n, s in self.sup.items()]
        return max(w), sum(w)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_norm(ref: _Reference, m: int, rep) -> bool:
    lo, hi = ref.window(m)
    return (_close(rep.value, ref.norm(m))
            and rep.kind == ("exact" if ref.diagonal else "grid-estimate")
            and _close(rep.window[0], lo) and _close(rep.window[1], hi)
            and lo * (1 - 1e-9) - 1e-12 <= rep.value <= hi * (1 + 1e-9) + 1e-12)


def _check_spectrum(ref: _Reference, points) -> bool:
    sym = ref.spectrum_symbol()
    grid, l, _ = sym.shape
    if len(points) != grid * l:
        return False
    ev = np.array(points, dtype=complex).reshape(grid, l)
    scale = l * max(1.0, sum(ref.sup.values()))
    power = np.broadcast_to(np.eye(l, dtype=complex), sym.shape)
    for p in (1, 2, 3):
        power = power @ sym
        tr = np.trace(power, axis1=1, axis2=2)
        if np.max(np.abs((ev ** p).sum(axis=1) - tr)) > 1e-8 * scale ** p:
            return False
    return True


def check(records: list) -> list:
    refs: dict = {}
    pairs: dict = {}
    verdicts = []
    for i, (k, task, out, nops) in enumerate(records):
        eid = task["eid"]
        ref = refs.get(eid) or refs.setdefault(eid, _Reference(task["args"]["a"]))
        if task["kind"] == "norm":
            m = task["args"]["m"]
            verdicts.append(_check_norm(ref, m, out))
            pairs.setdefault((eid, m), []).append(i)
        else:
            verdicts.append(_check_spectrum(ref, out))
    for idx in pairs.values():
        if len({records[i][2].value for i in idx}) > 1:
            for i in idx:
                verdicts[i] = False
    return verdicts
