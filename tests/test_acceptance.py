"""Acceptance criteria, one test per criterion, each printing a pass line.

The identities here are mathematical, so the checks are exact wherever the
arithmetic is exact; tolerances appear only where floating point sampling is
part of the contract.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines.
"""
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bdalg import (BDElement, DivisorChain, GSRational, INF, LocConstFn,
                   SupernaturalNumber, hom_obstruction, k0_class,
                   operator_norm, residue_projection)
from bdalg.verify import SUITES, rand_bd

from oracles import sup_norm

S23 = SupernaturalNumber.of({2: INF, 3: INF})
SEED = 20260809


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _run_suite(name, **kw):
    return SUITES[name](kw.pop("seed", SEED), kw.pop("scale", "full"))


def test_c01_covariance_relation():
    rep = _run_suite("covariance")
    _report(1, "covariance M_f U = U M_{f o beta}",
            rep.passed and rep.cases_run == 500 and rep.duration_s < 5.0,
            f"({rep.cases_passed}/{rep.cases_run} in {rep.duration_s:.2f}s)")


def test_c02_mnorm_identity():
    rep = _run_suite("mnorm")
    _report(2, "M-norm binomial = recursive, bit for bit, M <= 6",
            rep.passed and rep.cases_run == 101 and rep.duration_s < 30.0,
            f"({rep.cases_passed}/{rep.cases_run} in {rep.duration_s:.2f}s)")


def test_c03_norm_anchors():
    diag = operator_norm(BDElement.mult_op(S23, LocConstFn([1, -2])))
    ok = diag.value == 2.0 and diag.kind == "exact"
    u = BDElement.shift(S23)
    cos2 = operator_norm(u + u.adjoint(), grid=1024)
    ok = ok and abs(cos2.value - 2.0) < 1e-6
    rng = random.Random(SEED)
    for _ in range(200):
        a = rand_bd(rng, S23, (1, 2, 3, 4), max_n=4)
        rep = operator_norm(a, grid=256)
        lower = max((sup_norm(f) for f in a.coeffs.values()), default=0.0)
        upper = sum(sup_norm(f) for f in a.coeffs.values())
        ok = ok and lower - 1e-9 <= rep.value <= upper + 1e-9
        ok = ok and rep.window[0] <= rep.value + 1e-9 <= rep.window[1] + 2e-9
    _report(3, "norm anchors and sandwich", ok)


def test_c04_fourier_reconstruction():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        b = rand_bd(rng, S23, (1, 2, 3, 4, 6, 8), max_n=5)
        rebuilt = BDElement(S23, {n: b.fourier_coefficient(n) for n in b.support})
        ok = ok and rebuilt == b
    _report(4, "b = sum U^n M_{b_n} structurally", ok)


def test_c05_cocycle_solver():
    rep = _run_suite("cocycle")
    _report(5, "cocycle solver G o beta - G = F", rep.passed and rep.cases_run == 500,
            f"({rep.cases_passed}/{rep.cases_run})")


def test_c06_covariant_recovery():
    rep = _run_suite("covariant-roundtrip")
    _report(6, "covariant recovery roundtrip |n| <= 6",
            rep.passed and rep.cases_run == 200,
            f"({rep.cases_passed}/{rep.cases_run})")


def test_c07_character_bound():
    rep = _run_suite("charpick")
    _report(7, "character gap >= 3/2, = 2 for even h",
            rep.passed and rep.cases_run == 200,
            f"({rep.cases_passed}/{rep.cases_run})")


def test_c08_k0_bookkeeping():
    rep = _run_suite("k0")
    ok = rep.passed
    # the decomposition identity and pushforward, spelled out once more
    S = SupernaturalNumber.of({2: INF, 3: INF, 5: INF, 7: INF, 11: INF})
    ok = ok and residue_projection(2, 0, S) == \
        residue_projection(4, 0, S) + residue_projection(4, 2, S)
    for l in range(1, 13):
        for j in range(l):
            ok = ok and k0_class(residue_projection(l, j, S)) == GSRational(1, l)
    for l, lp in ((2, 4), (2, 6), (3, 9), (4, 8)):
        ok = ok and Fraction(1, l) == (lp // l) * Fraction(1, lp)
    _report(8, "K0 projections, classes 1/l, pushforward", ok)


def test_c09_phi_machinery():
    rep = _run_suite("consistency")
    _report(9, "R consistency, congruence, sign bridge", rep.passed,
            f"({rep.cases_passed}/{rep.cases_run})")


def test_c10_kernel_image():
    rep = _run_suite("kernel-image")
    _report(10, "Ker(tau, rho~) = Im(1 - shift*) at truncation",
            rep.passed and rep.cases_run == 1000,
            f"({rep.cases_passed}/{rep.cases_run})")


def test_c11_rho_onto():
    rep = _run_suite("rho-onto")
    _report(11, "digit construction hits every residue, exhaustive",
            rep.passed, f"({rep.cases_passed}/{rep.cases_run})")


def test_c12_ext():
    rep = _run_suite("ext")
    _report(12, "Ext^1(Z/nZ, Z) = Z/nZ for n <= 100; SNF on 500 random",
            rep.passed, f"({rep.cases_passed}/{rep.cases_run})")


def test_c13_hom_obstruction_witnesses():
    """For every l <= 12 and 0 < |a| <= 10^6, a witness level exists within a
    depth-21 doubling chain through l.

    Along the chain l, 2l, 4l, ... the ratios are the powers of two, so the
    witness for a is the level l * 2^(v+1) with v the 2-adic valuation of a.
    The exhaustive sweep is vectorized; the library function is then checked
    against that prediction on the boundary cases and a random sample.
    """
    a_vals = np.arange(1, 10 ** 6 + 1, dtype=np.int64)
    lowbit = a_vals & -a_vals            # 2^v2(a)
    v2 = np.log2(lowbit).astype(np.int64)
    ok = bool((v2 + 1 <= 21).all())      # witness index within depth 21

    rng = random.Random(SEED)
    sample = {1, 2, 3, 6, 2 ** 19, 3 * 2 ** 18, 2 ** 19 - 1, 10 ** 6}
    sample.update(rng.randrange(1, 10 ** 6 + 1) for _ in range(2000))
    for l in range(1, 13):
        chain = DivisorChain.of([l * 2 ** i for i in range(1, 22)])
        for a in sorted(sample):
            v = int(v2[a - 1])
            for signed in (a, -a):
                ok = ok and hom_obstruction(l, signed, chain) == l * 2 ** (v + 1)
    _report(13, "hom obstruction witness for all l <= 12, |a| <= 10^6, depth 21",
            ok, f"(exhaustive sweep + {2 * 12 * len(sample)} direct calls)")


def test_c14_end_to_end_cli():
    def run_verify(scale):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bdalg", "verify", "all", "--scale", scale,
             "--seed", "7"],
            capture_output=True, text=True)
        return proc, time.perf_counter() - t0

    proc_small, t_small = run_verify("small")
    doc_small = json.loads(proc_small.stdout)
    proc_full, t_full = run_verify("full")
    doc_full = json.loads(proc_full.stdout)
    ok = (proc_small.returncode == 0 and t_small < 60.0 and doc_small["passed"]
          and proc_full.returncode == 0 and t_full < 300.0 and doc_full["passed"])
    _report(14, "verify all: full < 5 min, small < 60 s, exit 0", ok,
            f"(small {t_small:.1f}s, full {t_full:.1f}s)")
