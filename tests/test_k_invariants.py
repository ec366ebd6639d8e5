import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bdalg import (BDElement, DivisorChain, GSRational, INF, PhiFn,
                   SupernaturalNumber, hom_obstruction, k0_class,
                   residue_projection)
from oracles import r_sum as r_sum_oracle

S = SupernaturalNumber.of({2: INF, 3: INF, 5: INF, 7: INF, 11: INF})
CH24 = DivisorChain.of([2, 4])
PHI = PhiFn(CH24, [1, 0, 2, 0])


def test_projection_identities():
    assert residue_projection(1, 0, S) == BDElement.one(S)
    assert residue_projection(2, 0, S) == \
        residue_projection(4, 0, S) + residue_projection(4, 2, S)
    zero = residue_projection(4, 1, S) * residue_projection(4, 2, S)
    assert zero == BDElement.zero(S)


def test_projection_is_projection():
    p = residue_projection(6, 2, S)
    assert p * p == p
    assert p.adjoint() == p


def test_import_loads_no_algebra_layer():
    # the PhiFn functions never build an element; residue_projection, the one
    # function that does, imports bd_algebra when it is called
    code = ("import sys, bdalg.k_invariants; "
            "print(sorted({'bdalg.bd_algebra', 'bdalg.cyclotomic'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_k0_classes():
    for l in range(1, 13):
        for j in range(l):
            assert k0_class(residue_projection(l, j, S)) == GSRational(1, l)
    assert k0_class(BDElement.one(S)) == GSRational(1, 1)


def test_k0_rejects_non_projection():
    with pytest.raises(ValueError, match="not a projection"):
        k0_class(BDElement.shift(S))


def test_k0_non_diagonal_projection():
    # symbol is the constant rank-1 matrix (1/2)[[1,1],[1,1]]
    from bdalg import LocConstFn
    h = Fraction(1, 2)
    p = (BDElement.mult_op(S, LocConstFn.constant(h, 2))
         + BDElement(S, {1: LocConstFn([h, 0])})
         + BDElement(S, {-1: LocConstFn([0, h])}))
    assert p * p == p and p.adjoint() == p
    assert k0_class(p) == GSRational(1, 2)


def test_k0_additive_and_pushforward():
    for l, lp in ((1, 2), (2, 4), (2, 6), (3, 9)):
        total = GSRational(0, 1)
        for j in range(lp // l):
            total = total + k0_class(residue_projection(lp, j * l, S))
        assert total == GSRational(1, l)
        assert Fraction(1, l) == (lp // l) * Fraction(1, lp)


def test_hom_obstruction():
    chain = DivisorChain.of([2, 4, 8, 16])
    assert hom_obstruction(1, 4, chain) == 8
    assert hom_obstruction(1, 1, chain) == 2
    chain5 = DivisorChain.of([2, 4, 8, 16, 32])
    # first ratio 2^k not dividing 6 is 4, reached at level 8
    assert hom_obstruction(2, 6, chain5) == 8
    with pytest.raises(ValueError, match="shallow"):
        hom_obstruction(2, 8, DivisorChain.of([2, 4]))
    with pytest.raises(ValueError, match="divides no level"):
        hom_obstruction(3, 1, chain)
    with pytest.raises(ValueError):
        hom_obstruction(2, 0, chain)


def test_phi_values():
    assert PHI.value(2, 0) == 3
    assert PHI.value(1, 0) == 3
    assert PHI.value(4, 3) == 0
    with pytest.raises(ValueError):
        PHI.value(3, 0)


def test_phi_compatibility_exhaustive():
    rng = random.Random(2)
    chain = DivisorChain.of([2, 6, 24])
    divisors = [d for d in range(1, 25) if 24 % d == 0]
    for _ in range(10):
        phi = PhiFn(chain, [rng.randint(-4, 4) for _ in range(24)])
        for l in divisors:
            for lp in divisors:
                if lp % l:
                    continue
                for k in range(l):
                    assert phi.value(l, k) == sum(
                        phi.value(lp, k + j * l) for j in range(lp // l))


def test_r_sum_values():
    assert PHI.r_sum(1, 4) == 5
    assert PHI.r_sum(2, 4) == 1
    assert PHI.r_sum(1, 2) == 3
    assert PHI.r_sum(1, 4) - PHI.r_sum(1, 2) == 2 * PHI.r_sum(2, 4)
    assert PHI.r_sum(1, 4, "lin") == 7
    assert (PHI.r_sum(1, 4, "lin") + PHI.r_sum(1, 4, "def")) % 4 == 0
    assert PHI.r_sum(2, 2) == 0
    assert PHI.r_sum(4, 4) == 0


@pytest.mark.parametrize("levels", [[2, 4, 8, 16], [2, 6, 12], [3, 9, 27], [2, 12, 72]])
def test_r_sum_closed_forms_match_double_sums(levels):
    rng = random.Random(sum(levels))
    chain = DivisorChain.of(levels)
    divisors = [d for d in range(1, chain.top + 1) if chain.top % d == 0]
    for _ in range(8):
        phi = PhiFn(chain, [rng.randint(-9, 9) for _ in range(chain.top)])
        for lp in divisors:
            assert phi.r_sum(1, lp, "lin") == r_sum_oracle(phi, 1, lp, "lin")
            for l in divisors:
                if lp % l == 0:
                    assert phi.r_sum(l, lp) == r_sum_oracle(phi, l, lp)


def test_r_sum_errors():
    with pytest.raises(ValueError):
        PHI.r_sum(2, 4, "lin")
    with pytest.raises(ValueError):
        PHI.r_sum(3, 4)
    with pytest.raises(ValueError):
        PHI.r_sum(1, 4, "quadratic")
    for l in (0, -2):  # refused before any modulo by l
        with pytest.raises(ValueError, match="need l"):
            PHI.r_sum(l, 4)


def test_tau_rho():
    assert PHI.tau() == 3
    rho = PHI.rho()
    assert rho.residue(2) == 1
    assert rho.residue(4) == 1
    z = PhiFn.zero(CH24)
    assert z.tau() == 0 and z.rho().value() == 0


def test_sum_and_difference_need_one_chain():
    psi = PhiFn(CH24, [0, -1, 0, -2])
    assert (PHI - psi).top == (1, 1, 2, 2)
    assert (PHI + psi).top == (1, -1, 2, -2)
    other = PhiFn(DivisorChain.of([2, 6]), [0] * 6)
    for op in (PhiFn.__add__, PhiFn.__sub__):
        with pytest.raises(ValueError, match="operands live on different chains"):
            op(PHI, other)


def test_coboundary():
    psi = PhiFn(CH24, [0, -1, 0, -2])
    assert psi.coboundary().top == (1, -1, 2, -2)
    assert PhiFn(CH24, [5, 5, 5, 5]).coboundary() == PhiFn.zero(CH24)
    rng = random.Random(3)
    for _ in range(40):
        p = PhiFn(CH24, [rng.randint(-9, 9) for _ in range(4)])
        cb = p.coboundary()
        assert cb.tau() == 0
        for l in (2, 4):
            assert cb.r_sum(1, l) == l * p.value(l, 0) - p.value(1, 0)


def test_coboundary_preimage_example():
    phi = PhiFn(CH24, [1, -1, 2, -2])
    psi = phi.coboundary_preimage()
    assert psi.top == (0, -1, 0, -2)
    assert psi.coboundary() == phi
    assert psi.value(2, 0) == 0
    assert psi.value(2, 1) == -3
    assert PhiFn.zero(CH24).coboundary_preimage() == PhiFn.zero(CH24)


def test_coboundary_preimage_requires_tau_zero():
    with pytest.raises(ValueError, match="nonzero tau"):
        PhiFn(CH24, [1, 0, 0, 0]).coboundary_preimage()


def test_coboundary_roundtrip():
    rng = random.Random(5)
    for levels in ([2, 4], [2, 4, 8], [3, 9]):
        chain = DivisorChain.of(levels)
        for _ in range(30):
            psi0 = PhiFn(chain, [rng.randint(-6, 6) for _ in range(chain.top)])
            phi = psi0.coboundary()
            psi = phi.coboundary_preimage()
            assert psi.coboundary() == phi
            # preimages agree up to an additive constant
            diff = {psi.top[k] - psi0.top[k] for k in range(chain.top)}
            assert len(diff) == 1


def test_digit_phi():
    ch8 = DivisorChain.of([2, 4, 8])
    x = ch8.embed(3)
    assert x.digits == (1, 1, 0)
    phi = PhiFn.from_profinite(x)
    assert phi.top == (0, 0, 1, 0, 0, 0, 0, 0)
    assert phi.r_sum(1, 8, "lin") % 8 == 3
    assert PhiFn.from_profinite(ch8.zero()) == PhiFn.zero(ch8)


def test_digit_phi_level_values():
    ch = DivisorChain.of([2, 6, 12])
    for r in range(12):
        x = ch.from_residue(r)
        phi = PhiFn.from_profinite(x)
        a = x.digits
        sums = [a[0], a[0] - a[1], a[0] - a[1] - a[2]]
        for n, l in enumerate(ch.levels):
            assert phi.value(l, 0) == sums[n]
            for k in range(n):
                assert phi.value(l, ch.levels[k]) == a[k + 1]


def test_digit_phi_surjectivity_certificate():
    for levels in ([2, 4, 8], [2, 6, 12], [3, 9, 27]):
        chain = DivisorChain.of(levels)
        for r in range(chain.top):
            phi = PhiFn.from_profinite(chain.from_residue(r))
            for l in chain.levels:
                assert phi.r_sum(1, l, "lin") % l == r % l


def test_serialization_roundtrip():
    obj = json.loads(json.dumps(PHI.to_json()))
    assert obj == {"chain": [2, 4], "top": [1, 0, 2, 0]}
    assert PhiFn.from_json(obj) == PHI
    with pytest.raises(ValueError):
        PhiFn.from_json({"chain": [2, 4], "top": [1, 0]})
    assert GSRational.from_json("3/4") == GSRational(3, 4)
    assert GSRational(1, 2).to_json() == "1/2"
    with pytest.raises(ValueError):
        GSRational(2, 4)
