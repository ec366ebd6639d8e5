import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from bdalg import (BDElement, Cyclo, DerivationData, INF, LocConstFn,
                   SupernaturalNumber, character, decompose_invariant,
                   nonsmooth_commutator, pick_character, recover_covariant,
                   root_of_unity, solve_cocycle, synthesize)
from bdalg.verify import _CHARPICK_POOL, rand_bd, rand_fn
from oracles import cocycle_reference

S = SupernaturalNumber.of({2: INF, 3: INF})
U = BDElement.shift(S)
F2 = LocConstFn([Fraction(1, 2), 3])


def test_apply_label_part():
    d = DerivationData(1, LocConstFn.zero(), {})
    u2f = BDElement(S, {2: F2})
    assert d.apply(u2f) == u2f.scale(2)


def test_apply_inner_diagonal_kills_diagonals():
    d = DerivationData(0, character(4, 1), {})
    assert d.apply(BDElement.mult_op(S, F2)) == BDElement.zero(S)


def test_apply_covariant_on_shift():
    f = LocConstFn([1, Fraction(2, 3)])
    d = DerivationData(0, LocConstFn.zero(), {1: f})
    assert d.apply(U) == BDElement(S, {2: f.pullback(1) - f})


def test_leibniz_rule():
    rng = random.Random(101)
    for _ in range(500):
        raw = rand_fn(rng, rng.choice([2, 3, 4, 12]))
        g = raw - LocConstFn.constant(raw.haar_integral(), raw.period)
        cov = {n: rand_fn(rng, rng.choice([1, 2, 6])) for n in
               rng.sample([-3, -2, -1, 1, 2, 3], k=rng.randint(1, 2))}
        d = DerivationData(rand_fn(rng, 1).at(0), g, cov)
        a = rand_bd(rng, S, (1, 2, 3), max_n=3, max_terms=2)
        b = rand_bd(rng, S, (1, 2, 4), max_n=3, max_terms=2)
        assert d.apply(a * b) == a * d.apply(b) + d.apply(a) * b


def test_mean_zero_enforced():
    with pytest.raises(ValueError):
        DerivationData(0, LocConstFn([1, 0]), {})


def test_fourier_component_selection():
    g = character(2, 1)
    f1 = LocConstFn([1, 2])
    d = DerivationData(Fraction(3), g, {1: f1})
    d0 = d.fourier_component(0)
    assert d0.constant == Cyclo.from_rational(3)
    assert d0.invariant_fn == g
    assert not d0.covariant
    only2 = DerivationData(0, LocConstFn.zero(), {2: f1})
    z = only2.fourier_component(1)
    assert z.constant.is_zero() and z.invariant_fn.is_zero() and not z.covariant


def test_component_covariance_phase():
    # conjugating the n = 2 component by the circle action at 1/4 scales by -1
    d2 = DerivationData(0, LocConstFn.zero(), {2: character(4, 1)})
    rng = random.Random(7)
    for _ in range(10):
        b = rand_bd(rng, S, (1, 2, 4), max_n=2)
        lhs = d2.apply(b.circle_action(Fraction(1, 4))).circle_action(Fraction(-1, 4))
        assert lhs == d2.apply(b).scale(root_of_unity(-2, 4))
        assert root_of_unity(-2, 4) == -1


def test_solve_cocycle_examples():
    chi2 = character(2, 1)
    assert solve_cocycle(chi2) == chi2.scale(Fraction(-1, 2))
    assert solve_cocycle(LocConstFn.zero(4)).is_zero()
    chi4 = character(4, 1)
    g = solve_cocycle(chi4)
    assert g == chi4.scale((root_of_unity(1, 4) - 1).inverse())
    assert g.pullback(1) - g == chi4


@pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 8, 12, 24, 72, "zero"])
def test_solve_cocycle_matches_character_route(l):
    # reference: divide each character coefficient c_k by zeta_l^k - 1 and resynthesize
    rng = random.Random(31 if l == "zero" else l)
    if l == "zero":
        cases = [LocConstFn.zero(6), LocConstFn([Cyclo(4, {}), Cyclo(4, {0: 1, 2: 1})])]
    else:
        raws = [rand_fn(rng, l) for _ in range(1 if l == 72 else 12)]
        cases = [f - LocConstFn.constant(f.haar_integral(), l) for f in raws]
    for ft in cases:
        period = ft.period
        solved = {k: c / (root_of_unity(k, period) - 1)
                  for k, c in ft.char_coefficients().items()}
        want = synthesize(solved, period)
        got = solve_cocycle(ft)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_solve_cocycle_mean_obstruction():
    with pytest.raises(ValueError):
        solve_cocycle(LocConstFn([1, 0]))


def test_decompose_invariant():
    chi3 = character(3, 1)
    f = LocConstFn.constant(5, 3) + chi3
    c, g = decompose_invariant(f)
    assert c == 5
    assert g == chi3.scale((root_of_unity(1, 3) - 1).inverse())
    c2, g2 = decompose_invariant(LocConstFn.constant(Fraction(7, 2), 4))
    assert c2 == Fraction(7, 2) and g2.is_zero()
    chi2, chi4 = character(2, 1), character(4, 1)
    c3, g3 = decompose_invariant(chi2 + chi4)
    assert c3.is_zero()
    assert g3 == chi2.scale(Fraction(-1, 2)) + chi4.scale((root_of_unity(1, 4) - 1).inverse())


def test_decompose_matches_derivation_on_shift():
    rng = random.Random(13)
    for _ in range(25):
        f = rand_fn(rng, rng.choice([1, 2, 3, 4, 6, 8]))
        c, g = decompose_invariant(f)
        d = DerivationData(c, g, {})
        assert d.apply(U) == U * BDElement.mult_op(S, f)


def test_decompose_forms_no_difference_function(monkeypatch):
    # G comes from f and C directly; neither f - C nor the constant function C
    # is built, and the result is the JSON of the route through f - C
    rng = random.Random(17)
    fs = [rand_fn(rng, l) for l in (1, 2, 3, 6, 12, 24)] + [character(4, 1)]
    want = [json.dumps([f.haar_integral().to_json(), solve_cocycle(
        f - LocConstFn.constant(f.haar_integral(), f.period)).to_json()]) for f in fs]

    def refuse(*args):
        raise AssertionError("decompose_invariant formed f - C")

    monkeypatch.setattr(LocConstFn, "__sub__", refuse)
    monkeypatch.setattr(LocConstFn, "constant", refuse)
    for f, doc in zip(fs, want):
        c, g = decompose_invariant(f)
        assert json.dumps([c.to_json(), g.to_json()]) == doc


_LARGE_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 1_000_003)


def _oracle_value(rng, orders) -> Cyclo:
    """One to three raw terms at one of orders, coefficients p/q with q up to 7
    or, one value in ten, a large prime; one in nine is the unreduced zero
    zeta_4^0 + zeta_4^2 or -q as zeta_3 + zeta_3^2, each with a shorter
    canonical form.  A quarter of the values have theirs cached already."""
    den = rng.choice(_LARGE_PRIMES) if rng.randrange(10) == 0 else rng.randint(1, 7)
    q = Fraction(rng.randint(-9, 9) or 1, den)
    if rng.randrange(9) == 0:
        x = rng.choice((Cyclo(4, {0: 1, 2: 1}), Cyclo(3, {1: q, 2: q})))
    else:
        order = rng.choice(orders)
        x = Cyclo(order, [(rng.randrange(order), q * rng.randint(1, 3))
                          for _ in range(rng.randint(1, 3))])
    if rng.randrange(4) == 0:
        x.to_json()
    return x


def _oracle_fn(rng, l: int) -> LocConstFn:
    """Values at three orders drawn from 1-72, whose lcm with 12 (the orders of
    the special values) is at most 3600."""
    orders = rng.sample(range(1, 73), 3)
    while math.lcm(12, *orders) > 3600:
        orders = rng.sample(range(1, 73), 3)
    return LocConstFn([_oracle_value(rng, orders) for _ in range(l)])


@pytest.mark.parametrize("l", [1, 2, 3, 24, 72])
def test_cocycle_kernel_matches_the_chain_of_sums(l):
    rng = random.Random(1000 + l)
    for _ in range(2 if l == 72 else 8):
        f = _oracle_fn(rng, l)
        c = f.haar_integral()
        got, want = decompose_invariant(f), (c, cocycle_reference(f, c))
        assert json.dumps([x.to_json() for x in got]) == json.dumps([x.to_json() for x in want])
        ft = f - LocConstFn.constant(c, l)
        g = solve_cocycle(ft)
        assert json.dumps(g.to_json()) == json.dumps(cocycle_reference(ft, Cyclo.zero()).to_json())
        # each coefficient is an int where it is integral, a Fraction otherwise
        assert all(x.__class__ is int or x.denominator > 1 for v in (got[0],) + got[1].values
                   + g.values for x in v.terms.values())


def test_recover_covariant_roundtrip_example():
    chi4 = character(4, 1)
    d = DerivationData(0, LocConstFn.zero(), {2: chi4})
    delta_of_chi = d.apply(BDElement.mult_op(S, chi4))
    # hand expansion: delta(M_chi4) = 2 U^2 M_{chi4^2}
    assert delta_of_chi == BDElement(S, {2: (chi4 * chi4).scale(2)})
    assert recover_covariant(2, 4, 1, delta_of_chi) == chi4


def test_recover_covariant_zero_and_error():
    assert recover_covariant(2, 4, 1, BDElement.zero(S)).is_zero()
    with pytest.raises(ValueError):
        recover_covariant(4, 4, 1, BDElement.zero(S))  # chi_4(q(4)) = 1
    for l in (0, -4):  # refused before (n * k) % l
        with pytest.raises(ValueError, match="period must be positive"):
            recover_covariant(1, l, 1, BDElement.zero(S))


def test_recover_covariant_matches_inverse_route():
    # reference: invert 1 - zeta_l^{nk} with Cyclo.inverse
    rng = random.Random(43)
    for _ in range(60):
        l = rng.choice([2, 3, 4, 6, 8, 9, 12, 24])
        n = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        ks = [k for k in range(l) if (n * k) % l]
        if not ks:
            continue
        k = rng.choice(ks)
        delta = rand_bd(rng, S, (1, 2, 3, 4, 6), max_n=6)
        chi_inv = BDElement.mult_op(S, character(l, k).conj())
        extracted = (BDElement.shift(S, -n) * delta * chi_inv).fourier_coefficient(0)
        factor = (Cyclo.one() - root_of_unity(n * k, l)).inverse()
        want = extracted.scale(factor)
        got = recover_covariant(n, l, k, delta)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@functools.lru_cache(maxsize=None)
def _scan_h(g, S, max_h=10007):
    """The modulus search: smallest even h with g*h | S, else the smallest odd h >= 3."""
    for start in (2, 3):
        for h in range(start, max_h + 1, 2):
            if S.divisible_by(g * h):
                return h
    return None


@pytest.mark.parametrize("S", list(_CHARPICK_POOL) + [
    SupernaturalNumber.of({10007: INF}),  # beyond the old default search limit
    SupernaturalNumber.of({2: 1, 3: 1}),  # no admissible h once 6 | n
    SupernaturalNumber.of({}),            # no admissible h at all
], ids=str)
def test_pick_character_matches_modulus_scan(S):
    for n in range(-200, 201):
        if n == 0:
            continue
        g = S.gcd(abs(n))
        h = _scan_h(g, S)
        if h is None:
            with pytest.raises(ValueError):
                pick_character(n, S)
            continue
        l = g * h
        gamma = h // 2 if h % 2 == 0 else (h + 1) // 2
        j = (pow(abs(n) // g, -1, h) * gamma) % l
        bound = 2.0 if h % 2 == 0 else 2.0 * math.cos(math.pi / (2 * h))
        assert tuple(pick_character(n, S)) == (l, j, bound)


def test_pick_character_examples():
    pick = pick_character(2, S)
    assert (pick.l, pick.bound) == (4, 2.0)
    assert root_of_unity(2 * pick.j, pick.l) == -1
    pick3 = pick_character(3, S)
    assert (pick3.l, pick3.bound) == (6, 2.0)
    assert root_of_unity(3 * pick3.j, pick3.l) == -1
    pick1 = pick_character(1, SupernaturalNumber.of({3: INF}))
    assert pick1.l == 3 and pick1.j == 2
    assert abs(pick1.bound - math.sqrt(3)) < 1e-12
    val = root_of_unity(pick1.j, pick1.l).to_complex()
    assert abs(abs(1 - val) - math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("n", [True, 2.0])
def test_pick_character_refuses_n_that_is_not_an_int(n):
    # True picked (2, 1, 2.0) as if it were 1; 2.0 raised TypeError from pow
    with pytest.raises(ValueError, match="non-integer n"):
        pick_character(n, S)


def test_pick_character_error_path():
    with pytest.raises(ValueError):
        pick_character(12, SupernaturalNumber.of({2: 2, 3: 1}))
    with pytest.raises(ValueError):
        pick_character(0, S)


def test_nonsmooth_commutator():
    S2 = SupernaturalNumber.of({2: INF})
    p = nonsmooth_commutator(S2, 5, 3, 4, 1)
    assert sorted(p) == [1, 2]
    assert p[1] == Cyclo.one() - root_of_unity(1, 4)
    assert p[2] == 2
    assert nonsmooth_commutator(S2, 5, 3, 4, 0) == {}
    assert nonsmooth_commutator(S2, 5, 3, 2, 1) == {1: 2}


def test_nonsmooth_validation():
    S2 = SupernaturalNumber.of({2: INF})
    with pytest.raises(ValueError):
        nonsmooth_commutator(S2, 3, 5, 4, 1)  # truncation beyond chain depth
    with pytest.raises(ValueError, match="truncation"):
        nonsmooth_commutator(S2, 5, -1, 8, 1)  # chain[:-1] would drop a level
    with pytest.raises(ValueError):
        nonsmooth_commutator(S2, 5, 3, 4, 4)  # residue out of range
    with pytest.raises(ValueError):
        nonsmooth_commutator(S2, 5, 3, 3, 1)  # 3 does not divide 2^inf


def test_nonsmooth_truncation_stable():
    S2 = SupernaturalNumber.of({2: INF})
    base = nonsmooth_commutator(S2, 4, 3, 4, 1)
    for n in (5, 8, 12):
        assert nonsmooth_commutator(S2, n, n, 4, 1) == base
    S6 = SupernaturalNumber.of({2: INF, 3: INF})
    for l, k in ((2, 1), (4, 1), (6, 5), (12, 7)):
        small = nonsmooth_commutator(S6, 6, 6, l, k)
        assert nonsmooth_commutator(S6, 10, 10, l, k) == small
        levels = [1] + S6.divisor_chain(10)
        surviving = [e for e in levels if (k * e) % l != 0]
        assert set(small) <= set(surviving)


def test_serialization_roundtrip():
    d = DerivationData(Fraction(2, 3), character(2, 1), {1: LocConstFn([1, 2])})
    obj = json.loads(json.dumps(d.to_json()))
    assert obj["C"] == "2/3"
    back = DerivationData.from_json(obj)
    assert back.constant == d.constant
    assert back.invariant_fn == d.invariant_fn
    assert back.covariant[1] == d.covariant[1]
    with pytest.raises(ValueError):
        DerivationData.from_json({"C": "1"})


def test_from_json_refuses_covariant_keys_that_are_not_canonical():
    obj = DerivationData(1, LocConstFn.zero(), {1: LocConstFn([1, 2])}).to_json()
    f = obj["covariant"]["1"]
    for key in ("01", " 1", "1_0", "+1", "-01"):
        with pytest.raises(ValueError, match="label"):
            DerivationData.from_json(dict(obj, covariant={"1": f, key: f}))


@pytest.mark.parametrize("index", [2.7, 2.0, True, "2"])
def test_constructor_refuses_covariant_indices_that_are_not_plain_integers(index):
    with pytest.raises(ValueError, match="covariant index"):
        DerivationData(0, LocConstFn.zero(), {index: F2})


_GOLDEN_ORDERS = (1, 2, 4, 6, 9, 10, 12, 15, 72)


def _golden_value(rng) -> Cyclo:
    """One to three raw terms at one of _GOLDEN_ORDERS, coefficients p/q with q up
    to 7; one value in eleven is the unreduced zero zeta_4^0 + zeta_4^2."""
    if rng.randrange(11) == 0:
        return Cyclo(4, {0: 1, 2: 1})
    order = rng.choice(_GOLDEN_ORDERS)
    return Cyclo(order, [(rng.randrange(order), Fraction(rng.randint(-9, 9) or 1,
                                                        rng.randint(1, 7)))
                         for _ in range(rng.randint(1, 3))])


def _golden_corpus():
    rng = random.Random(2024)
    return [LocConstFn([_golden_value(rng) for _ in range(l)])
            for l, count in ((1, 4), (2, 4), (3, 4), (5, 4), (12, 3), (24, 2), (72, 2))
            for _ in range(count)]


def _kernel_docs(f: LocConstFn, rng) -> dict:
    l = f.period
    coeffs = f.char_coefficients()
    ks = rng.sample(range(-l, 2 * l), min(3, l)) if l > 1 else [0, 5]
    random_coeffs = {k: _golden_value(rng) for k in ks}
    c, g = decompose_invariant(f)
    ft = f - LocConstFn.constant(f.haar_integral(), l)
    return {"haar": f.haar_integral().to_json(),
            "char": {str(k): v.to_json() for k, v in sorted(coeffs.items())},
            "synth": synthesize(coeffs, l).to_json(),
            "synth_random": synthesize(random_coeffs, l).to_json(),
            "cocycle": solve_cocycle(ft).to_json(),
            "decompose": [c.to_json(), g.to_json()]}


# Digest of the five kernels' JSON output over _golden_corpus, taken at ea0316c,
# when each of them summed one Cyclo per term.
GOLDEN_KERNELS = "8f8c837a0402e1a07a163d7378cf7e7774c846456b7abd4861c7eb4ef5b3c7ac"


def test_kernels_are_byte_identical_to_the_pinned_digest():
    rng = random.Random(7)
    docs = [_kernel_docs(f, rng) for f in _golden_corpus()]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_KERNELS


@pytest.mark.parametrize("cached", [False, True])
def test_kernels_refuse_an_lcm_above_the_order_limit(cached):
    # the lcm of the orders of zeta_2000 and zeta_999 is 1998000 > _MAX_ORDER
    a, b = root_of_unity(1, 2000), root_of_unity(1, 999)
    if cached:
        a.to_json(), b.to_json()
    f = LocConstFn([a, b])
    for kernel in (LocConstFn.haar_integral, LocConstFn.char_coefficients,
                   solve_cocycle, decompose_invariant, lambda f: synthesize(
                       dict(enumerate(f.values)), 2)):
        with pytest.raises(ValueError, match="order above 1000000"):
            kernel(f)


def test_kernels_sum_a_value_on_its_cached_shorter_canonical_form():
    # 1 + zeta_2000^1000 is zero; once its canonical form (1, {}) is known, it
    # enters every sum at order 1, so the lcm with zeta_999 stays 999.
    zero, b = Cyclo(2000, {0: 1, 1000: 1}), root_of_unity(1, 999)
    assert zero.is_zero()
    f = LocConstFn([zero, b])
    assert f.haar_integral() == b * Fraction(1, 2)
    assert synthesize(f.char_coefficients(), 2) == f
    assert synthesize({0: zero, 1: b}, 2) == character(2, 1).scale(b)
    c, g = decompose_invariant(f)
    assert c == b * Fraction(1, 2) and g.pullback(1) - g == f - LocConstFn.constant(c, 2)
    with pytest.raises(ValueError, match="order above 1000000"):
        LocConstFn([Cyclo(2000, {0: 1, 1000: 1}), b]).haar_integral()
