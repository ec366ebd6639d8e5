import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdalg import Cyclo, LocConstFn, cyclotomic_polynomial, root_of_unity
from bdalg.cyclotomic import _sum
from bdalg.supernatural import _rational
from oracles import cyclo_equal


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_examples():
    i = root_of_unity(1, 4)
    assert i * i == Cyclo.from_rational(-1)
    assert root_of_unity(2, 4) == -1
    assert root_of_unity(2, 6) == root_of_unity(1, 3)
    assert root_of_unity(0, 7) == 1
    assert root_of_unity(9, 7) == root_of_unity(2, 7)


def test_cyclotomic_relations():
    z3 = root_of_unity(1, 3)
    assert (1 + z3 + z3 * z3).is_zero()
    z8 = root_of_unity(1, 8)
    assert z8.conj() * z8 == 1
    assert root_of_unity(1, 6) == -root_of_unity(2, 3)


def test_is_zero():
    s = Cyclo.zero()
    for j in range(5):
        s = s + root_of_unity(j, 5)
    assert s.is_zero()
    assert (root_of_unity(1, 4) - root_of_unity(1, 4)).is_zero()
    assert not (root_of_unity(1, 8) - root_of_unity(3, 8)).is_zero()


def test_eval_complex():
    z = root_of_unity(1, 8).to_complex()
    assert abs(z.real - math.sqrt(2) / 2) < 1e-12
    assert abs(z.imag - math.sqrt(2) / 2) < 1e-12
    assert Cyclo.from_rational(-1).to_complex() == complex(-1, 0)
    assert Cyclo.zero().to_complex() == 0
    hi = root_of_unity(1, 3).to_complex(precision=200)
    assert abs(hi - complex(-0.5, math.sqrt(3) / 2)) < 1e-15


def test_power_order():
    for n in (1, 2, 3, 5, 8, 12):
        z = root_of_unity(1, n)
        acc = Cyclo.one()
        for _ in range(n):
            acc = acc * z
        assert acc == 1


cyclos = st.builds(
    lambda order, items: Cyclo(order, {e: Fraction(p, q) for e, p, q in items}),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.lists(st.tuples(st.integers(0, 11), st.integers(-4, 4), st.integers(1, 4)),
             max_size=3))


@settings(max_examples=150, deadline=None)
@given(cyclos, cyclos, cyclos)
def test_ring_axioms(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert ((a * b) * c - (a * (b * c))).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    assert (a * b - b * a).is_zero()


@settings(max_examples=100, deadline=None)
@given(cyclos, cyclos)
def test_conj_is_ring_automorphism_and_involution(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=100, deadline=None)
@given(cyclos)
def test_zero_test_matches_numerics(a):
    if a.is_zero():
        assert abs(a.to_complex()) < 1e-9
    else:
        assert abs(a.to_complex()) > 1e-12


@pytest.mark.parametrize("x, want", [
    (3, 3), ("6/3", 2), ("-4/1", -4), ("1e0", 1), ("-25e-1", Fraction(-5, 2)),
    (Fraction(8, 4), 2), (Fraction(1, 3), Fraction(1, 3)), ("0.5", Fraction(1, 2))])
def test_rational_reads_integral_values_as_ints(x, want):
    got = _rational(x, "value")
    assert got == want and got.__class__ is want.__class__


@pytest.mark.parametrize("x", [True, False, 1.0, 0.5, "1.5.2", "1e4301", None])
def test_rational_refuses_inexact_values(x):
    with pytest.raises(ValueError):
        _rational(x, "value")


def test_inverse_divides_exactly():
    # int / int would be a float: both divisions in inverse start from Fraction(1)
    assert Cyclo(4, {1: 2}).inverse().terms == {3: Fraction(1, 2)}
    assert Cyclo(3, {0: 2, 1: 3}).inverse().terms == {1: Fraction(-2, 7), 2: Fraction(1, 7)}
    assert root_of_unity(1, 5).inverse().terms[4].__class__ is int


@st.composite
def spelled_values(draw):
    """(x, y): one value with coefficients spelled as ints, "p/q" and "n/1"
    strings, "ne0" decimals or Fractions, and again at a multiple of its order
    with spellings drawn afresh; distinct exponents, so that each term is a
    coefficient as read."""
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    coeffs = draw(st.dictionaries(st.integers(0, order - 1),
                                  st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                                  max_size=3))

    def spell(q):
        forms = [q, f"{2 * q.numerator}/{2 * q.denominator}"]
        if q.denominator == 1:
            forms += [q.numerator, f"{q.numerator}/1", f"{q.numerator}e0"]
        return draw(st.sampled_from(forms))

    k = draw(st.sampled_from([1, 2, 3]))
    return (Cyclo(order, {e: spell(q) for e, q in coeffs.items()}),
            Cyclo(order * k, [(e * k, spell(q)) for e, q in coeffs.items()]))


def _integral_terms_are_ints(x: Cyclo) -> bool:
    return all(c.__class__ is int for c in x.terms.values() if c.denominator == 1)


def _results(x: Cyclo, u: Cyclo) -> list:
    out = [x + u, x - u, u - x, x * u, -x, x.conj(), x * 3, x * Fraction(2, 3),
           _sum([(2, 1, x), (Fraction(1, 3), 0, u), (-1, 5, x)], 6)]
    if not u.is_zero():
        out += [u.inverse(), x / u]
    f = LocConstFn([x, u, x * u])
    return out + [f.haar_integral(), *f.char_coefficients().values()]


@settings(max_examples=150, deadline=None)
@given(spelled_values(), spelled_values())
def test_scalars_stay_exact_whatever_their_spelling(xy, uv):
    (x, y), (u, v) = xy, uv
    assert all(map(_integral_terms_are_ints, (x, y, u, v)))
    assert x == y and x.to_json() == y.to_json() and hash(x) == hash(y)
    got, other = _results(x, u), _results(y, v)
    for r in got + other:
        for c in (*r.terms.values(), *r._form()[1].values()):
            assert c.__class__ is int or c.__class__ is Fraction  # never float or bool
        read = Cyclo.from_json(r.to_json())
        assert _integral_terms_are_ints(read) and read == r
    assert [r.to_json() for r in got] == [r.to_json() for r in other]
    assert [hash(r) for r in got] == [hash(r) for r in other]


def test_random_nonzero_values_numeric_gap():
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        order = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
        a = Cyclo(order, {rng.randrange(order): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                          for _ in range(rng.randint(1, 3))})
        if a.is_zero():
            continue
        assert abs(a.to_complex()) > 1e-9
        checked += 1


def test_inverse():
    z3 = root_of_unity(1, 3)
    for v in (z3 - 1, z3 + 2, Cyclo.from_rational(Fraction(-3, 7)),
              root_of_unity(5, 8), root_of_unity(1, 12) + root_of_unity(5, 12),
              Cyclo(2, {0: 1, 1: 3}), root_of_unity(1, 3) + root_of_unity(2, 3),
              Cyclo(9, {e: Fraction(e * e - 7, e + 1) for e in range(9)})):
        assert v * v.inverse() == 1
        assert v.inverse().to_json()["order"] == v.to_json()["order"]
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().inverse()


def test_as_rational():
    assert (root_of_unity(1, 4) * root_of_unity(1, 4)).as_rational() == -1
    assert root_of_unity(1, 3).as_rational() is None
    halves = Cyclo(2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert halves.as_rational() == 0


def test_serialization():
    a = Cyclo(8, {1: Fraction(1, 2), 5: Fraction(-3)})
    obj = a.to_json()
    assert obj == {"order": 8, "terms": [[1, "7/2"]]}  # zeta_8^5 = -zeta_8
    assert Cyclo.from_json(obj) == a
    with pytest.raises(ValueError):
        Cyclo.from_json({"order": 8})
    with pytest.raises(ValueError):
        Cyclo.from_json({"order": "x", "terms": []})


def test_from_json_rejects_inexact_scalars():
    assert Cyclo.from_json({"order": 4, "terms": [[1, 2], [3, "1/3"]]}) == \
        Cyclo(4, {1: 2, 3: Fraction(1, 3)})
    for bad in ({"order": True, "terms": []},
                {"order": 4, "terms": [[1, 0.1]]},
                {"order": 4, "terms": [[1, True]]},
                {"order": 4, "terms": [[1.7, "1"]]},
                {"order": 4, "terms": [[True, "1"]]},
                {"order": 4, "terms": {"1": "1"}}):
        with pytest.raises(ValueError):
            Cyclo.from_json(bad)


def _rand_cyclo(rng, order):
    return Cyclo(order, {rng.randrange(order): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(rng.randint(0, 4))})


def _rewritten(rng, x, order):
    """x at the lcm of its order and `order`, plus random multiples of the
    vanishing sums sum_{b<p} zeta_n^(e + b*n/p)."""
    n = math.lcm(x.order, order)
    y = Cyclo(n, {e * (n // x.order): c for e, c in x.terms.items()})
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0 and rng.random() < 0.7:
            e, c = rng.randrange(n), rng.randint(-2, 2)
            y = y + Cyclo(n, {e + b * n // p: c for b in range(p)})
    return y


def _hash_alike(doc):
    """The JSON form with -1 read as -2: CPython hashes the two alike."""
    return doc["order"], [[e, "-2" if c == "-1" else c] for e, c in doc["terms"]]


@pytest.mark.parametrize("top", [72, 5, 7, 11, 13])
def test_canonical_form_matches_phi_oracle(top):
    # x == y, the Phi_N oracle and equal JSON agree; hashes agree too, except
    # that hash(-1) == hash(-2) carries over from the rationals
    rng = random.Random(top)
    orders = [d for d in range(1, top + 1) if top % d == 0]
    equal = 0
    for _ in range(300):
        x = _rand_cyclo(rng, rng.choice(orders))
        y = _rewritten(rng, x, rng.choice(orders))
        if rng.random() < 0.5:
            y = y + _rand_cyclo(rng, rng.choice(orders))
        want = cyclo_equal(x, y)
        assert (x == y) is want
        assert (x.to_json() == y.to_json()) is want
        assert (hash(x) == hash(y)) is (_hash_alike(x.to_json()) == _hash_alike(y.to_json()))
        equal += want
    assert 100 < equal < 250


def test_canonical_form_is_at_the_conductor():
    assert (root_of_unity(2, 4) + 1).to_json() == {"order": 1, "terms": []}
    assert root_of_unity(2, 6).to_json() == root_of_unity(1, 3).to_json() == \
        {"order": 3, "terms": [[1, "1"]]}
    assert root_of_unity(1, 6).to_json() == {"order": 3, "terms": [[2, "-1"]]}
    assert root_of_unity(3, 12).to_json() == {"order": 4, "terms": [[1, "1"]]}
    # on Q(zeta_5) the basis is zeta^1..zeta^4, so 1 = -(zeta + ... + zeta^4)
    assert (root_of_unity(0, 5) * 3 + root_of_unity(1, 5)).to_json() == \
        {"order": 5, "terms": [[1, "-2"], [2, "-3"], [3, "-3"], [4, "-3"]]}
    assert Cyclo(15, {0: 1, 5: 1, 10: 1}).to_json() == {"order": 1, "terms": []}


@pytest.mark.parametrize("q", [0, 1, -7, 10 ** 30, Fraction(3, 4), Fraction(-22, 7)])
def test_hash_agrees_with_rationals(q):
    assert hash(Cyclo.from_rational(q)) == hash(q)
    assert hash(Cyclo(6, {0: q, 2: 1, 4: 1}) + 1) == hash(q)  # 1 + zeta_3 + zeta_3^2 = 0
    assert {Cyclo.from_rational(q): "x"}[q] == "x"


def _cli(*argv, timeout=20):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bdalg", *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


def test_cli_add_prints_zero_canonically():
    proc, _ = _cli("cyc", "add", "--a", '{"order":4,"terms":[[2,"1"]]}',
                   "--b", '{"order":1,"terms":[[0,"1"]]}')
    assert proc.returncode == 0
    assert proc.stdout == '{"order":1,"terms":[]}\n'


def test_cli_iszero_at_large_order_is_fast():
    # 1 + zeta^(N/2) = 0 at N = 10^6; no cyclotomic polynomial of degree 4*10^5
    proc, elapsed = _cli("cyc", "iszero", "--a",
                         '{"order":1000000,"terms":[[0,"1"],[500000,"1"]]}')
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"is_zero": True}
    assert elapsed < 2


def test_eval_refuses_huge_precision():
    with pytest.raises(ValueError):
        root_of_unity(1, 72).to_complex(precision=10 ** 6)
    a = '{"order":72,"terms":[[1,"1"],[5,"1/3"],[7,"-2"]]}'
    proc, elapsed = _cli("cyc", "eval", "--a", a, "--precision", "3000000")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"
    assert elapsed < 20


@pytest.mark.parametrize("precision", [True, 60.5, 53.0])
def test_to_complex_refuses_a_precision_that_is_not_an_int(precision):
    with pytest.raises(ValueError, match="non-integer precision"):
        root_of_unity(1, 12).to_complex(precision)


@pytest.mark.parametrize("order", [1000003, 1000000000000000003])
def test_cli_refuses_orders_above_the_limit(order):
    # factorizing 10^18 + 3 by trial division would not finish
    proc, elapsed = _cli("cyc", "iszero", "--a",
                         '{"order":%d,"terms":[[0,"1"],[1,"1"]]}' % order)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"
    assert elapsed < 5


def test_orders_above_the_limit_are_refused():
    with pytest.raises(ValueError):
        root_of_unity(1, 10 ** 6 + 1)
    with pytest.raises(ValueError):  # the lcm of two allowed orders
        root_of_unity(1, 999983) + root_of_unity(1, 999979)
    assert root_of_unity(1, 10 ** 6).order == 10 ** 6


def test_doctests():
    import doctest

    import bdalg.cyclotomic
    import bdalg.supernatural
    for mod in (bdalg.cyclotomic, bdalg.supernatural):
        assert doctest.testmod(mod).failed == 0
