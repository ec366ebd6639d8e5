import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdalg import Cyclo, cyclotomic_polynomial, root_of_unity


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
              root_of_unity(5, 8), root_of_unity(1, 12) + root_of_unity(5, 12)):
        assert v * v.inverse() == 1
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
    assert obj == {"order": 8, "terms": [[1, "1/2"], [5, "-3"]]}
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


def test_doctests():
    import doctest

    import bdalg.cyclotomic
    import bdalg.supernatural
    for mod in (bdalg.cyclotomic, bdalg.supernatural):
        assert doctest.testmod(mod).failed == 0
