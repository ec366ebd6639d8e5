import random
from fractions import Fraction

import pytest

from bdalg import (Cyclo, DivisorChain, LocConstFn, character, root_of_unity,
                   synthesize)
from bdalg.verify import rand_fn

CH24 = DivisorChain.of([2, 4])


def test_character_values():
    assert character(4, 1).evaluate(CH24.embed(1)) == root_of_unity(1, 4)
    assert character(6, 0) == LocConstFn.constant(1, 6)
    assert character(6, 2).at(3) == 1  # zeta_6^6


def test_evaluate():
    f = LocConstFn([Fraction(2), Fraction(-1)])
    assert f.evaluate(CH24.embed(5)) == -1
    assert f.evaluate(CH24.embed(5).shift(1)) == 2
    c = LocConstFn.constant(Fraction(3, 7))
    assert c.evaluate(CH24.embed(123)) == Fraction(3, 7)
    with pytest.raises(ValueError):
        LocConstFn([1, 2, 3]).evaluate(CH24.embed(0))


def test_pullback():
    abc = LocConstFn([1, 2, 3])
    assert abc.pullback(1).values == (abc.values[1], abc.values[2], abc.values[0])
    assert abc.pullback(3) == abc
    assert abc.pullback(-1) == abc.pullback(2)
    for l, k in ((4, 1), (6, 5), (8, 3)):
        chi = character(l, k)
        assert chi.pullback(1) == chi.scale(root_of_unity(k, l))


def test_haar_integral():
    for l in range(1, 9):
        for k in range(1, l):
            assert character(l, k).haar_integral().is_zero()
    assert LocConstFn.constant(Fraction(5, 3), 6).haar_integral() == Fraction(5, 3)
    indicator = LocConstFn([0, 1, 0, 0])
    assert indicator.haar_integral() == Fraction(1, 4)


def test_haar_shift_invariance():
    rng = random.Random(3)
    for _ in range(50):
        f = rand_fn(rng, rng.choice([1, 2, 3, 4, 6, 12]))
        for m in (-2, 1, 5):
            assert f.pullback(m).haar_integral() == f.haar_integral()


def test_char_coefficients_examples():
    d = LocConstFn([1, -1]).char_coefficients()
    assert set(d) == {1} and d[1] == 1
    dc = LocConstFn.constant(Fraction(5), 3).char_coefficients()
    assert set(dc) == {0} and dc[0] == 5
    half = LocConstFn([1, 0]).char_coefficients()
    assert half == {0: Cyclo.from_rational(Fraction(1, 2)),
                    1: Cyclo.from_rational(Fraction(1, 2))}


def test_char_roundtrip_random():
    rng = random.Random(5)
    for _ in range(500):
        f = rand_fn(rng, rng.choice([1, 2, 3, 4, 6, 8, 12, 24]))
        assert synthesize(f.char_coefficients(), f.period) == f


def test_character_orthogonality():
    for l in range(1, 13):
        for a in range(l):
            for b in range(l):
                mean = (character(l, a) * character(l, b).conj()).haar_integral()
                if a == b:
                    assert mean == 1
                else:
                    assert mean.is_zero()


def test_period_lifting_preserves_function():
    f = LocConstFn([1, root_of_unity(1, 3)])
    g = f.with_period(6)
    assert g.period == 6
    assert g == f
    for k in range(12):
        assert g.at(k) == f.at(k)
    ch = DivisorChain.of([2, 6, 12])
    for r in range(12):
        assert g.evaluate(ch.from_residue(r)) == f.evaluate(ch.from_residue(r))


def test_pointwise_algebra():
    f = LocConstFn([1, 2])
    g = LocConstFn([1, 0, 2])
    assert (f * g).period == 6
    assert (f * g).at(2) == 2  # f(2) * g(2) = 1 * 2
    assert (f * g).at(4).is_zero()  # g(4) = g(1) = 0
    assert (f + g).at(1) == 2
    assert f.conj() == f
    chi = character(4, 1)
    assert chi.conj() == character(4, -1)


def test_a_period_one_factor_multiplies_as_a_scalar():
    f = LocConstFn([1, root_of_unity(1, 3), Fraction(-2, 3)])
    one = LocConstFn.constant(1)
    assert f.scale(1) is f and f * one is f and one * f is f
    three = LocConstFn.constant(3)
    assert (f * three).values == (three * f).values == (f * LocConstFn.constant(3, 3)).values
    # 1 spelled on another basis takes the pointwise product, with the same values
    assert f.scale(root_of_unity(0, 3)) is not f
    assert f.scale(root_of_unity(0, 3)) == f
    # the product keeps the lcm of the periods, f's own
    assert (LocConstFn.constant(root_of_unity(1, 4)) * f).period == 3
    assert LocConstFn.constant(Fraction(1, 2), 4).values == (Cyclo.from_rational(Fraction(1, 2)),) * 4
    for period in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            LocConstFn.constant(1, period)


def test_serialization_roundtrip():
    f = LocConstFn([1, root_of_unity(1, 3), Fraction(-2, 3)])
    obj = f.to_json()
    assert obj["period"] == 3
    assert LocConstFn.from_json(obj) == f
    with pytest.raises(ValueError):
        LocConstFn.from_json({"period": 2, "values": [Cyclo.one().to_json()]})


@pytest.mark.parametrize("l, k, what", [(2.0, 1, "period"), (True, 0, "period"),
                                        (3, 1.5, "character index"), (3, True, "character index")])
def test_character_refuses_arguments_that_are_not_ints(l, k, what):
    with pytest.raises(ValueError, match=f"non-integer {what}"):
        character(l, k)


@pytest.mark.parametrize("m", [True, 1.0])
def test_pullback_refuses_a_shift_that_is_not_an_int(m):
    # True shifted by 1 and 1.0 raised TypeError from the slice
    with pytest.raises(ValueError, match="non-integer shift"):
        character(3, 1).pullback(m)
    assert character(3, 1).pullback(-2) == character(3, 1).pullback(1)


@pytest.mark.parametrize("k", [True, 1.0])
def test_at_refuses_a_point_that_is_not_an_int(k):
    # at(True) read values[1], and at(1.0) raised TypeError from the index
    f = LocConstFn([1, 2, 3])
    with pytest.raises(ValueError, match="non-integer point"):
        f.at(k)
    assert f.at(-2) == 2
