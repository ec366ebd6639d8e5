import copy
import pickle
import subprocess
import sys

import numpy
import pytest
from hypothesis import given, strategies as st

from bdalg import (INF, BDElement, Cyclo, DivisorChain, GSRational, PhiFn, ProfiniteInt,
                   SupernaturalNumber, root_of_unity)
from bdalg.supernatural import is_prime, prime_index

S23 = SupernaturalNumber.of({2: INF, 3: INF})


def test_product_exponent_addition():
    a = SupernaturalNumber.of({2: INF, 3: 1})
    b = SupernaturalNumber.of({3: 1, 5: 1})
    assert a * b == SupernaturalNumber.of({2: INF, 3: 2, 5: 1})


def test_product_identity():
    one = SupernaturalNumber()
    assert S23 * one == S23
    assert one * S23 == S23


def test_product_inf_plus_inf():
    p = SupernaturalNumber.of({2: INF})
    assert p * p == p


def test_divides():
    assert S23.divisible_by(12)
    assert not SupernaturalNumber.of({2: 2, 3: INF}).divisible_by(8)
    assert S23.divisible_by(1)
    assert SupernaturalNumber().divisible_by(1)


def test_gcd():
    assert S23.gcd(10) == 2
    assert SupernaturalNumber.of({3: INF}).gcd(9) == 9
    assert S23.gcd(7) == 1


def test_divisor_chain_single_prime():
    assert SupernaturalNumber.of({2: INF}).divisor_chain(3) == [2, 4, 8]


def test_divisor_chain_two_primes():
    # staircase schedule evaluated by hand: 2, 2^2*3, 2^3*3^2
    assert S23.divisor_chain(3) == [2, 12, 72]


def test_divisor_chain_finite_too_small():
    with pytest.raises(ValueError):
        SupernaturalNumber.of({2: 1, 3: 1}).divisor_chain(3)
    assert SupernaturalNumber.of({2: 1, 3: 1}).divisor_chain(2) == [2, 6]


def test_divisor_chain_prefix_property():
    for S in (S23, SupernaturalNumber.of({2: INF}), SupernaturalNumber.of({3: INF, 5: 2})):
        c5 = S.divisor_chain(5)
        c6 = S.divisor_chain(6)
        assert c6[:5] == c5
        for a, b in zip(c5, c5[1:]):
            assert b % a == 0 and a < b
        for l in c5:
            assert S.divisible_by(l)


small_ints = st.integers(min_value=1, max_value=600)


@given(small_ints, small_ints)
def test_divides_transitive(k, l):
    if S23.divisible_by(l) and l % k == 0:
        assert S23.divisible_by(k)


@given(small_ints)
def test_gcd_divides_both(n):
    g = S23.gcd(n)
    assert n % g == 0
    assert S23.divisible_by(g)


def test_serialization_roundtrip():
    obj = S23.to_json()
    assert obj == [[2, "inf"], [3, "inf"]]
    assert SupernaturalNumber.from_json(obj) == S23
    mixed = SupernaturalNumber.of({2: INF, 3: 1})
    assert mixed.to_json() == [[2, "inf"], [3, 1]]
    assert SupernaturalNumber.from_json(mixed.to_json()) == mixed


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        SupernaturalNumber.of({4: 1})
    with pytest.raises(ValueError):
        SupernaturalNumber(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        SupernaturalNumber.from_json([[2, -1]])


# Each call used to truncate a float or read a bool as 0 or 1; the scalar readers
# of bdalg.supernatural refuse both.
SLIPS = {
    "exponent-float": lambda: SupernaturalNumber.of({2: 2.5}),
    "prime-float": lambda: SupernaturalNumber.of({2.9: 1}),
    "exponent-bool": lambda: SupernaturalNumber(((2, True),)),
    "chain-level-float": lambda: DivisorChain.of([2.5, 4]),
    "digit-bool": lambda: ProfiniteInt(DivisorChain.of([2, 4]), (True, 1)),
    "cyclo-exponent-float": lambda: Cyclo(4, {1.7: 1}),
    "cyclo-coefficient-bool": lambda: Cyclo(4, {1: True}),
    "cyclo-order-bool": lambda: Cyclo(True, {0: 1}),
    "root-exponent-float": lambda: root_of_unity(1.5, 4),
    "phi-top-float-and-bool": lambda: PhiFn(DivisorChain.of([2]), [1.9, True]),
    "class-numerator-bool": lambda: GSRational(True, 2),
    "angle-bool": lambda: BDElement.shift(S23).circle_action(True),
}


@pytest.mark.parametrize("call", SLIPS.values(), ids=SLIPS.keys())
def test_constructors_refuse_floats_and_bools(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("value", [S23, DivisorChain.of([2, 6], S23), Cyclo(4, {1: 1, 3: "1/2"}),
                                   GSRational(1, 6)], ids=lambda v: type(v).__name__)
def test_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    with pytest.raises(AttributeError):
        twin.extra = 1


def test_any_infinite_float_is_an_infinite_exponent():
    # pickle gives a new inf object, so INF is matched by value, not identity.
    twin = pickle.loads(pickle.dumps(S23))
    assert twin * SupernaturalNumber.of({5: 1}) == S23 * SupernaturalNumber.of({5: 1})
    assert SupernaturalNumber.of({2: float("inf")}) == SupernaturalNumber.of({2: "inf"})
    assert SupernaturalNumber.of({2: numpy.inf}).factors[0][1] is INF


@pytest.mark.parametrize("module", ["bdalg.supernatural", "bdalg.homalg", "bdalg.verify"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_is_prime_matches_sieve():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [q for q in range(n) if is_prime(q)] == [q for q in range(n) if sieve[q]]


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383, 341550071728321,
                               3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_prime_and_limit():
    assert is_prime(10 ** 18 + 3)
    assert SupernaturalNumber.of({10 ** 18 + 3: 1}).gcd(2 * (10 ** 18 + 3)) == 10 ** 18 + 3
    # psi_13: the first strong pseudoprime to every base 2..41
    with pytest.raises(ValueError, match="too large"):
        SupernaturalNumber.of({3317044064679887385961981: 1})


def test_prime_index_matches_counting():
    count = 0
    for q in range(20_000):
        if is_prime(q):
            count += 1
            assert prime_index(q) == count


def test_prime_index_limit():
    assert prime_index(10 ** 7) == 664_579  # pi(10^7); the limit itself is counted
    with pytest.raises(ValueError, match="too large"):
        prime_index(10_000_019)
    with pytest.raises(ValueError, match="too large"):
        SupernaturalNumber.of({10_000_019: INF}).divisor_chain(1)
