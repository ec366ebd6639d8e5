import pytest

from bdalg import DivisorChain, INF, ProfiniteInt, SupernaturalNumber

CH24 = DivisorChain.of([2, 4])
CH8 = DivisorChain.of([2, 4, 8])
CH246 = DivisorChain.of([2, 6, 24])


def test_embed_digits():
    assert CH24.embed(7).digits == (1, 1)
    assert CH24.embed(0).digits == (0, 0)
    assert CH24.embed(-1).digits == (1, 1)  # -1 = 3 mod 4


def test_from_residue():
    assert CH246.from_residue(11, 24).digits == (1, 2, 1)
    assert CH246.from_residue(0, 24).digits == (0, 0, 0)
    assert CH246.from_residue(23, 24).digits == (1, 2, 3)
    with pytest.raises(ValueError):
        CH246.from_residue(3, 6)


def test_residue():
    x = CH24.embed(7)
    assert x.residue(2) == 1
    assert ProfiniteInt(CH24, (1, 1)).residue(4) == 3
    assert x.residue(1) == 0
    with pytest.raises(ValueError):
        x.residue(3)


def test_residue_tower_compatibility():
    x = CH246.embed(17)
    for l in (1, 2, 3, 4, 6, 8, 12, 24):
        for k in (d for d in range(1, l + 1) if l % d == 0):
            assert x.residue(k) == x.residue(l) % k


def test_ring_homomorphism():
    assert (CH8.embed(3) + CH8.embed(5)) == CH8.embed(8)
    assert (CH8.embed(3) * CH8.embed(5)) == CH8.embed(15)
    assert (CH8.embed(-1) + CH8.embed(1)) == CH8.embed(0)
    assert -CH8.embed(3) == CH8.embed(-3)


def test_chain_mismatch():
    with pytest.raises(ValueError):
        CH8.embed(1) + CH24.embed(1)


def test_shift():
    for k in range(-3, 4):
        assert CH8.embed(k).shift(1) == CH8.embed(k + 1)
    x = CH8.embed(5)
    assert x.shift(8).digits == x.digits
    for l in (2, 4, 8):
        assert x.shift(1).residue(l) == (x.residue(l) + 1) % l


def test_digit_residue_roundtrip():
    for r in range(24):
        x = CH246.from_residue(r)
        assert CH246.from_residue(x.residue(24)) == x


def test_crt_reconstruction():
    """Residues at prime power divisors determine every residue mod l <= 24."""
    from math import prod
    from bdalg.supernatural import factorize

    for r in range(24):
        x = CH246.from_residue(r)
        for l in (d for d in range(2, 25) if 24 % d == 0):
            parts = {p ** e: x.residue(p ** e) for p, e in factorize(l).items()}
            # brute-force CRT: the unique value mod l matching all residues
            matches = [v for v in range(l)
                       if all(v % q == rv for q, rv in parts.items())]
            assert matches == [x.residue(l)]


def test_density_surrogate():
    """Every top residue is hit by an embedded integer 0 <= x < top."""
    for levels in ([2, 4], [2, 6, 24], [3, 9], [2, 4, 8, 48]):
        chain = DivisorChain.of(levels)
        hit = {chain.embed(x).value() for x in range(chain.top)}
        assert hit == set(range(chain.top))


def test_orbit_visits_every_residue():
    for levels in ([2, 4, 8], [2, 6, 12]):
        chain = DivisorChain.of(levels)
        x = chain.zero()
        seen = []
        for _ in range(chain.top):
            seen.append(x.value())
            x = x.shift(1)
        assert sorted(seen) == list(range(chain.top))
        assert x == chain.zero()


def test_chain_validation():
    with pytest.raises(ValueError):
        DivisorChain.of([4, 2])
    with pytest.raises(ValueError):
        DivisorChain.of([2, 3])
    with pytest.raises(ValueError):
        DivisorChain.of([2, 4], SupernaturalNumber.of({3: INF}))
    DivisorChain.of([2, 4], SupernaturalNumber.of({2: INF}))


def test_digit_bounds_enforced():
    with pytest.raises(ValueError):
        ProfiniteInt(CH24, (2, 0))
    with pytest.raises(ValueError):
        ProfiniteInt(CH24, (0,))


def test_serialization_roundtrip():
    x = CH246.from_residue(11)
    obj = x.to_json()
    assert obj == {"chain": [2, 6, 24], "digits": [1, 2, 1]}
    assert ProfiniteInt.from_json(obj) == x
    with pytest.raises(ValueError):
        ProfiniteInt.from_json({"chain": [2, 4]})


@pytest.mark.parametrize("x", [True, False, 2.0, 1.5])
def test_embed_and_shift_refuse_arguments_that_are_not_ints(x):
    # True % top is the int 1, so embed(True) was the element 1 and shift(True) added 1
    with pytest.raises(ValueError, match="non-integer argument"):
        CH24.embed(x)
    with pytest.raises(ValueError, match="non-integer shift"):
        CH24.embed(1).shift(x)
    assert CH24.embed(5).shift(-2) == CH24.embed(3)
