import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bdalg import (BDElement, Cyclo, INF, LocConstFn, SupernaturalNumber,
                   character, operator_norm, root_of_unity, spectrum_sample)
from bdalg import bd_algebra
from bdalg.verify import _TWO_PEAKS, _grid_top, rand_bd

from oracles import (apply_to_basis, columns_equal, compose_on_basis, entry, sup_norm, symbol,
                     symbol_product, symbol_star, symbol_sum)

S = SupernaturalNumber.of({2: INF, 3: INF})
U = BDElement.shift(S)
CHI2 = character(2, 1)
CHI4 = character(4, 1)
F = LocConstFn([Fraction(1, 2), 3])
G = LocConstFn([2, Fraction(1, 3)])


def test_mul_against_basis_oracle():
    a = BDElement(S, {1: CHI2})
    prod = a * a
    for k in range(-8, 9):
        assert columns_equal(apply_to_basis(prod, k), compose_on_basis(a, a, k))
    # frozen expected value: (U M_chi2)^2 = -U^2
    assert prod == BDElement.shift(S, 2).scale(-1)


def test_mul_random_against_oracle():
    rng = random.Random(17)
    for _ in range(30):
        a = rand_bd(rng, S, (1, 2, 3, 4), max_n=3)
        b = rand_bd(rng, S, (1, 2, 6), max_n=3)
        prod = a * b
        for k in range(-8, 9):
            assert columns_equal(apply_to_basis(prod, k), compose_on_basis(a, b, k))


def test_mul_unit_and_diagonal():
    one = BDElement.one(S)
    b = BDElement(S, {0: LocConstFn([1, 2, 3]), 2: character(3, 1)})
    assert b * one == b
    assert one * b == b
    assert BDElement.mult_op(S, F) * BDElement.mult_op(S, G) == BDElement.mult_op(S, F * G)


def test_covariance_relation():
    assert BDElement.mult_op(S, F) * U == U * BDElement.mult_op(S, F.pullback(1))


# c for the scalars c * 1: zero, the rational 1, 1 on other bases, rationals,
# roots of unity and multi-term values
SCALARS = (0, 1, root_of_unity(0, 3), Cyclo(4, {0: 1}), Fraction(-2, 3), 3,
           root_of_unity(1, 4), root_of_unity(5, 12), root_of_unity(1, 3) + Fraction(1, 2),
           Cyclo(12, {1: 2, 4: Fraction(-1, 3), 7: 1}))
S_PERIODS = SupernaturalNumber.of({p: INF for p in (2, 3, 5, 7, 11)})


def test_shifts_and_scalars_multiply_as_at_the_period_of_the_other_factor():
    # a period-1 factor multiplies by scaling; given at a's period it takes the
    # pointwise product, and the two products print the same bytes
    rng = random.Random(53)
    for _ in range(40):
        a = rand_bd(rng, S_PERIODS, (rng.randint(1, 12),), max_n=4)
        factors = [BDElement.shift(S_PERIODS, n) for n in range(-5, 6)]
        factors += [BDElement(S_PERIODS, {0: LocConstFn.constant(c)}) for c in SCALARS]
        for b in factors:
            lifted = b.with_period(a.period)
            assert b.period == 1 and lifted.period == a.period
            for prod, generic in ((a * b, a * lifted), (b * a, lifted * a)):
                assert json.dumps(prod.to_json()) == json.dumps(generic.to_json())


def test_shift_products_make_no_cyclotomic_product(monkeypatch):
    calls = []
    mul = Cyclo.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counting)
    f = LocConstFn([root_of_unity(1, 12), Fraction(-1, 2), Cyclo(6, {1: 2, 4: 1})])
    mf = BDElement.mult_op(S, f)
    assert mf * U == U * BDElement.mult_op(S, f.pullback(1))
    assert U * mf == BDElement(S, {1: f})
    assert f.scale(1) is f
    assert calls == []
    mf * U.with_period(3)  # the same product at f's period: one product per value
    assert len(calls) == 3


def test_product_is_associative_and_distributive():
    rng = random.Random(19)
    for _ in range(15):
        a = rand_bd(rng, S, (1, 2), max_n=2, max_terms=2)
        b = rand_bd(rng, S, (2, 4), max_n=2, max_terms=2)
        c = rand_bd(rng, S, (1, 3), max_n=2, max_terms=2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_adjoint():
    assert U.adjoint() == BDElement(S, {-1: LocConstFn.constant(1)})
    assert BDElement.mult_op(S, F).adjoint() == BDElement.mult_op(S, F.conj())
    # (U M_chi4)* = U^-1 M_g with g = zeta_4 * conj(chi4), checked by hand
    adj = BDElement(S, {1: CHI4}).adjoint()
    assert adj == BDElement(S, {-1: CHI4.conj().scale(root_of_unity(1, 4))})
    # basis-window oracle: <E_i, a* E_j> = conj(<E_j, a E_i>)
    a = BDElement(S, {1: CHI4, 0: F, -2: G})
    astar = a.adjoint()
    for i in range(-6, 7):
        for j in range(-6, 7):
            assert entry(astar, i, j) == entry(a, j, i).conj()


def test_adjoint_involutive_antimultiplicative():
    rng = random.Random(23)
    for _ in range(20):
        a = rand_bd(rng, S, (1, 2, 4), max_n=2)
        b = rand_bd(rng, S, (1, 3), max_n=2)
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_delta_label():
    assert U.delta_label() == U
    assert BDElement.mult_op(S, F).delta_label() == BDElement.zero(S)
    c = BDElement(S, {-2: F})
    assert c.delta_label() == c.scale(-2)


def test_delta_leibniz():
    rng = random.Random(29)
    for _ in range(30):
        a = rand_bd(rng, S, (1, 2, 3), max_n=3)
        b = rand_bd(rng, S, (1, 2, 6), max_n=3)
        assert (a * b).delta_label() == a * b.delta_label() + a.delta_label() * b


def test_circle_action():
    assert U.circle_action(Fraction(1, 2)) == U.scale(-1)
    assert BDElement.mult_op(S, F).circle_action(Fraction(1, 3)) == BDElement.mult_op(S, F)
    u2f = BDElement(S, {2: F})
    assert u2f.circle_action(Fraction(1, 4)) == u2f.scale(-1)


def test_circle_action_is_automorphism():
    rng = random.Random(31)
    theta = Fraction(1, 3)
    for _ in range(10):
        a = rand_bd(rng, S, (1, 2), max_n=2)
        b = rand_bd(rng, S, (1, 3), max_n=2)
        assert (a * b).circle_action(theta) == a.circle_action(theta) * b.circle_action(theta)
        assert a.circle_action(theta).adjoint() == a.adjoint().circle_action(theta)


def test_fourier_equivariance():
    rng = random.Random(37)
    theta = Fraction(2, 5)
    for _ in range(15):
        b = rand_bd(rng, S, (1, 2, 4), max_n=3)
        rb = b.circle_action(theta)
        for n in range(-3, 4):
            assert rb.fourier_coefficient(n) == \
                b.fourier_coefficient(n).scale(root_of_unity(2 * n, 5))


def test_fourier_coefficient():
    b = BDElement(S, {1: F, 0: G})
    assert b.fourier_coefficient(1) == F
    assert b.fourier_coefficient(5).is_zero()
    assert b.fourier_coefficient(0) == G


def test_fourier_reconstruction():
    rng = random.Random(41)
    for _ in range(30):
        b = rand_bd(rng, S, (1, 2, 3, 4, 6), max_n=4)
        rebuilt = BDElement(S, {n: b.fourier_coefficient(n) for n in b.support})
        assert rebuilt == b


def test_symbol_shift():
    sym = BDElement(S, {1: LocConstFn.constant(1, 2)}).matrix_symbol()
    assert sym == [[{}, {1: 1}], [{0: 1}, {}]]


def test_symbol_diagonal():
    sym = BDElement.mult_op(S, CHI2).matrix_symbol()
    assert sym == [[{0: 1}, {}], [{}, {0: -1}]]


def test_symbol_u_squared():
    sym = BDElement(S, {2: LocConstFn.constant(1, 2)}).matrix_symbol()
    assert sym == [[{1: 1}, {}], [{}, {1: 1}]]


def test_symbol_star_homomorphism():
    rng = random.Random(43)
    for _ in range(15):
        a = rand_bd(rng, S, (2, 4), max_n=3)
        b = rand_bd(rng, S, (1, 4), max_n=3)
        l = math.lcm(a.period, b.period)
        al, bl = a.with_period(l), b.with_period(l)
        assert al.matrix_symbol() == symbol(al) and bl.matrix_symbol() == symbol(bl)
        assert (a * b).with_period(l).matrix_symbol() == symbol_product(symbol(al), symbol(bl))
        assert a.adjoint().matrix_symbol() == symbol_star(symbol(a))
        assert (a + b).with_period(l).matrix_symbol() == symbol_sum(symbol(al), symbol(bl))


def test_symbol_skips_zero_values():
    # 1 + zeta_2 is zero with raw terms: the element equals the one with value 0
    # there, and both have the same symbol, without an entry for the zero
    zero = Cyclo.from_json({"order": 2, "terms": [[0, "1"], [1, "1"]]})
    a = BDElement(S, {1: LocConstFn([zero, 3])})
    b = BDElement(S, {1: LocConstFn([0, 3])})
    assert a == b
    assert a.matrix_symbol() == b.matrix_symbol() == [[{}, {1: 3}], [{}, {}]]


def test_norm_diagonal_exact():
    rep = operator_norm(BDElement.mult_op(S, LocConstFn([1, -2])))
    assert rep.value == 2.0
    assert rep.kind == "exact"
    assert rep.window == (2.0, 2.0)


def test_norm_u_plus_uinv():
    rep = operator_norm(U + U.adjoint(), grid=1024)
    assert rep.kind == "grid-estimate"
    assert abs(rep.value - 2.0) < 1e-6
    assert rep.window == (1.0, 2.0)


def test_sampling_uses_module_numpy(monkeypatch):
    # numpy loads on first use and is read from bd_algebra.np, so a wrapper
    # assigned there sees every linear-algebra call; labels {0, 1} at period 2
    # leave one 2 x 2 block, which reaches LAPACK (1 x 1 blocks do not)
    calls = []
    a = BDElement(S, {0: CHI2, 1: LocConstFn.constant(1)})

    class Linalg:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np.linalg, name)

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(bd_algebra, "np", Numpy())
    operator_norm(a, grid=16)
    spectrum_sample(a, grid=16)
    assert calls == ["eigvalsh", "eigvals"]


def _record_linalg_shapes(monkeypatch) -> list:
    """Wrap bd_algebra.np.linalg, as the benchmark tracer does, and return the
    list that each call appends (name, shape of the first argument) to."""
    shapes = []

    class Linalg:
        def __getattr__(self, name):
            def call(x, *args, **kw):
                shapes.append((name, x.shape))
                return getattr(np.linalg, name)(x, *args, **kw)
            return call

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(bd_algebra, "np", Numpy())
    return shapes


def test_linalg_sees_stacks_of_blocks(monkeypatch):
    # eigvalsh (of the Gram matrices) and eigvals get (matrices, s, s) stacks
    # of the l/g-sized blocks; labels (1, 5) at l = 8 are g = 4 blocks of size
    # 2, and a two-label norm samples two grid points per block, not all 16
    shapes = _record_linalg_shapes(monkeypatch)
    a = BDElement(S, {1: character(8, 1), 5: LocConstFn([2, 0, -1, 3, 1, 1, 2, 4])})
    operator_norm(a, grid=16)
    spectrum_sample(a, grid=16)
    assert shapes == [("eigvalsh", (2 * 4, 2, 2)), ("eigvals", (16, 2, 2))]


def test_each_level_is_sampled_as_its_own_blocks(monkeypatch):
    # labels (-3, 0, 1) at l = 24: g = gcd(24, 3, 4) = 1 at level 0, seeded at
    # every 8th of the 16 points and then at the 14 around the better one,
    # which leaves no point to certify; the later levels have only the labels
    # (-3, 1), so g = gcd(24, 4) = 4 blocks of size 6, each at its two
    # selected points; levels 1 and 2 share that label set, so one call
    shapes = _record_linalg_shapes(monkeypatch)
    a = BDElement(S, {-3: _big(24, 1), 0: character(24, 5), 1: _big(24, 2, 7)})
    operator_norm(a, m=2, grid=16)
    assert shapes == [("eigvalsh", (2, 24, 24)), ("eigvalsh", (14, 24, 24)),
                      ("eigvalsh", (2 * 2 * 4, 6, 6))]


def test_each_label_set_reaches_eigvalsh_once(monkeypatch):
    # labels (-1, 3) at l = 8 are g = 4 blocks of size 2 at every level: all
    # m + 1 levels are one sampling, two points per block and level, and one
    # eigvalsh call; a single label gives 1 x 1 blocks, which never reach it
    shapes = _record_linalg_shapes(monkeypatch)
    two = BDElement(S, {-1: character(8, 3), 3: LocConstFn([2, 0, -1, 3, 1, 1, 2, 4])})
    one = BDElement(S, {-3: _big(12, 1)})
    for m in range(7):
        operator_norm(two, m=m, grid=16)
        assert shapes == [("eigvalsh", ((m + 1) * 2 * 4, 2, 2))]
        shapes.clear()
        assert operator_norm(one, m=m, grid=16).value == pytest.approx((1 + 3) ** m * 34)
        assert shapes == []


def _label_corpus(seed: int, k: int) -> list:
    """48 seeded elements whose norm levels are sampled with exactly k labels:
    k labels in -7..7, and label 0 on some (their levels j >= 1), values that
    are roots of unity scaled by a Fraction, or 0."""
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.1:
            return 0
        return root_of_unity(rng.randrange(12), 12) * Fraction(rng.randint(1, 9), rng.randint(1, 4))

    out = []
    while len(out) < 48:
        l = rng.choice((1, 2, 3, 4, 6, 8, 12))
        labels = rng.sample([n for n in range(-7, 8) if n], k)
        if rng.random() < 0.25:
            labels.append(0)
        a = BDElement(S, {n: LocConstFn([value() for _ in range(l)]) for n in labels})
        if sum(1 for n in a.coeffs if n) == k:
            out.append(a)
    return out


TWO_LABEL_CORPUS = _label_corpus(67, 2)
ONE_LABEL_CORPUS = _label_corpus(71, 1)


def test_two_label_corpus_covers_the_cases():
    seen = set()
    for a in TWO_LABEL_CORPUS:
        n0, n1 = sorted(n for n in a.coeffs if n)
        s = a.period // math.gcd(a.period, n1 - n0)
        seen |= {"s = 2" if s == 2 else "s >= 3" if s >= 3 else "s = 1"}
        seen |= {"n0 n1 < 0"} if n0 * n1 < 0 else set()
        seen |= {"|n| >= l"} if max(-n0, n1) >= a.period else set()
        seen |= {"label 0"} if 0 in a.coeffs else set()
        seen |= {"a zero value"} if any(v.is_zero() for f in a.coeffs.values()
                                        for v in f.values) else set()
    assert seen == {"s = 1", "s = 2", "s >= 3", "n0 n1 < 0", "|n| >= l", "label 0",
                    "a zero value"}


def _levels_off_the_full_grid(corpus: list, grid: int, labels: tuple, rel: float = 1e-14) -> tuple:
    """(levels checked, levels off): every norm level j <= 6 of the corpus
    sampled with a number of labels in `labels`, against the maximum over
    every grid point (_grid_top), within `rel` relative."""
    checked = off = 0
    for a in corpus:
        values = bd_algebra._complex_values(a)
        parts = bd_algebra._base_norms(a, 6, grid, values)
        for j, (value, kind, eff) in enumerate(parts):
            if sum(1 for n in a.coeffs if n or not j) not in labels:
                continue
            full = _grid_top(a, eff, j, values)
            assert (kind, eff) == ("grid-estimate", max(grid, 2 * bd_algebra._max_power(a) + 1))
            off += not abs(float(value) - full) <= rel * full
            checked += 1
    return checked, off


@pytest.mark.parametrize("grid", [16, 17, 256, 1000])
def test_two_label_levels_reach_the_full_grid_maximum(grid):
    # a two-label level is sampled only at the two points per block that its
    # cycle phases select; its value is the maximum over every grid point
    checked, off = _levels_off_the_full_grid(TWO_LABEL_CORPUS, grid, (2,))
    assert checked > 200 and off == 0


def test_one_label_corpus_covers_the_cases():
    seen = set()
    for a in ONE_LABEL_CORPUS:
        (n,) = (n for n in a.coeffs if n)
        seen |= {"n < 0"} if n < 0 else set()
        seen |= {"|n| >= l"} if abs(n) >= a.period else set()
        seen |= {"label 0"} if 0 in a.coeffs else {"merged level 0"}
        seen |= {"a zero value"} if any(v.is_zero() for v in a.coeffs[n].values) else set()
    assert seen == {"n < 0", "|n| >= l", "label 0", "merged level 0", "a zero value"}


@pytest.mark.parametrize("grid", [16, 17, 256, 1000])
def test_one_label_levels_reach_the_full_grid_maximum(grid):
    # a one-label level is not sampled: it is the exact |n|^j sup |f_n|, the
    # modulus its 1 x 1 blocks have at every grid point; without label 0 that
    # reading holds level 0 too, and with it level 0 is a two-label sampling
    one, off_one = _levels_off_the_full_grid(ONE_LABEL_CORPUS, grid, (1,))
    two, off_two = _levels_off_the_full_grid(ONE_LABEL_CORPUS, grid, (2,))
    assert one > 300 and two > 10 and off_one == off_two == 0


THREE_LABEL_CORPUS = _label_corpus(73, 3)


def test_three_label_corpus_covers_the_cases():
    seen = set()
    for a in THREE_LABEL_CORPUS:
        l = a.period
        for labels in ({n for n in a.coeffs if n}, set(a.coeffs)):
            if len(labels) < 3:
                continue
            seen |= {f"{len(labels)} labels"}
            seen |= {"g > 1"} if bd_algebra._cosets(l, labels)[0] > 1 else set()
            # every column carries two powers of z, so C is empty
            if all(len({(i + n) // l for n in labels}) > 1 for i in range(l)):
                seen |= {"C empty"}
        seen |= {"a zero value"} if any(v.is_zero() for f in a.coeffs.values()
                                        for v in f.values) else set()
    assert seen == {"3 labels", "4 labels", "g > 1", "C empty", "a zero value"}


@pytest.mark.parametrize("grid", [16, 17, 256, 1000])
def test_three_label_levels_reach_the_full_grid_maximum(grid):
    # a level with three or more labels is decomposed at the seed points, at
    # the neighbours of its best one and wherever the certificate fails; its
    # value is the maximum over every grid point, bit for bit, at each m
    corpus = THREE_LABEL_CORPUS + [_TWO_PEAKS]
    checked, off = _levels_off_the_full_grid(corpus, grid, (3, 4), rel=0)
    assert checked > 200 and off == 0
    for a in corpus[::4]:
        parts = bd_algebra._base_norms(a, 6, grid)
        assert all(bd_algebra._base_norms(a, m, grid) == parts[:m + 1] for m in range(6))


def test_a_missed_peak_is_decomposed(monkeypatch):
    # level 1 of _TWO_PEAKS: 32 seed points, the 14 around the best one, and
    # the 12 around the higher peak that the certificate cannot rule out;
    # level 2 shares the seed and neighbour calls and needs 2 more, 106
    # matrices where the whole grid takes 2 * 256 (level 0, with four
    # labels, is its own sampling and makes the first two calls)
    values = bd_algebra._complex_values(_TWO_PEAKS)
    full = [_grid_top(_TWO_PEAKS, 256, j, values) for j in (1, 2)]
    shapes = _record_linalg_shapes(monkeypatch)
    parts = bd_algebra._base_norms(_TWO_PEAKS, 2, 256)
    assert [float(p[0]) for p in parts[1:]] == full
    grams = [shape for name, shape in shapes if name == "eigvalsh" and len(shape) == 3]
    assert grams[2:] == [(2 * 32, 2, 2), (2 * 14, 2, 2), (12, 2, 2), (2, 2, 2)]


def test_three_label_norm_decomposes_few_points(monkeypatch):
    # labels (-3, 0, 1) at l = 48 with unit values, as the benchmark draws
    # them: level 0 is one 48 x 48 block, decomposed at the 32 seed points, in
    # steps whose blocks and Gram matrices share _BLOCK_BYTES, and at the 14
    # around the best one; the certificate rules out the other 210 with one 4 x 4
    # Cholesky each (r = 4: columns 0, 1, 2 and 47 carry two powers of z)
    a = BDElement(S, {-3: LocConstFn([root_of_unity(i * i, 12) for i in range(48)]),
                      0: LocConstFn([root_of_unity(2 * i, 12) * (1 + i % 3) for i in range(48)]),
                      1: LocConstFn([root_of_unity(i ** 3 + 2, 12) for i in range(48)])})
    full = _grid_top(a, 256, 0, bd_algebra._complex_values(a))
    shapes = _record_linalg_shapes(monkeypatch)
    assert float(bd_algebra._base_norms(a, 0, 256)[0][0]) == full
    assert sum(shape[0] for name, shape in shapes if name == "eigvalsh") <= 64
    assert shapes == [("eigvalsh", (14, 48, 48)), ("eigvalsh", (14, 48, 48)),
                      ("eigvalsh", (4, 48, 48)), ("eigvalsh", (14, 48, 48)),
                      ("cholesky", (1, 44, 44)), ("cholesky", (1, 44, 44)),
                      ("solve", (1, 44, 44)), ("cholesky", (210, 1, 4, 4))]


def test_one_term_norms_are_their_window(monkeypatch):
    # U^n M_f has the base norms |n|^j sup |f| and the norm (1 + |n|)^m sup |f|,
    # the one point of its window: nothing is sampled, the bases are exact
    # before any clamp, and kind, grid and value are those of the sampling
    monkeypatch.setattr(bd_algebra, "_symbol_blocks", None)
    assembled = []
    assemble = bd_algebra._assemble_norm
    monkeypatch.setattr(bd_algebra, "_assemble_norm",
                        lambda parts, *args: assembled.append(parts) or assemble(parts, *args))
    for a, m in [(BDElement(S, {-3: _big(12, 1)}), 4), (BDElement(S, {2: CHI2}), 0),
                 (BDElement(S, {40: LocConstFn([3, -1])}), 1)]:
        rep = operator_norm(a, m=m, grid=16)
        n = a.support[0]
        sup = max(abs(v) for v in a.coeffs[n].values)
        want = (1 + abs(n)) ** m * sup
        assert (rep.value, rep.kind, rep.window) == (want, "grid-estimate", (want, want))
        assert [float(p[0]) for p in assembled.pop()] == [abs(n) ** j * sup for j in range(m + 1)]
        assert rep.grid == max(16, 2 * bd_algebra._max_power(a) + 1)
    with pytest.raises(ValueError, match="exceeds"):  # the sampling limit still holds
        operator_norm(BDElement(S, {1: _big(48, 1)}), m=64, grid=10 ** 6)


def test_label_zero_and_one_more_sample_level_zero_only(monkeypatch):
    # with labels {0, n} the levels j >= 1 are n^j U^n M_{f_n}: they are not
    # sampled, and are |n|^j sup |f_n| exactly; only level 0 is
    corpus = [a for a in ONE_LABEL_CORPUS if 0 in a.coeffs]
    calls = []
    blocks = bd_algebra._symbol_blocks
    monkeypatch.setattr(bd_algebra, "_symbol_blocks", lambda a, grid, first, *rest:
                        calls.append((first, len(rest[1]))) or blocks(a, grid, first, *rest))
    for a in corpus:
        (n,) = (n for n in a.coeffs if n)
        sup = Fraction(max(abs(v) for v in bd_algebra._complex_values(a)[n]))
        parts = bd_algebra._base_norms(a, 3, 256)
        assert [p[0] for p in parts[1:]] == [abs(n) ** j * sup for j in (1, 2, 3)]
        eff = max(256, 2 * bd_algebra._max_power(a) + 1)
        assert {p[1:] for p in parts} == {("grid-estimate", eff)}
        assert calls and all(call == (0, 1) for call in calls)  # level 0, one row of points
        calls.clear()
    assert len(corpus) > 5


def test_three_by_three_levels_reach_eigvalsh_at_two_points_per_block(monkeypatch):
    # labels (-3, 0, 1) at l = 12: level 0 is one 12 x 12 block, seeded at 2
    # and then 14 of the 16 points, the later levels four 3 x 3 blocks,
    # sampled from a's own coefficients without label 0 (delta(a) is not
    # built); those two labels are sampled at two points per block, and both
    # levels go to eigvalsh as one stack
    a = BDElement(S, {-3: _big(12, 1), 0: character(12, 5), 1: _big(12, 2, 7)})
    whole = np.tile(np.arange(16).repeat(4), (2, 1))  # levels 1 and 2, four blocks a point
    stacks = [b.shape for b in bd_algebra._symbol_blocks(a, 16, 1, bd_algebra._complex_values(a),
                                                         whole)]
    assert stacks == [(2 * 16 * 4, 3, 3)]
    shapes = _record_linalg_shapes(monkeypatch)
    monkeypatch.setattr(BDElement, "delta_label", None)
    operator_norm(a, m=2, grid=16)
    assert shapes == [("eigvalsh", (2, 12, 12)), ("eigvalsh", (14, 12, 12)),
                      ("eigvalsh", (2 * 2 * 4, 3, 3))]


def _sampled(a: BDElement, grid: int, first: int, points) -> np.ndarray:
    values = bd_algebra._complex_values(a)
    stacks = [stack.copy() for stack in bd_algebra._symbol_blocks(a, grid, first, values, points)]
    s = a.period // bd_algebra._cosets(a.period, [n for n in a.coeffs if n or not first])[0]
    assert all(stack.ndim == 3 and stack.shape[1:] == (s, s) for stack in stacks)
    return np.concatenate(stacks)


@pytest.mark.parametrize("grid", [16, 1000])
def test_each_sampled_block_is_the_same_wherever_it_is_asked_for(grid):
    # a matrix does not depend on the other (level, index, block) triples of
    # its call: the values of every norm level and of the full-grid reference
    # rest on it; one to four labels, periods 1 to 12, a lone 1 x 1 matrix too
    rng = np.random.default_rng(grid)
    for a in ONE_LABEL_CORPUS + TWO_LABEL_CORPUS + THREE_LABEL_CORPUS[::2]:
        for first in (0, 1):
            g = bd_algebra._cosets(a.period, [n for n in a.coeffs if n or not first])[0]
            whole = _sampled(a, grid, first, np.tile(np.arange(grid).repeat(g), (3, 1)))
            whole = whole.reshape(3, grid, g, *whole.shape[1:])
            for rows, per in ((3, 2 * g), (1, g), (2, 5 * g)):
                points = rng.integers(0, grid, (rows, per))
                want = whole[np.arange(rows)[:, None], points, np.arange(per) % g]
                got = _sampled(a, grid, first, points)
                assert got.shape == (rows * per, *want.shape[2:])
                assert got.tobytes() == want.tobytes()


def test_each_value_is_converted_once_per_norm(monkeypatch):
    # level 0 and the levels j >= 1 are two samplings; they share one
    # conversion of every value to a complex number, and so does the window
    # of operator_norm, also for a diagonal element
    a = BDElement(S, {-3: _big(24, 1), 0: character(24, 5), 1: _big(24, 2, 7)})
    diag = BDElement.mult_op(S, _big(24, 1))
    want = bd_algebra._base_norms(a, 3, 16)
    reports = [operator_norm(b, m=3, grid=16) for b in (a, diag)]
    calls = []
    to_complex = Cyclo.to_complex
    monkeypatch.setattr(Cyclo, "to_complex", lambda v: calls.append(v) or to_complex(v))
    assert bd_algebra._base_norms(a, 3, 16) == want
    assert len(calls) == 3 * 24
    calls.clear()
    assert [operator_norm(b, m=3, grid=16) for b in (a, diag)] == reports
    assert len(calls) == 4 * 24


def _stack(rng, s: int, count: int) -> np.ndarray:
    return rng.standard_normal((count, s, s)) + 1j * rng.standard_normal((count, s, s))


def _unitary(rng, s: int, count: int) -> np.ndarray:
    return np.linalg.qr(_stack(rng, s, count))[0]


def _double_pairs(rng, lam: float, mu: float) -> np.ndarray:
    """3 x 3 blocks B = V diag(sigma) Q^H, so that B^H B = Q diag(lam,
    lam (1 + eps), mu) Q^H, one per eps: the pair lam, lam (1 + eps) is the
    top of the spectrum when mu < lam and its bottom when mu > lam."""
    eps = np.array([0, 1e-9, 1e-6, 1e-4, 1e-3])
    sigma = np.sqrt(np.stack([np.full(5, lam), lam * (1 + eps), np.full(5, mu)], axis=1))
    v, q = _unitary(rng, 3, 5), _unitary(rng, 3, 5)
    return v * sigma[:, None, :] @ q.conj().swapaxes(1, 2)


@pytest.mark.parametrize("s", [2, 3, 6, 12, 24, 48])
def test_top_singular_matches_svd(s, monkeypatch):
    # sqrt(lambda_max(B^H B)) against the top singular value from LAPACK's SVD,
    # on generic, rank-1, nearly singular and all-zero blocks, weighted by up
    # to 3^6 as the derivation levels weight them
    rng = np.random.default_rng(1000 + s)
    generic = _stack(rng, s, 20)
    u, v = _stack(rng, s, 10)[:, :, :1], _stack(rng, s, 10)[:, :1, :]
    rank1 = u @ v
    near = generic[:10].copy()
    near[:, :, -1] = near[:, :, 0] * (1 + 1e-12) + 1e-14 * _stack(rng, s, 10)[:, :, 0]
    zero = np.zeros((5, s, s), dtype=complex)
    stacks = [generic, rank1, near]
    if s == 3:
        # Gram matrices with a (nearly) double top or bottom eigenvalue
        stacks += [_double_pairs(rng, 4.0, mu) for mu in (0.0, 1.0, 9.0, 25.0)]
    x = np.concatenate(stacks + [zero])
    x *= 3.0 ** rng.integers(0, 7, size=len(x))[:, None, None]
    blocks = x.reshape(5, -1, s, s)
    shapes = _record_linalg_shapes(monkeypatch)
    got = bd_algebra._top_singular(blocks, np.empty_like(blocks)).reshape(-1)
    want = np.linalg.svd(x, compute_uv=False).max(axis=-1)
    assert shapes == [("eigvalsh", (len(x), s, s))]
    assert np.isfinite(got).all()
    assert (got[-5:] == 0).all()
    assert (np.abs(got - want) <= 1e-13 * want).all()


def test_norm_u_powers_of_two():
    for m in range(7):
        rep = operator_norm(U, m=m, grid=256)
        assert abs(rep.value - 2 ** m) < 1e-9


def test_norm_methods_agree_bitwise():
    rng = random.Random(47)
    for _ in range(10):
        a = rand_bd(rng, S, (1, 2, 3), max_n=3)
        for m in (0, 2, 5):
            rb = operator_norm(a, m=m, grid=64, method="binomial")
            rr = operator_norm(a, m=m, grid=64, method="recursive")
            assert rb.value == rr.value
            assert rb.window == rr.window


def test_norm_value_lies_in_its_window():
    # both ends of the window bound the grid maximum, so the value sits inside
    # it with no slack, also where rounding overshoots the upper end
    rng = random.Random(59)
    for _ in range(30):
        a = rand_bd(rng, S, (1, 2, 3, 4, 6), max_n=4)
        for m in range(7):
            for method in ("binomial", "recursive"):
                rep = operator_norm(a, m=m, grid=64, method=method)
                assert rep.window[0] <= rep.value <= rep.window[1]
    # M_chi2 + U at m = 3, and U^2 M_chi2 with |chi2| = 1: the sampled values
    # round to 9 + 2^-49 and 1 + 2^-52 before they are clamped
    rep = operator_norm(BDElement(S, {0: CHI2, 1: LocConstFn.constant(1)}), m=3)
    assert (rep.value, rep.window) == (9.0, (8.0, 9.0))
    rep = operator_norm(BDElement(S, {2: CHI2}))
    assert (rep.value, rep.window) == (1.0, (1.0, 1.0))


def test_norm_sandwich_and_fourier_contractivity():
    rng = random.Random(53)
    for _ in range(40):
        a = rand_bd(rng, S, (1, 2, 4), max_n=4)
        rep = operator_norm(a, grid=256)
        assert rep.window[0] <= rep.value + 1e-9
        assert rep.value <= rep.window[1] + 1e-9
        for n in a.support:
            assert sup_norm(a.coeffs[n]) <= rep.value + 1e-9


def _evaluate(sym: list, grid: int) -> np.ndarray:
    """The exact symbol's entries through Cyclo.to_complex, at `grid` points."""
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    out = np.zeros((grid, len(sym), len(sym)), dtype=complex)
    for i, row in enumerate(sym):
        for j, e in enumerate(row):
            for p, c in e.items():
                out[:, i, j] += c.to_complex() * z ** p
    return out


def _reference_norm(a: BDElement, m: int, grid: int):
    """(value, kind, grid) of the M-norm from the exact symbols of delta^j(a)."""
    parts, d = [], a
    for j in range(m + 1):
        if j:
            d = d.delta_label()
        if not d.coeffs:
            parts.append((0.0, "exact", 0))
        elif d.support == (0,):
            parts.append((sup_norm(d.coeffs[0]), "exact", 0))
        else:
            sym = d.matrix_symbol()
            top = max(abs(p) for row in sym for e in row for p in e)
            eff = max(grid, 2 * top + 1)
            sv = np.linalg.svd(_evaluate(sym, eff), compute_uv=False)
            parts.append((float(sv.max()), "grid-estimate", eff))
    value = sum(math.comb(m, j) * parts[j][0] for j in range(m + 1))
    kind = "exact" if all(p[1] == "exact" for p in parts) else "grid-estimate"
    return value, kind, max(p[2] for p in parts)


def _big(l: int, scale: int, k: int = 1) -> LocConstFn:
    return LocConstFn([root_of_unity(k * i, 12) * (scale + 3 * i) for i in range(l)])


NUMERIC_CASES = [
    # labels congruent mod l, one of them 0
    BDElement(S, {1: CHI4, 5: LocConstFn([1, 2, 3, 4]), -3: F, 0: G, 4: CHI2}),
    # |n| >= l and negative labels
    BDElement(S, {-5: F, 7: CHI2, 2: G}),
    BDElement(S, {-4: character(3, 1), 3: LocConstFn([1, Fraction(-1, 2), 2])}),
    # coefficients with some zero values
    BDElement(S, {1: LocConstFn([0, 1, 0, 2]), -6: LocConstFn([root_of_unity(1, 3), 0, 0, 0]),
                  0: LocConstFn([0, 0, 3, 0])}),
    # ... and only a zero value reaches power 21, so the grid is 2 * 20 + 1
    BDElement(S, {41: LocConstFn([1, 0]), -1: CHI2}),
    # the effective grid exceeds the requested one: 2 * 40 + 1 > 16
    BDElement.shift(S, 40) + BDElement.shift(S, -3),
    # the coset layouts of the symbol's blocks, l = 8 unless said otherwise:
    # block-diagonal (g = 4, n0 = 0)
    BDElement(S, {0: LocConstFn([1, -2, 3, Fraction(1, 2), 0, 5, -1, 2]), 4: character(8, 3)}),
    # one cycle of four 2 x 2 blocks (g = 4, n0 = 1)
    BDElement(S, {1: character(8, 1), 5: LocConstFn([2, 0, -1, 3, 1, 1, Fraction(-3, 2), 4])}),
    # two cycles of length 2 (g = 4, n0 = 2)
    BDElement(S, {2: LocConstFn([1, 2, 3, 4, 5, 6, 7, 8]), 6: character(8, 5)}),
    # labels (-3, 0, 1) at l = 12: level 0 is one 12 x 12 block, the later
    # levels four 3 x 3 blocks, sampled from the coefficients without label 0
    BDElement(S, {-3: _big(12, 1), 0: character(12, 5), 1: _big(12, 2, 7)}),
    # one label at l = 6: three cycles of two 1 x 1 blocks (g = 6, n0 = 3)
    BDElement(S, {3: LocConstFn([1, -2, root_of_unity(1, 3), 4, Fraction(1, 3), -1])}),
    # exact short-circuits
    BDElement.zero(S),
    BDElement(S, {}, period=4),
    BDElement.mult_op(S, LocConstFn([1, -2, root_of_unity(1, 6)])),
]


@pytest.mark.parametrize("a", NUMERIC_CASES)
@pytest.mark.parametrize("block_bytes", [None, 1000])
def test_numeric_path_matches_exact_symbol(a, block_bytes, monkeypatch):
    if block_bytes:  # a few grid points per block, the last block partial
        monkeypatch.setattr(bd_algebra, "_BLOCK_BYTES", block_bytes)
    for grid in (16, 64):
        for m in range(5):
            value, kind, eff = _reference_norm(a, m, grid)
            for method in ("binomial", "recursive"):
                rep = operator_norm(a, m=m, grid=grid, method=method)
                assert (rep.kind, rep.grid) == (kind, eff)
                assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-300)
        # eigenvalues of a non-normal symbol move like eps^(1/k) under rounding,
        # so the spectra are compared through their characteristic polynomials
        got = np.array(spectrum_sample(a, grid=grid)).reshape(grid, a.period)
        want = np.linalg.eigvals(_evaluate(a.matrix_symbol(), grid))
        scale = (1 + sum(sup_norm(f) for f in a.coeffs.values())) ** a.period
        for g, w in zip(got, want):
            assert np.allclose(np.poly(g), np.poly(w), rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("a", [
    BDElement(S, {-1: _big(24, 1), 3: character(24, 5)}),
    BDElement(S, {-2: _big(48, 2), 2: character(48, 7), 6: _big(48, 5, 5)}),
    BDElement(S, {-3: character(48, 1), 0: _big(48, 1), 1: _big(48, 3, 7)}),
    # |f| = 10^14: a product of 48 unscaled 1 x 1 blocks overflows
    BDElement(S, {1: _big(48, 10 ** 14)}),
    BDElement(S, {1: _big(48, 10 ** 14), 25: _big(48, 10 ** 14, 5)}),
])
def test_spectrum_power_sums_match_traces(a):
    # sum_w w^p = tr A(z)^p, relative to |A(z)|^p: tight at any l, unlike the
    # characteristic polynomial, whose coefficients grow like |A|^l
    grid = 16
    got = np.array(spectrum_sample(a, grid=grid)).reshape(grid, a.period)
    assert np.isfinite(got).all()
    sym = _evaluate(a.matrix_symbol(), grid)
    norm = np.linalg.svd(sym, compute_uv=False).max(axis=1)
    power = sym
    for p in (1, 2, 3):
        err = np.abs((got ** p).sum(axis=1) - np.trace(power, axis1=1, axis2=2))
        assert (err <= 1e-11 * a.period * norm ** p).all()
        power = power @ sym


def test_norm_rejects_small_grid():
    with pytest.raises(ValueError):
        operator_norm(U, grid=8)
    # grid and m are plain integers: no float, and no bool as level 1
    diag = BDElement.mult_op(S, F)
    for kw in ({"grid": 16.5}, {"grid": 64.0}, {"grid": True}, {"m": 1.0}, {"m": True}):
        for a in (U, diag):
            with pytest.raises(ValueError):
                operator_norm(a, **kw)
    for grid in (8, 16.5, 64.0, True):
        with pytest.raises(ValueError):
            spectrum_sample(U, grid=grid)


def test_sampling_work_is_bounded():
    with pytest.raises(ValueError):
        operator_norm(U, m=65)
    # (m + 1) * grid * l^2 = 4 * 4096 * 64^2 = 2^26 is allowed, 5 * 4096 * 64^2 is not
    a = BDElement(S, {1: character(64, 1)})
    assert operator_norm(a, m=3, grid=4096).value == pytest.approx(2.0 ** 3)
    with pytest.raises(ValueError):
        operator_norm(a, m=4, grid=4096)
    with pytest.raises(ValueError):
        operator_norm(BDElement.shift(S, 10 ** 9))
    with pytest.raises(ValueError):
        spectrum_sample(U, grid=(1 << 26) + 1)
    # a diagonal element samples nothing, so any grid is allowed
    assert operator_norm(BDElement.mult_op(S, F), grid=10 ** 9).kind == "exact"
    assert operator_norm(U, m=64).value == pytest.approx(2.0 ** 64)


def test_trace():
    assert BDElement(S, {3: F}).trace().is_zero()
    assert BDElement.mult_op(S, character(6, 2)).trace().is_zero()
    kappa41 = LocConstFn([0, 1, 0, 0])
    assert BDElement.mult_op(S, kappa41).trace() == Fraction(1, 4)
    assert BDElement.one(S).trace() == 1


def test_trace_is_tracial():
    rng = random.Random(59)
    for _ in range(20):
        a = rand_bd(rng, S, (1, 2, 3), max_n=2)
        b = rand_bd(rng, S, (2, 3), max_n=2)
        assert (a * b).trace() == (b * a).trace()


def test_spectrum_samples():
    pts = spectrum_sample(BDElement.mult_op(S, CHI2), grid=16)
    rounded = {complex(round(w.real, 9), round(w.imag, 9)) for w in pts}
    assert rounded == {1 + 0j, -1 + 0j}
    for w in spectrum_sample(U, grid=32):
        assert abs(abs(w) - 1) < 1e-9
    half = (U + U.adjoint()).scale(Fraction(1, 2))
    for w in spectrum_sample(half, grid=64):
        assert abs(w.imag) < 1e-9
        assert -1 - 1e-9 <= w.real <= 1 + 1e-9


def test_period_must_divide_s():
    with pytest.raises(ValueError):
        BDElement(SupernaturalNumber.of({2: INF}), {0: LocConstFn([1, 2, 3])})


def test_serialization_roundtrip():
    a = BDElement(S, {1: CHI4, 0: F, -2: G})
    obj = json.loads(json.dumps(a.to_json()))
    assert BDElement.from_json(obj) == a
    with pytest.raises(ValueError):
        BDElement.from_json({"S": [], "coeffs": {}})


@pytest.mark.parametrize("keys", [("1", "01"), ("10", " 1_0"), ("0", "-0"), ("1", "+1"),
                                  ("2", "\u0662")])
def test_from_json_refuses_label_keys_that_are_not_canonical(keys):
    # each pair would name one label twice, and one value would be dropped
    obj = BDElement(S, {1: CHI4}).to_json()
    f = obj["coeffs"].pop("1")
    assert BDElement.from_json(dict(obj, coeffs={keys[0]: f})).support == (int(keys[0]),)
    with pytest.raises(ValueError, match="label"):
        BDElement.from_json(dict(obj, coeffs=dict.fromkeys(keys, f)))


@pytest.mark.parametrize("label", [1.5, 1.0, True, "1", np.int64(1)])
def test_constructor_refuses_labels_that_are_not_plain_integers(label):
    # int(label) would truncate 1.5 and let True overwrite the label 1
    with pytest.raises(ValueError, match="label"):
        BDElement(S, {label: CHI4, 1: LocConstFn([2])})


def test_from_json_checks_containers():
    good = BDElement(S, {1: CHI4}).to_json()
    for key, bad in (("coeffs", []), ("coeffs", None), ("period", "4"), ("period", True),
                     ("period", 0)):
        with pytest.raises(ValueError):
            BDElement.from_json(dict(good, **{key: bad}))
