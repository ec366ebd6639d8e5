import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bdalg import (BDElement, Cyclo, INF, LocConstFn, SupernaturalNumber,
                   character, operator_norm, root_of_unity, spectrum_sample)
from bdalg import bd_algebra
from bdalg.verify import rand_bd

from oracles import (apply_to_basis, columns_equal, compose_on_basis, entry, symbol,
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
    # labels (-3, 0, 1) at l = 24: g = gcd(24, 3, 4) = 1 at level 0, sampled at
    # all 16 points, but the later levels have only the labels (-3, 1), so
    # g = gcd(24, 4) = 4 blocks of size 6, each at its two selected points
    shapes = _record_linalg_shapes(monkeypatch)
    a = BDElement(S, {-3: _big(24, 1), 0: character(24, 5), 1: _big(24, 2, 7)})
    operator_norm(a, m=2, grid=16)
    assert shapes == [("eigvalsh", (16, 24, 24))] + [("eigvalsh", (2 * 4, 6, 6))] * 2


def _two_label_corpus() -> list:
    """Seeded elements whose norm levels are sampled with exactly two labels:
    two labels in -7..7, and a third label 0 on some (their levels j >= 1),
    values that are roots of unity scaled by a Fraction, or 0."""
    rng = random.Random(67)

    def value():
        if rng.random() < 0.1:
            return 0
        return root_of_unity(rng.randrange(12), 12) * Fraction(rng.randint(1, 9), rng.randint(1, 4))

    out = []
    while len(out) < 48:
        l = rng.choice((1, 2, 3, 4, 6, 8, 12))
        labels = rng.sample([n for n in range(-7, 8) if n], 2)
        if rng.random() < 0.25:
            labels.append(0)
        a = BDElement(S, {n: LocConstFn([value() for _ in range(l)]) for n in labels})
        if sum(1 for n in a.coeffs if n) == 2:
            out.append(a)
    return out


TWO_LABEL_CORPUS = _two_label_corpus()


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


@pytest.mark.parametrize("grid", [16, 17, 256, 1000])
def test_two_label_levels_reach_the_full_grid_maximum(grid):
    # a two-label level is sampled only at the two points per block that its
    # cycle phases select; its value is the maximum over every grid point
    checked = 0
    for a in TWO_LABEL_CORPUS:
        parts = bd_algebra._base_norms(a, 6, grid)
        for j, (value, kind, eff) in enumerate(parts):
            if sum(1 for n in a.coeffs if n or not j) != 2:
                continue
            full = 0.0
            for _, block in bd_algebra._symbol_blocks(a, eff, j + 1, j):
                full = max(full, float(bd_algebra._top_singular(block, np.empty_like(block)).max()))
            assert (kind, eff) == ("grid-estimate", max(grid, 2 * bd_algebra._max_power(a) + 1))
            assert abs(float(value) - full) <= 1e-14 * full
            checked += 1
    assert checked > 200


def test_three_by_three_levels_skip_eigvalsh(monkeypatch):
    # labels (-3, 0, 1) at l = 12: level 0 is one 12 x 12 block, the later
    # levels four 3 x 3 blocks, sampled from a's own coefficients without
    # label 0 (delta(a) is not built); their top eigenvalues come in closed
    # form, and none of these is nearly double, so only level 0 reaches eigvalsh
    a = BDElement(S, {-3: _big(12, 1), 0: character(12, 5), 1: _big(12, 2, 7)})
    levels = [(j, b.shape) for j, b in bd_algebra._symbol_blocks(a, 16, 3, first=1)]
    assert levels == [(1, (16, 4, 3, 3)), (2, (16, 4, 3, 3))]
    shapes = _record_linalg_shapes(monkeypatch)
    monkeypatch.setattr(BDElement, "delta_label", None)
    operator_norm(a, m=2, grid=16)
    assert shapes == [("eigvalsh", (16, 12, 12))]


def test_each_value_is_converted_once_per_norm(monkeypatch):
    # level 0 and the levels j >= 1 are two samplings; they share one
    # conversion of every value to a complex number
    a = BDElement(S, {-3: _big(24, 1), 0: character(24, 5), 1: _big(24, 2, 7)})
    want = bd_algebra._base_norms(a, 3, 16)
    calls = []
    to_complex = Cyclo.to_complex
    monkeypatch.setattr(Cyclo, "to_complex", lambda v: calls.append(v) or to_complex(v))
    assert bd_algebra._base_norms(a, 3, 16) == want
    assert len(calls) == 3 * 24


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
        # the closed form for 3 x 3 Gram matrices loses digits where the top
        # eigenvalue is (nearly) double, so exactly those 10 go to eigvalsh;
        # a double bottom pair keeps the closed form
        stacks += [_double_pairs(rng, 4.0, mu) for mu in (0.0, 1.0, 9.0, 25.0)]
    x = np.concatenate(stacks + [zero])
    x *= 3.0 ** rng.integers(0, 7, size=len(x))[:, None, None]
    blocks = x.reshape(5, -1, s, s)
    shapes = _record_linalg_shapes(monkeypatch)
    got = bd_algebra._top_singular(blocks, np.empty_like(blocks)).reshape(-1)
    want = np.linalg.svd(x, compute_uv=False).max(axis=-1)
    assert shapes == [("eigvalsh", (10, 3, 3) if s == 3 else (len(x), s, s))]
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
            assert a.coeffs[n].sup_norm() <= rep.value + 1e-9


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
            parts.append((d.coeffs[0].sup_norm(), "exact", 0))
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
    # and normed by the closed form
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
        scale = (1 + sum(f.sup_norm() for f in a.coeffs.values())) ** a.period
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
