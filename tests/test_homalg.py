import random

import pytest
from hypothesis import given, settings, strategies as st

from bdalg import FGAbelianGroup, IntMatrix, ext1_hom, smith_normal_form


def test_snf_single_entry():
    U, D, V = smith_normal_form(IntMatrix.from_rows([[6]]))
    assert D.diagonal() == [6]
    assert U * IntMatrix.from_rows([[6]]) * V == D


def test_snf_diag_2_3():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    U, D, V = smith_normal_form(A)
    assert D.diagonal() == [1, 6]
    assert U * A * V == D


def test_snf_2x2():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(A)
    assert D.diagonal() == [2, 4]
    assert U * A * V == D
    assert abs(U.determinant()) == 1
    assert abs(V.determinant()) == 1


def test_snf_deterministic():
    A = IntMatrix.from_rows([[3, 1, -4], [0, 2, 8], [7, -5, 1]])
    assert smith_normal_form(A) == smith_normal_form(A)


matrices = st.builds(
    lambda rows: IntMatrix.from_rows(rows),
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=1, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(A):
    U, D, V = smith_normal_form(A)
    assert U * A * V == D
    assert abs(U.determinant()) == 1
    assert abs(V.determinant()) == 1
    diag = D.diagonal()
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.entries[i][j] == 0
    nonzero = [d for d in diag if d != 0]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # after the first zero on the diagonal everything stays zero
    if 0 in diag:
        assert all(d == 0 for d in diag[diag.index(0):])


def test_ext_cyclic():
    for n in (2, 5, 12, 97):
        hom, ext = ext1_hom(IntMatrix.from_rows([[n]]))
        assert hom == FGAbelianGroup(0)
        assert ext == FGAbelianGroup(0, (n,))


def test_ext_free():
    hom, ext = ext1_hom(IntMatrix.zeros(2, 2))
    assert hom == FGAbelianGroup(2)
    assert ext == FGAbelianGroup(0)


def test_ext_block():
    hom, ext = ext1_hom(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert ext == FGAbelianGroup(0, (6,))


def _canonical_torsion(torsion):
    if not torsion:
        return ()
    diag = [[torsion[i] if i == j else 0 for j in range(len(torsion))]
            for i in range(len(torsion))]
    _, ext = ext1_hom(IntMatrix.from_rows(diag))
    return ext.torsion


def test_ext_direct_sum():
    rng = random.Random(7)
    for _ in range(40):
        m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
        m2, n2 = rng.randint(1, 3), rng.randint(1, 3)
        A = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n1)]
                                 for _ in range(m1)])
        B = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n2)]
                                 for _ in range(m2)])
        block = IntMatrix.from_rows(
            [list(r) + [0] * n2 for r in A.entries]
            + [[0] * n1 + list(r) for r in B.entries])
        _, ext_block = ext1_hom(block)
        _, ea = ext1_hom(A)
        _, eb = ext1_hom(B)
        assert ext_block.torsion == _canonical_torsion(ea.torsion + eb.torsion)


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
    return IntMatrix.from_rows(m)


def test_ext_stable_under_unimodular_changes():
    rng = random.Random(9)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(m)])
        P = _random_unimodular(rng, m)
        Q = _random_unimodular(rng, n)
        assert ext1_hom(P * A * Q) == ext1_hom(A)


def test_determinant():
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.identity(4).determinant() == 1
    assert IntMatrix.zeros(3, 3).determinant() == 0
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).determinant()


def test_serialization():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    obj = A.to_json()
    assert obj == {"rows": 2, "cols": 2, "entries": [1, 2, 3, 4]}
    assert IntMatrix.from_json(obj) == A
    with pytest.raises(ValueError):
        IntMatrix.from_json({"rows": 2, "cols": 2, "entries": [1]})
    g = FGAbelianGroup(1, (2, 4))
    assert FGAbelianGroup.from_json(g.to_json()) == g
    for bad in ({"rank": True, "torsion": []}, {"rank": 0, "torsion": [2, True]},
                {"rank": 0, "torsion": [2.0]}, {"rank": 0, "torsion": 4}):
        with pytest.raises(ValueError):
            FGAbelianGroup.from_json(bad)
    with pytest.raises(ValueError):
        IntMatrix.from_json({"rows": 1, "cols": 1, "entries": [2.5]})
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))
