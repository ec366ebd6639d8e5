import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bdalg import FGAbelianGroup, IntMatrix, ext1_hom, homalg, smith_normal_form

from oracles import determinantal_divisors


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


def test_diagonal_matches_determinantal_divisors():
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        delta = determinantal_divisors(rows)
        want = [delta[k] // delta[k - 1] if delta[k - 1] else 0
                for k in range(1, len(delta))]
        assert smith_normal_form(IntMatrix.from_rows(rows))[1].diagonal() == want


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_ext_matches_snf_diagonal(A):
    diag = [d for d in smith_normal_form(A)[1].diagonal() if d]
    assert ext1_hom(A) == (FGAbelianGroup(A.rows - len(diag)),
                           FGAbelianGroup(0, tuple(d for d in diag if d >= 2)))


def test_snf_large_entries():
    rng = random.Random(30)
    A = IntMatrix.from_rows([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(30)]
                             for _ in range(30)])
    U, D, V = smith_normal_form(A)
    assert U * A * V == D
    assert abs(U.determinant()) == 1
    assert abs(V.determinant()) == 1
    diag = D.diagonal()
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert math.prod(diag) == abs(A.determinant())


def _golden_corpus():
    """Seeded matrices whose normal forms are pinned by digest below.

    Every shape up to 7 x 7 comes three ways: with about a third of its rows
    and columns zeroed, as a product through a smaller inner size (rank
    deficient), and with sparse entries that are multiples of 2 and 6, where a
    pivot often fails to divide the rest and a row is pulled in.  Then
    25 x 25 and 30 x 30 draws from [-20, 20], as in the benchmark, and the
    matrix of test_snf_large_entries.
    """
    rng = random.Random(13)
    out = []
    for m in range(8):
        for n in range(8):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            for i in rng.sample(range(m), m // 3):
                rows[i] = [0] * n
            for j in rng.sample(range(n), n // 3):
                for r in rows:
                    r[j] = 0
            out.append((m, n, rows))
            k = rng.randrange(min(m, n)) if min(m, n) else 0
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            out.append((m, n, [[sum(left[i][t] * right[t][j] for t in range(k))
                                for j in range(n)] for i in range(m)]))
            out.append((m, n, [[rng.choice((0, 0, 0, 2, 6)) * rng.randint(-3, 3)
                                for _ in range(n)] for _ in range(m)]))
    for n in (25, 25, 30, 30, 30):
        out.append((n, n, [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]))
    big = random.Random(30)
    out.append((30, 30, [[big.randint(-10 ** 6, 10 ** 6) for _ in range(30)]
                         for _ in range(30)]))
    return [IntMatrix(m, n, tuple(map(tuple, rows))) for m, n, rows in out]


def _digest(docs) -> str:
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of the output of 49949e5, the last commit before the active-block
# elimination; that rewrite keeps every pivot and every row and column
# operation, so U, D and V stay byte-identical.
GOLDEN_SNF = "ba7f05b5dd84e0d8044128c7d1a1b0b5de4d0a68ca03643bed37fc6b054dc982"
GOLDEN_EXT = "d08c8195c13829ab149b6b3221a25660ded74812a2db900ac2b817f67fa42ca8"


def test_normal_forms_are_byte_identical_to_the_pinned_digest():
    corpus = _golden_corpus()
    assert _digest([[m.to_json() for m in smith_normal_form(a)] for a in corpus]) == GOLDEN_SNF
    assert _digest([[g.to_json() for g in ext1_hom(a)] for a in corpus]) == GOLDEN_EXT


@pytest.mark.parametrize("bad", [1.7, 2.0, True, "3"])
def test_from_rows_refuses_inexact_entries(bad):
    with pytest.raises(ValueError, match="non-integer"):
        IntMatrix.from_rows([[1, bad]])


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


def _scaled_product(rng, diag, c=1):
    """c * P * diag * Q with P and Q random unimodular."""
    n = len(diag)
    mid = IntMatrix.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    prod = _random_unimodular(rng, n) * mid * _random_unimodular(rng, n)
    return IntMatrix.from_rows([[c * x for x in r] for r in prod.entries])


def _ext_branch_cases():
    """One matrix per branch of ext1_hom: (name, matrix, path), where path is
    "certificate" (determinant and minors alone), "local" (an elimination
    over Z/p^e as well) or "fallback" (the Euclidean elimination)."""
    rng = random.Random(15)
    near = 1048573 * 1048583  # two primes near 2^20
    return [
        ("30x30", IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(30)]
                                       for _ in range(30)]), "certificate"),
        ("g=1", _scaled_product(rng, [1, 1, 1, 1, 7]), "certificate"),
        ("non-cyclic p=2", _scaled_product(rng, [1, 1, 1, 1, 2, 2]), "certificate"),
        ("non-cyclic p=3", _scaled_product(rng, [1, 1, 1, 3, 3]), "certificate"),
        ("prime power", _scaled_product(rng, [1, 1, 1, 4, 8]), "certificate"),
        ("p divides the shared minor", _scaled_product(rng, [1, 1, 2, 2, 2, 2]), "local"),
        ("multiple of 6", _scaled_product(rng, [1, 1, 1, 5], c=6), "local"),
        ("singular", _scaled_product(rng, [1, 2, 0, 3]), "fallback"),
        ("non-square", IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)]
                                            for _ in range(3)]), "fallback"),
        ("1x1", IntMatrix.from_rows([[-12]]), "fallback"),
        ("2x2", IntMatrix.from_rows([[4, 6], [2, 8]]), "certificate"),
        ("3x3, g above the bound", _scaled_product(rng, [1, 1, 2], c=near), "certificate"),
        ("4x4, g above the bound", _scaled_product(rng, [1, 1, 1, 2], c=near), "fallback"),
    ]


@pytest.mark.parametrize("name,a,path", _ext_branch_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_ext_matches_the_euclidean_diagonal_on_each_branch(monkeypatch, name, a, path):
    calls = {"local": 0, "fallback": 0}

    def spy(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(homalg, "_local_valuations", spy("local", homalg._local_valuations))
    monkeypatch.setattr(homalg, "_diagonalize", spy("fallback", homalg._diagonalize))
    hom, ext = ext1_hom(a)
    assert (bool(calls["local"]), bool(calls["fallback"])) == (path == "local", path == "fallback")
    monkeypatch.undo()
    diag = homalg._diagonalize([list(r) for r in a.entries], [[] for _ in range(a.cols)],
                               a.rows, a.cols)
    assert (hom, ext) == (FGAbelianGroup(a.rows - len(diag)),
                          FGAbelianGroup(0, tuple(d for d in diag if d >= 2)))


def test_product_keeps_declared_shape():
    prod = IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 2)
    assert (prod.rows, prod.cols) == (0, 2)
    assert IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (0, 1)])
def test_snf_of_empty_shapes(rows, cols):
    A = IntMatrix.zeros(rows, cols)
    U, D, V = smith_normal_form(A)
    assert (D.rows, D.cols) == (rows, cols)
    assert U * A * V == D


def test_sides_above_the_cap_are_refused_before_any_row_is_built():
    side = homalg._MAX_SIDE
    assert IntMatrix.from_json({"rows": side, "cols": 0, "entries": []}).rows == side
    assert IntMatrix.zeros(0, side).cols == side
    for rows, cols in ((side + 1, 0), (0, side + 1), (10 ** 9, 0), (0, 10 ** 18)):
        with pytest.raises(ValueError, match="from 0 to"):
            IntMatrix.from_json({"rows": rows, "cols": cols, "entries": []})
        with pytest.raises(ValueError, match="from 0 to"):
            IntMatrix.zeros(rows, cols)
        with pytest.raises(ValueError, match="from 0 to"):
            IntMatrix(rows, cols, [])


def test_determinant():
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)]).determinant() == 1
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


@pytest.mark.parametrize("rows,cols", [(True, 1), (1, False), (1.0, 1), ("1", 1), (-1, 1)])
def test_matrix_refuses_inexact_dimensions(rows, cols):
    with pytest.raises(ValueError, match="dimensions"):
        IntMatrix(rows, cols, ((1,),))


class _Uncuttable(list):
    """An entry list that fails if it is cut into rows."""

    def __getitem__(self, i):
        raise AssertionError("entries were cut before their count was checked")


def test_matrix_document_checks_the_entry_count_before_any_row():
    # A 10^9-row declaration with one entry must be refused before O(rows) work;
    # an entry list that cannot be cut fails at once, not after 10^9 allocations.
    with pytest.raises(ValueError, match="rows\\*cols"):
        IntMatrix.from_json({"rows": 10 ** 9, "cols": 1, "entries": _Uncuttable([1])})


def test_matrix_from_lists_equals_matrix_from_tuples():
    A = IntMatrix(2, 2, [[1, 2], [3, 4]])
    B = IntMatrix.from_rows([(1, 2), (3, 4)])
    assert A == B and hash(A) == hash(B)
    assert A.entries == ((1, 2), (3, 4))
    for bad in (5, "ab", [5, 6], {(1, 2): 0}):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, bad)


def test_group_from_list_equals_group_from_tuple():
    g = FGAbelianGroup(0, [2, 4])
    assert g == FGAbelianGroup(0, (2, 4)) and hash(g) == hash(FGAbelianGroup(0, (2, 4)))
    assert g.torsion == (2, 4)
    for bad in (4, "24", {2: 4}):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, bad)
