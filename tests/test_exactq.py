import os
import random
import subprocess
import sys

import pytest

import sigvol

from sigvol.exactq import (
    MatrixBuilder,
    SparseMatrixQ,
    SubspaceQ,
    add_scaled,
    combine,
    det_q,
    intersect,
    nullspace,
    qq,
    rank,
    sum_spaces,
)


def dense_nullspace_oracle(rows, ncols):
    """Naive dense Gaussian elimination over QQ, written independently."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        prow = None
        for rr in range(r, len(m)):
            if m[rr][c] != 0:
                prow = rr
                break
        if prow is None:
            continue
        m[r], m[prow] = m[prow], m[r]
        inv = qq(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c] != 0:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [qq(0)] * ncols
        vec[f] = qq(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
        basis.append(vec)
    return basis


def random_matrix(rng, nrows, ncols, density=0.6):
    return [
        [
            qq(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else qq(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def test_identity_has_trivial_nullspace():
    m = SparseMatrixQ.from_rows([[1, 0], [0, 1]])
    assert nullspace(m).dim == 0


def test_rank_one_matrix_kernel():
    m = SparseMatrixQ.from_rows([[1, 2], [2, 4]])
    ns = nullspace(m)
    # span{(-2, 1)} in reduced echelon form
    assert ns.dense_basis() == [[qq(1), qq(-1, 2)]]


def test_nullspace_against_dense_oracle():
    rng = random.Random(7)
    rows = random_matrix(rng, 6, 10)
    ns = nullspace(SparseMatrixQ.from_rows(rows))
    oracle = dense_nullspace_oracle(rows, 10)
    assert ns.dim == len(oracle)
    for vec in oracle:
        assert ns.contains({i: v for i, v in enumerate(vec) if v != 0})
    for vec in ns.dense_basis():
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_modular_and_exact_paths_agree():
    # the integer fraction-free path that replaced the modular one must give
    # the same canonical subspace as rational Gauss-Jordan, wide and tall
    rng = random.Random(17)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
        rows = random_matrix(rng, nrows, ncols, 0.5)
        expected = SubspaceQ.from_dense(dense_nullspace_oracle(rows, ncols), ncols)
        assert nullspace(SparseMatrixQ.from_rows(rows)) == expected


def test_rank_examples():
    zero = SparseMatrixQ(3, 4)
    assert rank(zero) == 0
    eye = SparseMatrixQ.from_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank(eye) == 5
    # Vandermonde on distinct rationals has full rank
    ts = [qq(0), qq(1), qq(1, 2), qq(-3)]
    vand = SparseMatrixQ.from_rows([[t**j for j in range(4)] for t in ts])
    assert rank(vand) == 4


def test_rank_nullity_property():
    rng = random.Random(11)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        m = SparseMatrixQ.from_rows(random_matrix(rng, nrows, ncols, 0.4))
        assert rank(m) + nullspace(m).dim == ncols


def test_nullspace_independent_of_row_order():
    rng = random.Random(13)
    rows = random_matrix(rng, 7, 8, 0.5)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    a = nullspace(SparseMatrixQ.from_rows(rows))
    b = nullspace(SparseMatrixQ.from_rows(shuffled))
    assert a == b


def test_empty_matrix_gives_full_space():
    assert nullspace(SparseMatrixQ(0, 4)) == SubspaceQ.full(4)


def test_intersect_examples():
    whole = SubspaceQ.full(3)
    line = SubspaceQ.from_dense([[1, 2, 3]], 3)
    assert intersect(whole, line) == line
    x_axis = SubspaceQ.from_dense([[1, 0]], 2)
    y_axis = SubspaceQ.from_dense([[0, 1]], 2)
    assert intersect(x_axis, y_axis).dim == 0


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(SubspaceQ.full(2), SubspaceQ.full(3))


def test_intersect_random_against_stacked_constraint_oracle():
    rng = random.Random(19)
    for _ in range(10):
        a = SubspaceQ.from_dense(random_matrix(rng, 3, 5, 0.8), 5)
        b = SubspaceQ.from_dense(random_matrix(rng, 3, 5, 0.8), 5)
        inter = intersect(a, b)
        # oracle: x in both spans iff x is killed by both orthogonal row systems;
        # check via dim formula and explicit containment
        assert inter.dim == a.dim + b.dim - sum_spaces(a, b).dim
        for row in inter.basis:
            assert a.contains(row) and b.contains(row)
        if a.dim == 3 and b.dim == 3:
            assert inter.dim >= 1


def test_add_scaled_works_in_place_and_drops_cancelled_keys():
    out = {"a": 2, "b": qq(1, 2)}
    result = add_scaled(out, -2, {"a": 1, "c": 3})
    assert result is out
    assert out == {"b": qq(1, 2), "c": -6}
    add_scaled(out, qq(3, 4), {"b": qq(-2, 3), "c": 8})
    assert out == {}


def test_combine_mixes_int_and_rational_factors():
    x = {(1,): qq(1, 3), (2,): 1}
    y = {(1,): 1, (3,): qq(5, 2)}
    assert combine([(3, x), (qq(-1), y)]) == {(2,): 3, (3,): qq(-5, 2)}
    assert combine([(qq(1, 2), x), (qq(-1, 2), x)]) == {}
    assert combine([]) == {}


def test_matrix_builder_streaming_columns():
    builder = MatrixBuilder(3)
    builder.add_column(0, {"m1": qq(1), "m2": qq(2)})
    builder.add_column(1, {"m1": qq(2), "m2": qq(4)})
    builder.add_column(2, {"m3": qq(1)})
    m = builder.build()
    assert (m.nrows, m.ncols) == (3, 3)
    ns = nullspace(m)
    assert ns.dim == 1
    assert ns.contains({0: qq(-2), 1: qq(1)})


def test_rational_canonical_form():
    rng = random.Random(23)
    for _ in range(50):
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        c, d = rng.randint(-40, 40), rng.randint(1, 40)
        x = qq(a, b) + qq(c, d)
        assert x == qq(a * d + c * b, b * d)
        assert x.denominator > 0
        import math

        assert math.gcd(int(x.numerator), int(x.denominator)) == 1


def test_det_q():
    assert det_q([[qq(1), qq(2)], [qq(3), qq(4)]]) == -2
    assert det_q([[qq(2)]]) == 2
    assert det_q([[qq(1), qq(1)], [qq(1), qq(1)]]) == 0
    ts = [qq(1), qq(2), qq(3)]
    vand = [[t**j for j in range(3)] for t in ts]
    assert det_q(vand) == (ts[1] - ts[0]) * (ts[2] - ts[0]) * (ts[2] - ts[1])


def test_subspace_contains_and_reduce():
    s = SubspaceQ.from_dense([[1, 0, 1], [0, 1, 1]], 3)
    assert s.contains({0: qq(2), 1: qq(3), 2: qq(5)})
    assert not s.contains({0: qq(1)})
    assert s.contains_subspace(SubspaceQ.from_dense([[1, 1, 2]], 3))


def test_nullspace_with_large_entries():
    # kernel entries here are ratios of large minors
    rng = random.Random(29)
    for _ in range(5):
        rows = [[qq(rng.randint(-(10**8), 10**8)) for _ in range(12)] for _ in range(8)]
        ns = nullspace(SparseMatrixQ.from_rows(rows))
        assert ns.dim == 4
        for vec in ns.dense_basis():
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert ns == SubspaceQ.from_dense(dense_nullspace_oracle(rows, 12), 12)


def sympy_cases(entry):
    """Seeded (kind, dense rows) cases: wide, tall of full column rank, tall rank-deficient."""
    for _ in range(4):
        yield "wide", [[entry() for _ in range(11)] for _ in range(6)]
        yield "tall full rank", [[entry() for _ in range(7)] for _ in range(40)]
        # 30 x 8 of rank at most 5: a product of 30 x 5 and 5 x 8 factors
        left = [[entry() for _ in range(5)] for _ in range(30)]
        right = [[entry() for _ in range(8)] for _ in range(5)]
        yield "tall rank-deficient", [
            [sum((x * y for x, y in zip(row, col)), qq(0)) for col in zip(*right)] for row in left
        ]


@pytest.mark.parametrize("max_den", [1, 7], ids=["integer", "rational"])
def test_nullspace_against_sympy(max_den):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41 + max_den)

    def entry():
        return qq(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < 0.7 else qq(0)

    kinds = set()
    for kind, rows in sympy_cases(entry):
        ncols = len(rows[0])
        sym = sympy.Matrix([[sympy.Rational(int(v.numerator), int(v.denominator)) for v in row]
                            for row in rows])
        vectors = [{i: qq(int(x.p), int(x.q)) for i, x in enumerate(vec) if x != 0}
                   for vec in sym.nullspace()]
        ns = nullspace(SparseMatrixQ.from_rows(rows))
        assert ns == SubspaceQ(ncols, vectors), kind
        kinds.add((kind, ns.dim))
    # every kind is exercised as intended: full column rank and a real deficit both occur
    assert ("tall full rank", 0) in kinds
    assert ("tall rank-deficient", 3) in kinds
    assert ("wide", 5) in kinds


NO_NUMPY_PROBE = """
import sys
from sigvol.exactq import SparseMatrixQ, nullspace

# 3000 x 50, 6000 nonzeros: multiples of e_j - e_(j+1), so the kernel is spanned by all-ones
entries = {}
for i in range(3000):
    j, v = i % 49, i % 7 + 1
    entries[(i, j)], entries[(i, j + 1)] = v, -v
m = SparseMatrixQ(3000, 50, entries)
assert m.nnz() > 5000
ns = nullspace(m)
assert ns.dim == 1 and len(ns.basis[0]) == 50
print("numpy" in sys.modules)
"""


def test_nullspace_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sigvol.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
