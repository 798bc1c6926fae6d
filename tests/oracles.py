"""Reference helpers that the tests check the library against.

None of these is read by a CLI verb or a `reproduce-paper` criterion, so they
live here rather than in `sigvol`.  Each is built from public sigvol names
only.
"""

import math
from itertools import combinations

from sigvol.exactq import QQ, SubspaceQ, det_q, nullspace
from sigvol.freealg import antipode, permutation_sign
from sigvol.posgeom import CyclicInstance
from sigvol.sigpoly import FIELD_BITS, permutation_substitution


# -- exact linear algebra --------------------------------------------------------


def rank(matrix):
    """Exact rank; rank + dim nullspace = ncols."""
    return matrix.ncols - nullspace(matrix).dim


def sum_spaces(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceQ(a.ambient_dim, list(a.basis) + list(b.basis))


def from_dense(vectors, ambient_dim):
    """The subspace spanned by dense vectors of length `ambient_dim`."""
    return SubspaceQ(ambient_dim, [{i: QQ(v) for i, v in enumerate(vec) if v != 0} for vec in vectors])


def dense_basis(space):
    """The reduced-echelon basis of `space` as dense vectors."""
    out = []
    for row in space.basis:
        vec = [QQ(0)] * space.ambient_dim
        for c, v in row.items():
            vec[c] = v
        out.append(vec)
    return out


def contains_subspace(a, b):
    """Whether the subspace a contains the subspace b."""
    if b.ambient_dim != a.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(a.contains(row) for row in b.basis)


# -- words ------------------------------------------------------------------------


def deconcat_pairs(w):
    """All prefix/suffix splittings of a word, in order."""
    w = tuple(w)
    return [(w[:j], w[j:]) for j in range(len(w) + 1)]


def timerev_project(x):
    """x + antipode(x); the image is exactly the antipode-fixed subspace."""
    return x + antipode(x)


# -- increment polynomials ------------------------------------------------------------


def evaluate(p, increments):
    """The polynomial p at concrete increment vectors, one per segment."""
    if len(increments) != p.n - 1:
        raise ValueError("expected one increment vector per segment")
    values = [QQ(c) for vec in increments for c in vec]
    if len(values) != p.nvars:
        raise ValueError("increment vectors do not match d")
    return sum((c * math.prod(values[idx] ** e for idx, e in enumerate(m) if e) for m, c in p.terms.items()), QQ(0))


def word_polynomial(d, n, word, sliced=False):
    """L! times the packed polynomial of one word of length L on a generic n-point path.

    The Chen recursion over the first segment, one word at a time: L! P_s(w)
    sums, over the prefixes w[:j], C(L, j) times the monomial of the letters
    of w[:j] on segment s times (L-j)! P_{s+1}(w[j:]).  `sliced` keeps only
    the monomials free of every a[s][i] with s < i: segment s takes no letter
    above s.
    """

    def rec(s, w):
        if s == n:
            return {0: 1} if not w else {}
        out = dict(rec(s + 1, w))
        seg = 0
        for j in range(1, len(w) + 1):
            if sliced and w[j - 1] > s:
                break  # a[s][w[j-1]] is 0 on the slice, and so is every longer prefix's term
            seg += 1 << (FIELD_BITS * ((s - 1) * d + w[j - 1] - 1))
            # terms of different j differ in their segment-s degree, so none meet
            out.update({m + seg: math.comb(len(w), j) * c for m, c in rec(s + 1, w[j:]).items()})
        return out

    return rec(1, tuple(word))


# -- control-point permutations --------------------------------------------------


def permute_control_points(p, sigma):
    """Re-express p(x_{sigma(1)}, ..., x_{sigma(n)}) in the original increments."""
    images = tuple(sigma)
    if images == tuple(range(1, p.n + 1)):
        return p
    return permutation_substitution(p.d, p.n, images).apply(p)


# -- positive configurations ------------------------------------------------------


def stabilizes_positivity(perm, d):
    """Combinatorial membership test, independent of any concrete instance.

    Relabeling columns by the permutation turns the minor on an increasing
    index set I into the sorted minor times the sign of the sequence
    (perm(i) for i in I), so positivity is preserved exactly when every such
    sequence has an even inversion count.
    """
    n = perm.n
    if n < d + 1:
        raise ValueError("need n >= d+1")
    images = perm.images
    for subset in combinations(range(n), d + 1):
        if permutation_sign([images[i] for i in subset]) < 0:
            return False
    return True


def kaibel_wassmer_order(d, n):
    """Order of the full combinatorial automorphism group of the cyclic polytope."""
    if n == d + 1:
        return math.factorial(n)
    if n == d + 2:
        if d % 2 == 0:
            return 2 * math.factorial(n // 2) ** 2
        return math.factorial((n + 1) // 2) * math.factorial(n // 2)
    return 2 * n if d % 2 == 0 else 4


class DegenerateFacetError(ValueError):
    """A facet determinant vanished; the configuration is degenerate."""


def facet_check_det(instance, index_set):
    """Determinant-sign facet test: one strict sign over all remaining vertices.

    Accepts a positive instance or a bare path; a vanishing determinant
    (affinely dependent vertices) raises DegenerateFacetError rather than
    being silently signed.
    """
    path = instance.path if isinstance(instance, CyclicInstance) else instance
    subset = tuple(index_set)
    if len(subset) != path.d:
        raise ValueError(f"facet candidate must have {path.d} vertices")
    cols = [[QQ(1)] + list(p) for p in path.points]  # the points lifted by a row of ones
    sign = 0
    for j in range(1, path.n + 1):
        if j in subset:
            continue
        rows = [
            [cols[i - 1][r] for i in subset] + [cols[j - 1][r]]
            for r in range(path.d + 1)
        ]
        det = det_q(rows)
        if det == 0:
            raise DegenerateFacetError(f"vertices {subset + (j,)} are affinely dependent")
        s = 1 if det > 0 else -1
        if sign == 0:
            sign = s
        elif sign != s:
            return False
    return True
