import math
import random
from functools import partial

import pytest

from sigvol import fixtures, invariants
from sigvol.exactq import MatrixBuilder, Q1, SparseMatrixQ, SubspaceQ, combine, intersect, nullspace, qq, rref_rows
from sigvol.freealg import (
    TensorElement,
    antipode,
    parse_element,
    shuffle_power,
    volume_element,
)
from sigvol.invariants import (
    GradedBasis,
    conjecture_evidence,
    dim_image,
    inv_d_space,
    invariant_space,
    is_in_kernel,
    is_invariant,
    kernel_space,
    loopclosure_combinations,
    loopclosure_membership,
    loopclosure_space,
    timerev_space,
    words_of_degree,
)
from sigvol.posgeom import PermGroup, Permutation, named_group, stabilizer_structural
from sigvol.sigpoly import (
    PLPath, SigPolyCalculator, _pack, integral_coefficients, pair, path_pair, pl_signature, signature_polynomial,
)

from oracles import closure_differences, contains_subspace, timerev_project


# -- invariant spaces -----------------------------------------------------------


def test_degree_three_invariants_of_four_points():
    group = stabilizer_structural(3, 4)
    basis = invariant_space(3, 4, 3, group)
    assert basis.contains(volume_element(3))
    assert dim_image(basis, 4) == 1


def test_degree_zero_is_constants():
    group = stabilizer_structural(3, 4)
    basis = invariant_space(3, 4, 0, group)
    assert basis.dim == 1
    assert basis.contains(TensorElement.unit(3))


def test_no_linear_invariants_for_planar_quadrilateral():
    group = stabilizer_structural(2, 4)
    basis = invariant_space(2, 4, 1, group)
    assert dim_image(basis, 4) == 0


def test_trivial_group_gives_everything():
    trivial = PermGroup.generated(4, [], "trivial")
    basis = invariant_space(2, 4, 2, trivial)
    assert basis.dim == 4


def test_kernel_contained_in_invariants():
    group = stabilizer_structural(2, 4)
    for k in (2, 3):
        inv = invariant_space(2, 4, k, group)
        ker = kernel_space(2, 4, k)
        assert contains_subspace(inv.space, ker.space)


def test_invariants_antitone_in_group():
    cyclic = PermGroup.generated(5, [Permutation((2, 3, 4, 5, 1))], "Z/n")
    dihedral = PermGroup.generated(
        5, [Permutation((2, 3, 4, 5, 1)), Permutation((5, 4, 3, 2, 1))], "D_n"
    )
    trivial = PermGroup.generated(5, [], "trivial")
    for k in (1, 2, 3):
        inv_triv = invariant_space(2, 5, k, trivial)
        inv_cyc = invariant_space(2, 5, k, cyclic)
        inv_dih = invariant_space(2, 5, k, dihedral)
        assert contains_subspace(inv_triv.space, inv_cyc.space)
        assert contains_subspace(inv_cyc.space, inv_dih.space)


# -- kernels ----------------------------------------------------------------------


def test_kernel_trivial_in_degree_one():
    assert kernel_space(2, 3, 1).dim == 0
    assert kernel_space(3, 4, 1).dim == 0


def test_kernel_one_dimensional_alphabet():
    assert kernel_space(1, 2, 2).dim == 0  # the square of the only letter survives


def test_kernel_vanishing_on_concrete_paths():
    rng = random.Random(2)
    ker = kernel_space(2, 3, 3)
    for element in ker.elements:
        for _ in range(5):
            pts = [tuple(qq(rng.randint(-4, 4)) for _ in range(2)) for _ in range(3)]
            sig = pl_signature(PLPath(pts), 3)
            assert pair(sig, element) == 0


def test_dim_image_of_kernel_is_zero():
    ker = kernel_space(2, 3, 3)
    if ker.dim:
        assert dim_image(ker, 3) == 0


def test_dim_image_of_volume_span():
    words = words_of_degree(3, 3)
    index = {w: i for i, w in enumerate(words)}
    from sigvol.exactq import SubspaceQ

    vec = {index[w]: c for w, c in volume_element(3).terms.items()}
    basis = GradedBasis.from_space(3, 3, SubspaceQ(len(words), [vec]))
    assert dim_image(basis, 4) == 1


def test_dim_image_of_rescaled_basis_elements():
    # elements with different denominators share one column scale in the solve
    for d, n, k in ((3, 4, 5), (3, 4, 6), (2, 5, 4)):
        basis = invariant_space(d, n, k, stabilizer_structural(d, n))
        scales = [qq(j + 2, 2 * j + 3) for j in range(basis.dim)]
        rescaled = GradedBasis(d, k, basis.space, [x.scale(r) for r, x in zip(scales, basis.elements)], n=n)
        assert dim_image(rescaled, n) == dim_image(basis, n), (d, n, k)


@pytest.mark.parametrize(
    "d, n, k",
    [(3, 4, k) for k in range(1, 8)] + [(2, 5, k) for k in range(1, 8)]
    + [(3, 5, 6), (3, 5, 7), (2, 4, 6), (5, 7, 5)],
)
def test_dim_image_by_highest_weights_matches_the_full_solve(d, n, k):
    # a hand-built basis has no highest-weight rows, so its rank is solved over all its elements
    basis = invariant_space(d, n, k, stabilizer_structural(d, n))
    by_hand = GradedBasis(d, k, basis.space, basis.elements, n=n)
    assert basis.highest is not None and by_hand.highest is None
    assert dim_image(basis, n) == dim_image(by_hand, n)


def test_slice_kills_the_condition_of_a_word_no_raising_kills():
    # E_1 sends the word 2 to the word 1, so the slice says nothing about it: its
    # kernel condition on 2 points is a[1][2], which is 0 where a[1][2] = 0.  The
    # membership steps see such elements, so they keep the full conditions.
    condition = invariants._kernel_conditions(2, 2)
    assert condition({(2,): 1}) == [{_pack((0, 1)): 1}]
    assert condition({(2,): 1}, sliced=True) == [{}]
    assert not is_in_kernel(TensorElement.from_word(2, (2,)), 2)


def test_dim_image_against_kernel_intersection():
    # the image dimension is the span's dimension less that of its meet with
    # the whole kernel; (3,4,5), (3,4,6) and (3,5,6) meet a nonzero kernel
    cases = [(3, 4, k) for k in range(1, 7)] + [(2, 5, k) for k in range(1, 7)] + [(3, 5, 6)]
    dropped = 0
    for d, n, k in cases:
        basis = invariant_space(d, n, k, stabilizer_structural(d, n))
        expected = basis.dim - intersect(basis.space, kernel_space(d, n, k).space).dim
        assert dim_image(basis, n) == expected, (d, n, k)
        dropped += expected < basis.dim
    assert dropped == 3


# -- time reversal ------------------------------------------------------------------


def test_timerev_dimension_d2_k2():
    basis = timerev_space(2, 2)
    assert basis.dim == 3
    for text in ("11", "22", "12 + 21"):
        assert basis.contains(parse_element(text, 2))


def test_timerev_empty_for_single_letter():
    assert timerev_space(1, 1).dim == 0


def test_timerev_contains_volume_element():
    assert timerev_space(3, 3).contains(volume_element(3))


def test_timerev_complement_dimensions():
    from sigvol.exactq import MatrixBuilder, nullspace
    from sigvol.exactq import Q1

    for d, k in ((2, 2), (2, 3), (3, 2)):
        fixed = timerev_space(d, k)
        # the antisymmetric complement: antipode(x) = -x
        words = words_of_degree(d, k)
        builder = MatrixBuilder(len(words))
        sign = Q1 if k % 2 == 0 else -Q1
        for c, w in enumerate(words):
            entries = {w[::-1]: sign}
            entries[w] = entries.get(w, qq(0)) + Q1
            builder.add_column(c, entries)
        anti = nullspace(builder.build())
        assert fixed.dim + anti.dim == d**k
        assert intersect(fixed.space, anti).dim == 0


def test_timerev_basis_matches_the_chain():
    # the written-down basis against the antipode condition solved by `_cut`
    for d in (1, 2, 3):
        for k in range(6):
            solved, _ = invariants._cut(d, k, [invariants._timerev_conditions(d)])
            assert timerev_space(d, k).space == solved, (d, k)


def test_fixed_space_is_image_of_symmetrization():
    rng = random.Random(3)
    basis = timerev_space(2, 3)
    for _ in range(10):
        terms = {
            tuple(rng.randint(1, 2) for _ in range(3)): qq(rng.randint(-3, 3))
            for _ in range(3)
        }
        x = TensorElement(2, terms)
        projected = timerev_project(x)
        if not projected.is_zero():
            assert basis.contains(projected)


# -- loop closure --------------------------------------------------------------------


def test_loopclosure_membership_examples():
    assert loopclosure_membership(TensorElement.unit(2))
    assert loopclosure_membership(volume_element(2))
    assert not loopclosure_membership(TensorElement.from_word(2, (1,)))


def test_loopclosure_space_small():
    basis = loopclosure_space(2, 2)
    assert basis.contains(volume_element(2))
    assert loopclosure_space(1, 1).dim == 0


def test_loopclosure_space_closed_under_antipode():
    basis = loopclosure_space(2, 4)
    for element in basis.elements:
        assert basis.contains(antipode(element))
        assert loopclosure_membership(antipode(element))


def test_loopclosure_segment_override_matches():
    a = loopclosure_space(2, 3, segments=3)
    b = loopclosure_space(2, 3, segments=4)
    assert a.space == b.space


def test_loopclosure_degree_zero_is_constants():
    for d in (1, 2, 3):
        assert loopclosure_space(d, 0).space == SubspaceQ.full(1)


def test_loopclosure_space_matches_concrete_closed_paths():
    # implementation-independent oracle: every basis element pairs with a
    # concrete open path of m segments exactly as with that path closed into
    # a loop on either side (the first point appended, or the last prepended);
    # and with enough random paths, the words' pairing differences have no
    # other common kernel, so the space is exactly the one the paths define
    rng = random.Random(47)
    for d, k, segments in ((2, 3, None), (2, 4, None), (2, 5, None), (3, 3, None), (2, 3, 5)):
        m = k if segments is None else segments
        basis = loopclosure_space(d, k, segments=segments)
        words = words_of_degree(d, k)
        differences = []
        for _ in range(d**k):
            pts = [tuple(qq(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(d)) for _ in range(m + 1)]
            open_sig, *closed_sigs = [pl_signature(PLPath(p), k) for p in (pts, pts + pts[:1], pts[-1:] + pts)]
            for element in basis.elements:
                for sig in closed_sigs:
                    assert pair(sig, element) == pair(open_sig, element), (d, k, segments, element)
            for sig in closed_sigs:
                differences.append([sig.terms.get(w, 0) - open_sig.terms.get(w, 0) for w in words])
        assert nullspace(SparseMatrixQ.from_rows(differences)) == basis.space, (d, k, segments)


def test_loopclosure_membership_graded():
    mixed = volume_element(2) + TensorElement.unit(2)
    assert loopclosure_membership(mixed)
    mixed_bad = volume_element(2) + TensorElement.from_word(2, (1,))
    assert not loopclosure_membership(mixed_bad)


def test_loopclosure_membership_mixed_denominators():
    vol2 = volume_element(2)
    member = vol2.scale(qq(1, 3)) + shuffle_power(vol2, 2).scale(qq(1, 5)) + TensorElement.unit(2).scale(qq(1, 2))
    assert loopclosure_membership(member)
    assert loopclosure_membership(member, segments=5)
    assert not loopclosure_membership(member + TensorElement.from_word(2, (1, 1), qq(1, 7)))


def test_loopclosure_membership_shares_condition_builders():
    # one dict shared by many checks holds one closure condition per (d, m),
    # and the answers are those of checks that build their own
    shared: dict = {}
    vol2 = volume_element(2)
    loop = fixtures.element("loop_d2_deg6")
    elements = [loop, antipode(loop), vol2, shuffle_power(vol2, 2) + TensorElement.unit(2),
                TensorElement.from_word(2, (1, 2)), loop + TensorElement.from_word(2, (2, 1, 1))]
    for segments in (None, 3):
        for x in elements:
            assert loopclosure_membership(x, segments, shared) == loopclosure_membership(x, segments)
    assert sorted(shared) == [("loopclosure", 2, m) for m in (2, 3, 4, 6)]


# -- loop closure as a word identity ----------------------------------------------------


def _integer_points(rng, d, count):
    return [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(count)]


@pytest.mark.parametrize("d", [2, 3])
def test_closure_functional_matches_the_numeric_chen_kernel(d):
    # A(w')[w] = k! <Phi(w), w'> is k! [w = w'] plus the weights of the terms r
    # that w starts with (right side) or ends with (left side), over the words
    # w of the content of w'; and <S(closed X), w> = <S(X), Phi(w)>, so
    # k! <S(closed X), w> = sum over w' of A(w')[w] <S(X), w'> on either side,
    # for paths of fewer and of at least k segments: the identity holds on
    # every path, and the segment count only decides whether it is all there is
    rng = random.Random(53 + d)
    for k in range(6):
        words = words_of_degree(d, k)
        for m in sorted({max(k - 2, 1), k, k + 1}):
            pts = _integer_points(rng, d, m + 1)
            open_sig, right, left = (pl_signature(PLPath(p), k) for p in (pts, pts + pts[:1], pts[-1:] + pts))
            for left_side, closed in ((False, right), (True, left)):
                pulled = {}
                for target in words:
                    row = {target: math.factorial(k)}
                    for r, weight in invariants._closure_functional(target):
                        for w in words:
                            if sorted(w) == sorted(target) and (w[k - len(r):] if left_side else w[:len(r)]) == r:
                                row[w] = row.get(w, 0) + weight
                    for w, v in row.items():
                        pulled[w] = pulled.get(w, 0) + v * open_sig.coeff(target)
                for w in words:
                    assert pulled.get(w, 0) == math.factorial(k) * closed.coeff(w), (d, k, m, w, left_side)


def test_standard_words_detect_zero_in_the_highest_weight_space():
    # the coefficients of the standard polytabloids at the standard words form
    # a nonsingular matrix with unit diagonal, so a vector in their span whose
    # coefficients at the standard words vanish is zero
    for k in range(9):
        for shape in _partitions(k, 4):
            d = len(shape)
            place = [d ** (k - 1 - p) for p in range(k)]
            leads = [sum((a - 1) * place[p] for p, a in enumerate(w)) for w in invariants._standard_words(shape)]
            vectors = invariants._polytabloids(d, shape)
            assert len(leads) == len(vectors) == _hook_length_count(shape)
            matrix = [[Q1 * vector.get(c, 0) for vector in vectors] for c in leads]
            assert all(matrix[i][i] == 1 for i in range(len(leads)))
            assert nullspace(SparseMatrixQ.from_rows(matrix)).dim == 0, shape


def test_kernel_vanishes_on_one_more_point_than_the_degree():
    # the lemma behind the word identity: on m >= k segments, distinct
    # degree-k words have independent polynomials
    for d in (1, 2, 3):
        for k in range(7):
            assert kernel_space(d, k + 1, k).dim == 0, (d, k)


def _polynomial_closure_conditions(d, m):
    # loop closure by closed minus open polynomials on every row, highest-weight
    # or not: the reference the word map must agree with
    return lambda row, sliced=False: closure_differences(d, m + 1, row, sliced)


CLOSURE_CHAINS = [
    *((f"loopclosure({d},{k},segments={m})", partial(loopclosure_space, d, k, segments=m))
      for d, ks in ((2, range(1, 8)), (3, range(1, 6)), (4, range(1, 6))) for k in ks for m in (k, k + 1)),
    *((f"loopclosure({d},{k},segments={m})", partial(loopclosure_space, d, k, segments=m))
      for d, k, m in ((2, 6, 3), (2, 6, 5), (3, 5, 2), (3, 5, 4), (4, 5, 3))),
    *((f"inv_d({d},{k})", partial(inv_d_space, d, k)) for d, k in ((2, 6), (2, 7), (2, 8), (4, 5), (6, 3))),
]


@pytest.mark.parametrize("name, build", CLOSURE_CHAINS, ids=[name for name, _ in CLOSURE_CHAINS])
def test_word_closure_chain_matches_the_polynomial_chain(name, build, monkeypatch):
    words = build()
    monkeypatch.setattr(invariants, "_closure_conditions", _polynomial_closure_conditions)
    polynomial = build()
    assert words.space == polynomial.space
    assert words.elements == polynomial.elements


def _random_closure_element(rng, d, members):
    # an integer combination of mixed contents and degrees, the empty word
    # included; with `members` (loop-closure invariants) it may be one too.
    # A word minus its reverse cancels in the sums over the whole content.
    terms = {(): rng.randint(-2, 2)}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 5)))
        terms[w] = rng.randint(-3, 3)
    if rng.random() < 0.5:
        terms = {}
    x = TensorElement(d, terms)
    for member in rng.sample(members, min(len(members), rng.randint(0, 3))):
        x = x + member.scale(qq(rng.randint(-3, 3)))
    w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 5)))
    c = qq(rng.randint(1, 3))
    return x + TensorElement.from_word(d, w, c) - TensorElement.from_word(d, w[::-1], c)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_closure_on_every_word_matches_the_polynomial_closure(d, monkeypatch):
    # memberships and combinations see arbitrary elements, so every block of
    # theirs takes every word of its content as a target: compare them, below,
    # at and above the degrees, with closed minus open polynomials.  The
    # members mixed in come from the reference, some of them invariant on one
    # segment only, where Phi(x) = x is not needed.
    rng = random.Random(61 + d)
    with monkeypatch.context() as reference:
        reference.setattr(invariants, "_closure_conditions", _polynomial_closure_conditions)
        members = [x for k, m in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (4, 4))
                   for x in loopclosure_space(d, k, segments=m).elements]
    elements = [_random_closure_element(rng, d, members) for _ in range(12)]
    combinations = [rng.sample(elements, 4) for _ in range(3)]
    combinations = [group + [group[0] + group[1]] for group in combinations]
    cases = [(x, m) for x in elements for m in (None, 1, 2, 4, 6)]
    words = [loopclosure_membership(x, m) for x, m in cases]
    spans = [loopclosure_combinations(group, m) for group in combinations for m in (1, 2, 4, 6)]
    monkeypatch.setattr(invariants, "_closure_conditions", _polynomial_closure_conditions)
    assert words == [loopclosure_membership(x, m) for x, m in cases]
    assert spans == [loopclosure_combinations(group, m) for group in combinations for m in (1, 2, 4, 6)]
    assert any(words) and not all(words)
    assert all(span.dim for span in spans)


def test_closure_builds_a_polynomial_only_below_the_degree(monkeypatch):
    # on at least k segments the closure condition is the word dicts: the
    # chain's rows, memberships and combinations build no polynomial; on
    # fewer segments it takes one polynomial per side
    calls = []
    combination = SigPolyCalculator.combination

    def counted(self, coeffs):
        calls.append(self.n - 1)
        return combination(self, coeffs)

    monkeypatch.setattr(SigPolyCalculator, "combination", counted)
    assert loopclosure_space(2, 5).dim == 0 and loopclosure_space(3, 4, segments=6).dim == 6
    assert loopclosure_membership(volume_element(2)) and loopclosure_membership(volume_element(2), segments=3)
    assert loopclosure_combinations([volume_element(2), TensorElement.from_word(2, (1, 2))], 2).dim == 1
    assert calls == []
    assert inv_d_space(2, 6).dim == 4
    assert calls and 6 not in calls  # the stabilizers take 2 and 3 segments, closure 6
    calls.clear()
    assert loopclosure_space(2, 4, segments=3).dim == 1
    assert calls and set(calls) == {3} and len(calls) % 2 == 0
    calls.clear()
    assert loopclosure_membership(volume_element(2), segments=1)
    assert calls == [1, 1]
    calls.clear()
    assert loopclosure_combinations([volume_element(2), TensorElement.from_word(2, (1, 2))], 1).dim == 1
    assert calls == [1, 1, 1, 1]


def test_inv_d_planar_degree_eight_survives_concrete_closures():
    # implementation-independent oracle at the reach the word identity opened:
    # each of the 10 simultaneous invariants of degree 8 pairs with an open
    # 8-segment path as with that path closed into a loop on either side
    basis = inv_d_space(2, 8)
    assert basis.dim == 10
    rng = random.Random(59)
    for _ in range(3):
        pts = _integer_points(rng, 2, 9)
        open_path, right, left = (PLPath(p) for p in (pts, pts + pts[:1], pts[-1:] + pts))
        for element in basis.elements:
            assert path_pair(right, element) == path_pair(open_path, element) == path_pair(left, element)


# -- simultaneous invariants -----------------------------------------------------------


def test_element_columns_share_one_scale():
    # 2*(u/2) - u = 0 survives loop closure; u = 11 alone does not.  Scaling
    # the two columns by their own denominators would report (1, -1) instead.
    u = TensorElement.from_word(2, (1, 1))
    space = loopclosure_combinations([u.scale(qq(1, 2)), u], 2)
    assert space == SubspaceQ(2, [{0: qq(1), 1: qq(-1, 2)}])


def test_inv_d_degree_zero():
    for d in (2, 3):
        assert inv_d_space(d, 0).dim == 1


def test_inv_d_contains_volume_element():
    basis = inv_d_space(3, 3)
    assert basis.dim == 1
    assert basis.contains(volume_element(3))


def test_inv_d_planar_matches_direct_intersection():
    # cross-check the cut-down chain against the literal intersections: loop
    # closure and two stabilizers for d = 2 and d = 6 (where the chain solves
    # loop closure first, on fewer points than either stabilizer), and for
    # d = 4 (d = 0 mod 4) time reversal as well
    for d, ks in ((2, (1, 2, 3, 4)), (4, (1, 2, 3, 4)), (6, (1, 2, 3))):
        for k in ks:
            direct = loopclosure_space(d, k).space
            if d % 4 == 0:
                direct = intersect(direct, timerev_space(d, k).space)
            for n in (d + 1, d + 2):
                direct = intersect(direct, invariant_space(d, n, k, stabilizer_structural(d, n)).space)
            assert inv_d_space(d, k).space == direct, (d, k)
    # for d = 4 the stabilizers already force time reversal at these degrees;
    # with trivial stabilizers the base piece itself, lc ∩ tr, is compared
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "stabilizer_structural", lambda d, n: PermGroup.generated(n, [], "trivial"))
        for k in (1, 2, 3, 4):
            direct = intersect(loopclosure_space(4, k).space, timerev_space(4, k).space)
            assert inv_d_space(4, k).space == direct, k


def test_inv_d_basis_needs_no_second_elimination():
    # each cut lifts its kernel through the current basis without another
    # elimination; the result must already be the canonical basis
    for d, k in ((2, 6), (3, 6), (4, 4), (6, 3)):
        space = inv_d_space(d, k).space
        assert SubspaceQ(space.ambient_dim, space.basis) == space, (d, k)


def test_inv_d_planar_contains_shuffle_square():
    basis = inv_d_space(2, 4)
    assert basis.contains(shuffle_power(volume_element(2), 2))


def test_inv_d_subset_of_timerev_for_d3():
    # (d+1)/2 even: every simultaneous invariant is antipode-fixed
    for k in (2, 3, 4):
        basis = inv_d_space(3, k)
        fixed = timerev_space(3, k)
        assert contains_subspace(fixed.space, basis.space)


def test_inv_d_planar_equals_loopclosure():
    # for d = 2 the stabilizer conditions at 3 and 4 points impose nothing new
    for k in range(1, 5):
        assert inv_d_space(2, k).space == loopclosure_space(2, k).space


def test_inv_d_dimension_four_branch():
    # d even with d/2 even: loop closure AND time reversal, then refinement
    basis = inv_d_space(4, 4)
    assert basis.dim == 1
    assert basis.contains(volume_element(4))


def test_inv_d_dimension_d3_k7():
    assert inv_d_space(3, 7).dim == 18


# -- letter-content blocks ------------------------------------------------------------

# small spaces of every kind that `_cut` builds, with a non-structural group
# among the group actions and a d = 0 (mod 4) case among the simultaneous ones
SPACES = {
    "kernel(2,3,5)": lambda: kernel_space(2, 3, 5),
    "kernel(3,4,5)": lambda: kernel_space(3, 4, 5),
    "invariant(3,4,5)": lambda: invariant_space(3, 4, 5, stabilizer_structural(3, 4)),
    "dihedral(3,4,4)": lambda: invariant_space(3, 4, 4, named_group("dihedral", 4)),
    "dihedral(2,5,4)": lambda: invariant_space(2, 5, 4, named_group("dihedral", 5)),
    "cyclic(2,4,4)": lambda: invariant_space(2, 4, 4, named_group("cyclic", 4)),
    "timerev(3,4)": lambda: timerev_space(3, 4),
    "loopclosure(2,4)": lambda: loopclosure_space(2, 4),
    "loopclosure(3,4)": lambda: loopclosure_space(3, 4),
    "loopclosure(2,4,segments=3)": lambda: loopclosure_space(2, 4, segments=3),
    "loopclosure(2,4,segments=5)": lambda: loopclosure_space(2, 4, segments=5),
    "inv_d(2,6)": lambda: inv_d_space(2, 6),
    "inv_d(3,6)": lambda: inv_d_space(3, 6),
    "inv_d(4,4)": lambda: inv_d_space(4, 4),
    "inv_d(4,5)": lambda: inv_d_space(4, 5),
    "inv_d(5,3)": lambda: inv_d_space(5, 3),
}


def _single_block_cut(d, k, conditions):
    # the chain over all degree-k words at once, with no block split: the
    # reference the block-wise `_cut` must agree with
    words = words_of_degree(d, k)
    space = SubspaceQ.full(len(words))
    for condition in conditions:
        if space.dim == 0:
            break
        rows, _ = integral_coefficients([{words[c]: v for c, v in row.items()} for row in space.basis])
        solutions = invariants._solve(rows, condition)
        vectors = [combine((lam, space.basis[j]) for j, lam in sol.items()) for sol in solutions.basis]
        space = SubspaceQ(space.ambient_dim, vectors, _canonical=True)
    return space, None


@pytest.mark.parametrize("name", SPACES)
def test_letter_relabelling_maps_space_onto_itself(name):
    basis = SPACES[name]()
    rng = random.Random(name)
    letters = list(range(1, basis.d + 1))
    while basis.d > 1 and letters == sorted(letters):
        rng.shuffle(letters)
    relabelled = [
        TensorElement(basis.d, {tuple(letters[a - 1] for a in w): c for w, c in x.terms.items()})
        for x in basis.elements
    ]
    image = SubspaceQ(basis.space.ambient_dim, [basis.coordinate_vector(y) for y in relabelled])
    assert image == basis.space


@pytest.mark.parametrize("name", SPACES)
def test_basis_vectors_are_content_homogeneous(name):
    basis = SPACES[name]()
    for x in basis.elements:
        contents = {tuple(sorted(w)) for w in x.terms}
        assert len(contents) == 1, x


@pytest.mark.parametrize("name", SPACES)
def test_block_cut_matches_single_block_chain(name, monkeypatch):
    blockwise = SPACES[name]()
    monkeypatch.setattr(invariants, "_cut", _single_block_cut)
    single = SPACES[name]()
    assert blockwise.space == single.space
    assert blockwise.elements == single.elements


# -- highest-weight chain ----------------------------------------------------------------


def _partitions(k, parts):
    # the partitions of k into at most `parts` parts, largest part first
    def fill(rest, largest, left):
        if rest == 0:
            yield ()
        elif left:
            for first in range(min(rest, largest), 0, -1):
                for tail in fill(rest - first, first, left - 1):
                    yield (first,) + tail

    return list(fill(k, k, parts))


def _hook_length_count(shape):
    # f^shape, the number of standard tableaux, by the hook length formula
    conjugate = [sum(1 for length in shape if length > c) for c in range(shape[0] if shape else 0)]
    hooks = math.prod(shape[r] - c + conjugate[c] - r - 1 for r in range(len(shape)) for c in range(shape[r]))
    return math.factorial(sum(shape)) // hooks


def _raise(vector, i, words, index):
    # E_i on word indices: one letter i+1 replaced by i, summed over positions
    out = {}
    for c, v in vector.items():
        w = words[c]
        for p, a in enumerate(w):
            if a == i + 1:
                target = index[w[:p] + (i,) + w[p + 1:]]
                out[target] = out.get(target, 0) + v
    return {c: v for c, v in out.items() if v}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_polytabloids_are_a_highest_weight_basis(d):
    for k in range(8):
        words = words_of_degree(d, k)
        index = {w: c for c, w in enumerate(words)}
        for shape in _partitions(k, d):
            content = shape + (0,) * (d - len(shape))
            vectors = invariants._polytabloids(d, shape)
            assert len(vectors) == _hook_length_count(shape)
            assert SubspaceQ(d**k, vectors).dim == len(vectors)
            for v in vectors:
                assert set(v.values()) <= {1, -1}
                assert all(tuple(words[c].count(a) for a in range(1, d + 1)) == content for c in v)
                assert all(not _raise(v, i, words, index) for i in range(1, d))
            if d**k <= 243:
                # they span the words of this content that every E_i kills
                block = [c for c, w in enumerate(words) if tuple(w.count(a) for a in range(1, d + 1)) == content]
                builder = MatrixBuilder(len(block))
                for j, c in enumerate(block):
                    builder.add_column(j, {(i, t): Q1 * v for i in range(1, d)
                                           for t, v in _raise({c: 1}, i, words, index).items()})
                assert nullspace(builder.build()).dim == len(vectors)


def _letter_content_cut(d, k, conditions):
    # the chain on every word of each dominant letter-content block, with no
    # highest-weight step: the reference the highest-weight chain must agree with
    words = words_of_degree(d, k)
    blocks = {}
    for c, w in enumerate(words):
        blocks.setdefault(tuple(w.count(a) for a in range(1, d + 1)), []).append(c)
    dominant = {
        content: [{c: Q1} for c in cols]
        for content, cols in blocks.items() if list(content) == sorted(content, reverse=True)
    }
    for condition in conditions:
        if not any(dominant.values()):
            break
        for content, basis in dominant.items():
            if basis:
                solutions = invariants._solve([{words[c]: v for c, v in row.items()} for row in basis], condition)
                dominant[content] = [
                    combine((lam, basis[j]) for j, lam in sol.items()) for sol in solutions.basis
                ]
    index = {w: c for c, w in enumerate(words)}
    vectors = []
    for content in blocks:
        order = sorted(range(d), key=lambda a: -content[a])
        basis = dominant[tuple(content[a] for a in order)]
        if order == sorted(order):
            vectors += basis
        else:
            vectors += rref_rows(
                {index[tuple(order[a - 1] + 1 for a in words[c])]: v for c, v in row.items()} for row in basis
            )
    return SubspaceQ(len(words), sorted(vectors, key=min), _canonical=True), None


@pytest.mark.parametrize("name", [*SPACES, "kernel(2,4,8)"])
def test_highest_weight_chain_matches_letter_content_chain(name, monkeypatch):
    build = SPACES.get(name, lambda: kernel_space(2, 4, 8))
    highest = build()
    monkeypatch.setattr(invariants, "_cut", _letter_content_cut)
    letter_content = build()
    assert highest.space == letter_content.space
    assert highest.elements == letter_content.elements


@pytest.mark.parametrize("name", [*SPACES, "kernel(2,4,8)"])
def test_highest_weight_multiplicities_give_the_dimension(name):
    # dim W = sum over lambda of m_lambda * dim S_lambda(Q^d), m_lambda = dim HW_lambda(W)
    basis = SPACES.get(name, lambda: kernel_space(2, 4, 8))()
    highest = basis.highest
    if highest is None:  # the time-reversal basis is written down: its chain gives them
        _, highest = invariants._cut(basis.d, basis.k, [invariants._timerev_conditions(basis.d)])
    words = words_of_degree(basis.d, basis.k)
    index = {w: c for c, w in enumerate(words)}
    for content, rows in highest.items():
        for row in rows:
            assert all(type(v) is int for v in row.values())
            vector = {index[w]: v for w, v in row.items()}
            assert basis.space.contains(vector)
            assert all(not _raise(vector, i, words, index) for i in range(1, basis.d))
    assert sum(len(rows) * invariants._weyl_dimension(content) for content, rows in highest.items()) == basis.dim


def test_weyl_dimensions_weighted_by_standard_tableaux_count_the_words():
    # Schur-Weyl duality: the degree-k words are the sum over lambda of f^lambda
    # copies of S_lambda(Q^d), so these dimensions weighted by f^lambda sum to d**k
    for d in (1, 2, 3, 4):
        for k in range(7):
            shapes = _partitions(k, d)
            total = sum(_hook_length_count(shape) * invariants._weyl_dimension(shape + (0,) * (d - len(shape)))
                        for shape in shapes)
            assert total == d**k, (d, k)


# -- memberships and evidence ------------------------------------------------------------


def test_is_invariant_fixtures():
    assert is_invariant(fixtures.element("w1"), 3, 4)
    assert is_invariant(fixtures.element("w2"), 3, 4)


def test_is_invariant_mixed_denominators():
    x = fixtures.element("w1") + volume_element(3).scale(qq(1, 7))
    assert is_invariant(x, 3, 4)
    assert not is_invariant(x + TensorElement.from_word(3, (1,), qq(1, 5)), 3, 4)


def test_is_invariant_shares_condition_builders():
    # one dict shared by many checks holds one builder per (d, n), and the
    # answers are those of checks that build their own
    shared: dict = {}
    elements = [fixtures.element("w1"), fixtures.element("w2"), volume_element(3),
                TensorElement.from_word(3, (1, 2))]
    for n in (4, 5):
        for x in elements:
            assert is_invariant(x, 3, n, shared) == is_invariant(x, 3, n)
    assert sorted(shared) == [("invariant", 3, 4), ("invariant", 3, 5)]


def test_is_in_kernel_agrees_with_the_polynomial_and_shares_conditions():
    # one dict shared by many checks holds one kernel condition per (d, n),
    # and each answer is whether the element's polynomial is zero
    shared: dict = {}
    elements = [fixtures.element("vol3_concat_sq"), volume_element(3), fixtures.element("w1"),
                fixtures.element("vol3_concat_sq") + volume_element(3).scale(qq(1, 3))]
    for n in (3, 4, 5, 6):
        for x in elements:
            expected = signature_polynomial(x, n).is_zero()
            assert is_in_kernel(x, n, shared) == is_in_kernel(x, n) == expected
    assert sorted(shared) == [("kernel", 3, n) for n in (3, 4, 5, 6)]
    assert not is_in_kernel(volume_element(3), 4)
    assert is_in_kernel(fixtures.element("vol3_concat_sq"), 5)


def test_one_conditions_dict_serves_every_membership_check():
    # the three checks key their conditions by kind, so a dict shared between
    # them answers as fresh ones do: vol3 is invariant on 4 points but not in
    # the 4-point kernel, it vanishes on 3 points, and closing 3 or 4 of its
    # segments into a loop is visible
    vol3 = volume_element(3)
    shared: dict = {}
    for _ in range(2):
        assert not is_in_kernel(vol3, 4, shared) and not is_in_kernel(vol3, 4)
        assert is_invariant(vol3, 3, 4, shared) and is_invariant(vol3, 3, 4)
        assert is_in_kernel(vol3, 3, shared) and is_in_kernel(vol3, 3)
        for m in (3, 4):
            assert not loopclosure_membership(vol3, segments=m, conditions=shared)
            assert not loopclosure_membership(vol3, segments=m)
    assert sorted(shared) == [("invariant", 3, 4), ("kernel", 3, 3), ("kernel", 3, 4),
                              ("loopclosure", 3, 3), ("loopclosure", 3, 4)]


def test_is_invariant_rejects_single_letter():
    assert not is_invariant(TensorElement.from_word(2, (1,)), 2, 5)


def test_conjecture_evidence_small():
    r2 = conjecture_evidence(2, 2)
    assert (r2["dim_image"], r2["predicted_dim_image"], r2["verdict"]) == (1, 1, "consistent")
    r3 = conjecture_evidence(2, 3)
    assert r3["predicted_dim_image"] == 0
    assert r3["verdict"] == "consistent"
    r4 = conjecture_evidence(2, 4)
    assert (r4["predicted_dim_image"], r4["verdict"]) == (1, "consistent")
    assert r4["witness_in_space"]


def test_graded_basis_round_trip():
    basis = timerev_space(2, 2)
    for element, row in zip(basis.elements, basis.space.basis):
        assert basis.coordinate_vector(element) == row
    with pytest.raises(ValueError):
        basis.coordinate_vector(TensorElement.from_word(2, (1,)))


def test_space_json_schema():
    group = stabilizer_structural(3, 4)
    basis = invariant_space(3, 4, 3, group)
    data = basis.to_json(dim_image=dim_image(basis, 4))
    assert data["d"] == 3 and data["n"] == 4 and data["k"] == 3
    assert data["dim_raw"] == 1 and data["dim_image"] == 1
    assert data["basis"] == ["123 - 132 - 213 + 231 + 312 - 321"]


def test_invariant_space_matches_concrete_path_pairings():
    # implementation-independent cross-check: for every basis element,
    # permuting the control points of a concrete path never changes the
    # signature pairing
    rng = random.Random(31)
    for d, n, maxk in ((2, 4, 3), (3, 4, 3)):
        group = stabilizer_structural(d, n)
        for k in range(1, maxk + 1):
            basis = invariant_space(d, n, k, group)
            for element in basis.elements[:6]:
                for _ in range(3):
                    pts = [
                        tuple(qq(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(d))
                        for _ in range(n)
                    ]
                    path = PLPath(pts)
                    base = pair(pl_signature(path, k), element)
                    for perm in group.elements:
                        permuted = path.permuted(perm.images)
                        assert pair(pl_signature(permuted, k), element) == base


def test_conjecture_evidence_d3():
    report = conjecture_evidence(3, 3)
    assert (report["dim_image"], report["predicted_dim_image"]) == (1, 1)
    assert report["verdict"] == "consistent"


def test_fixture_elements_properties():
    sq = fixtures.element("vol3_concat_sq")
    assert antipode(sq) == sq
    assert signature_polynomial(sq, 5).is_zero()
    assert not signature_polynomial(sq, 6).is_zero()  # visible with one more point
    loop = fixtures.element("loop_d2_deg6")
    assert loopclosure_membership(loop)
    assert loopclosure_membership(antipode(loop))


def test_fixture_elements_are_handed_out_as_copies():
    # each bundled file is parsed once, so a caller that changed a shared element would change every later one
    names = ["w1", *fixtures.LEVEL7_NAMES]
    first = {name: fixtures.element(name) for name in names}
    for x in first.values():
        x.terms.clear()
    assert fixtures.element("w1") == fixtures.load_elements("invariants_d3_n4.txt", 3)["w1"]
    level7 = fixtures.load_elements("level7_kernel_d4.txt", 4)
    assert all(fixtures.element(name) == level7[name] for name in fixtures.LEVEL7_NAMES)
