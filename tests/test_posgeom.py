import math
import random
from itertools import combinations, permutations

import pytest

from sigvol import fixtures, posgeom
from sigvol.exactq import qq
from sigvol.freealg import permutation_sign, volume_element
from sigvol.invariants import conjecture_evidence, inv_d_space, invariant_space, is_invariant
from sigvol.posgeom import (
    CyclicInstance,
    PermGroup,
    Permutation,
    _criterion_echelon,
    gale_facets,
    is_positive_matrix,
    moment_curve_instance,
    named_group,
    polytope_volume,
    signed_volume,
    stabilizer_bruteforce,
    stabilizer_structural,
)
from sigvol.sigpoly import PLPath, path_pair
from sigvol.verify import STABILIZER_TABLE

from oracles import (
    DegenerateFacetError,
    facet_check_det,
    kaibel_wassmer_order,
    permute_control_points,
    stabilizes_positivity,
)


# -- permutations --------------------------------------------------------------


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.compose(p.inverse()).is_identity()
    assert p.sign() == 1
    assert Permutation((2, 1, 3)).sign() == -1
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_permutation_from_cycles():
    p = Permutation.from_cycles(4, (1, 2, 3))
    assert p.images == (2, 3, 1, 4)
    q = Permutation.from_cycles(4, (1, 2), (3, 4))
    assert q.images == (2, 1, 4, 3)


def test_group_generation_and_json():
    rot = Permutation((2, 3, 4, 5, 1))
    g = PermGroup.generated(5, [rot], "Z/n")
    assert g.order == 5
    data = g.to_json()
    assert data["order"] == 5 and data["structure_tag"] == "Z/n"
    assert "elements" in data  # small group ships its element list


def test_identity_is_not_a_generator():
    rot = Permutation((2, 3, 4, 5, 1))
    assert PermGroup.generated(5, [Permutation.identity(5), rot], "Z/n").generators == [rot]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_named_group_orders(n):
    orders = {"trivial": 1, "cyclic": n, "dihedral": 2 * n, "full": math.factorial(n)}
    for name, order in orders.items():
        assert named_group(name, n).order == order
    with pytest.raises(ValueError):
        named_group("alternating", n)


def test_full_group_on_one_and_two_points():
    assert named_group("full", 1).order == 1
    assert named_group("full", 2).order == 2


@pytest.fixture
def closure_calls(monkeypatch):
    """The (n, generators) of every `posgeom._closure` call made while the test runs."""
    calls = []
    closure = posgeom._closure

    def counted(n, generators):
        calls.append((n, list(generators)))
        return closure(n, generators)

    monkeypatch.setattr(posgeom, "_closure", counted)
    return calls


def test_invariant_solves_never_enumerate_a_group(closure_calls):
    # smallest groups first, so a solve that enumerates fails before it lists A_10 or A_11
    shared = {}
    for name in ("w1", "w2"):
        assert is_invariant(fixtures.element(name), 3, 4, shared)
    assert conjecture_evidence(8, 1)["verdict"] == "consistent"
    assert closure_calls == []
    for d in range(3, 11):
        inv_d_space(d, 2)
        assert closure_calls == [], d
    # A_10 has 1,814,400 elements; the invariance condition reads its 8 generators only
    assert invariant_space(9, 10, 2, stabilizer_structural(9, 10)).dim == 0
    assert closure_calls == []


def test_elements_are_enumerated_once(closure_calls):
    group = stabilizer_structural(4, 6)
    assert closure_calls == []
    first = group.elements
    assert group.elements is first
    assert group.order == len(first) and first[0] in group
    assert len(closure_calls) == 1


def test_large_group_json_is_not_enumerated(closure_calls):
    # A_10: the order comes from its structure tag, and no element list is printed above order 100
    data = stabilizer_structural(9, 10).to_json()
    assert closure_calls == []
    assert data["order"] == 1814400 and "elements" not in data


def test_untagged_group_is_counted_on_first_use(closure_calls):
    group = PermGroup.generated(5, [Permutation((2, 3, 4, 5, 1))], "custom")
    assert closure_calls == []
    assert group.order == 5 and len(closure_calls) == 1


@pytest.mark.parametrize("n", range(2, 10))
def test_structural_orders_are_the_closure_lengths(n):
    for d in range(1, n):
        group = stabilizer_structural(d, n)
        assert group.order == len(posgeom._closure(n, group.generators)), (d, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_named_group_orders_are_the_closure_lengths(n):
    for name in posgeom.GROUP_NAMES:
        group = named_group(name, n)
        assert group.order == len(posgeom._closure(n, group.generators)), name


def test_structural_construction_needs_d_at_least_one():
    with pytest.raises(ValueError):
        stabilizer_structural(0, 2)


@pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (4, 6), (2, 7), (4, 7), (6, 8), (7, 8)])
def test_structural_elements_are_the_sorted_closure(d, n):
    group = stabilizer_structural(d, n)
    expected = sorted(posgeom._closure(n, group.generators), key=lambda p: p.images)
    assert group.elements == expected


# -- positivity ----------------------------------------------------------------


def test_moment_curve_is_positive():
    inst = moment_curve_instance(2, 5, [1, 2, 3, 4, 5])
    assert is_positive_matrix(inst.path)


def test_reversed_columns_not_positive():
    inst = moment_curve_instance(2, 5, [1, 2, 3, 4, 5])
    assert not is_positive_matrix(inst.path.reversed())


def test_simplex_with_positive_determinant():
    path = PLPath([(0, 0), (1, 0), (0, 1)])
    assert is_positive_matrix(path)


def test_positivity_needs_enough_points():
    with pytest.raises(ValueError):
        is_positive_matrix(PLPath([(0, 0), (1, 1)]))


def test_moment_curve_validation():
    with pytest.raises(ValueError):
        moment_curve_instance(2, 3, [1, 1, 2])
    with pytest.raises(ValueError):
        moment_curve_instance(2, 3, [3, 2, 1])
    inst = moment_curve_instance(3, 6, [1, 2, 3, 4, 5, 6])
    assert inst.d == 3 and inst.n == 6
    one = moment_curve_instance(1, 4, [qq(-1), qq(0), qq(1, 2), qq(7)])
    assert is_positive_matrix(one.path)


def test_moment_curve_instances_are_positive():
    # moment_curve_instance relies on the Vandermonde argument; every minor is checked here
    rng = random.Random(1606)
    for d in range(1, 6):
        for n in range(d + 1, 10):
            ts = set()
            while len(ts) < n:
                ts.add(qq(rng.randint(-40, 40), rng.randint(1, 9)))
            ts = sorted(ts)
            assert is_positive_matrix(moment_curve_instance(d, n, ts).path), (d, n, ts)


def test_moment_curve_needs_d_plus_one_points():
    with pytest.raises(ValueError, match=r"^need at least d\+1 = 3 points, got 2$"):
        moment_curve_instance(2, 2, [0, 1])
    # the parameter checks come first
    with pytest.raises(ValueError, match="expected 3 parameters"):
        moment_curve_instance(2, 3, [1, 0])
    with pytest.raises(ValueError, match="strictly increasing"):
        moment_curve_instance(2, 2, [1, 0])


def test_cyclic_instance_rejects_a_non_positive_configuration():
    reversed_pentagon = moment_curve_instance(2, 5, [0, 1, 2, 3, 4]).path.reversed()
    with pytest.raises(ValueError, match="not positive"):
        CyclicInstance(reversed_pentagon)


def test_pentagon_points_explicit():
    inst = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    assert inst.path.points[2] == (qq(2), qq(4))


# -- stabilizers ---------------------------------------------------------------


def test_bruteforce_examples():
    assert stabilizer_bruteforce(3, 4).order == 12  # alternating group
    assert stabilizer_bruteforce(2, 5).order == 5  # cyclic
    assert stabilizer_bruteforce(5, 8).order == 1  # trivial


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        stabilizer_bruteforce(2, 10)


def _unpruned_filter(d, n):
    """The plain filter of all of S_n by the inversion-parity criterion, in lexicographic order."""
    subsets = list(combinations(range(n), d + 1))
    return [
        Permutation(images)
        for images in permutations(range(1, n + 1))
        if all(permutation_sign([images[i] for i in subset]) > 0 for subset in subsets)
    ]


def _greedy_generators(n, elements):
    """Each element not yet generated by the ones chosen before it, until the group is reached."""
    gens, span = [], {Permutation.identity(n)}
    for e in elements:
        if e not in span:
            gens.append(e)
            span = set(PermGroup.generated(n, gens, "partial").elements)
            if len(span) == len(elements):
                break
    return gens


ORACLE_PAIRS = [(d, n) for n in range(2, 9) for d in range(1, n)] + [(2, 9), (6, 9)]


@pytest.mark.parametrize("d,n", ORACLE_PAIRS)
def test_bruteforce_matches_unpruned_filter(d, n):
    expected = _unpruned_filter(d, n)
    group = stabilizer_bruteforce(d, n)
    assert group.elements == expected
    assert group.generators == _greedy_generators(n, expected)
    assert group.structure_tag == "bruteforce"


def test_bruteforce_orders_of_the_tabulated_pairs():
    assert [stabilizer_bruteforce(d, n).order for (d, n), _ in STABILIZER_TABLE] == [
        order for _, order in STABILIZER_TABLE
    ]


def _inversion_vector(images):
    return sum(
        1 << (j * (j - 1) // 2 + i)
        for i, j in combinations(range(len(images)), 2)
        if images[i] > images[j]
    )


@pytest.mark.parametrize("d,n", [(2, 6), (3, 7), (4, 7), (5, 7), (6, 9), (7, 8)])
def test_criterion_echelon_rows(d, n):
    checks = _criterion_echelon(d, n)
    rows = [row for at_p in checks for row in at_p]
    tops = [row.bit_length() - 1 for row in rows]
    assert len(set(tops)) == len(rows)
    for p, at_p in enumerate(checks):
        for row in at_p:
            # the top pair ends at position p, and every pair lies inside the first p+1 positions
            assert p * (p - 1) // 2 <= row.bit_length() - 1 < p * (p + 1) // 2
    # every row is a sum of criterion rows, so it is even on every element that passes the criterion
    for perm in stabilizer_bruteforce(d, n).elements:
        x = _inversion_vector(perm.images)
        assert all((x & row).bit_count() % 2 == 0 for row in rows), (d, n, perm)


def test_criterion_echelon_rank_for_the_alternating_case():
    # n = d+1: the one criterion row is the full permutation's parity, checked at the last position
    checks = _criterion_echelon(4, 5)
    assert [len(at_p) for at_p in checks] == [0, 0, 0, 0, 1]
    assert checks[4][0] == (1 << 10) - 1


def test_structural_examples():
    d7 = stabilizer_structural(4, 7)
    assert d7.order == 14 and d7.structure_tag == "D_n"
    z2 = stabilizer_structural(3, 6)
    assert z2.order == 2
    assert Permutation((6, 5, 4, 3, 2, 1)) in z2
    # the plain endpoint swap is an automorphism but breaks positivity
    assert not stabilizes_positivity(Permutation((6, 2, 3, 4, 5, 1)), 3)
    a5cap = stabilizer_structural(3, 5)
    assert a5cap.order == 6


def test_brute_equals_structural_exhaustive():
    for d in range(2, 7):
        for n in range(d + 1, min(d + 4, 9) + 1):
            brute = stabilizer_bruteforce(d, n)
            structural = stabilizer_structural(d, n)
            assert brute.same_elements(structural), (d, n)


def test_stabilizer_divides_automorphism_group_order():
    for d in range(2, 7):
        for n in range(d + 1, min(d + 4, 9) + 1):
            order = stabilizer_structural(d, n).order
            assert kaibel_wassmer_order(d, n) % order == 0, (d, n)


def test_membership_is_instance_free():
    # the combinatorial criterion agrees with testing a concrete instance
    inst = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    from itertools import permutations as iperms

    for images in iperms(range(1, 6)):
        perm = Permutation(images)
        permuted = inst.path.permuted(images)
        assert stabilizes_positivity(perm, 2) == is_positive_matrix(permuted)


def test_structural_groups_beyond_bruteforce_range():
    # n = 12 is far past the brute-force guard; every element must still
    # satisfy the instance-free positivity criterion
    expected = {
        (2, 12): ("Z/n", 12),
        (3, 12): ("Z/2", 2),
        (4, 12): ("D_n", 24),
        (5, 12): ("trivial", 1),
        (7, 12): ("Z/2", 2),
        (6, 12): ("Z/n", 12),
    }
    for (d, n), (tag, order) in expected.items():
        group = stabilizer_structural(d, n)
        assert (group.structure_tag, group.order) == (tag, order), (d, n)
        for perm in group.elements:
            assert stabilizes_positivity(perm, d), (d, n, perm)


def test_every_stabilizer_element_fixes_volume_polynomial():
    from sigvol.freealg import volume_element
    from sigvol.sigpoly import SigPolyCalculator

    for d, n in ((2, 4), (2, 5), (3, 4), (3, 5)):
        poly = SigPolyCalculator(d, n).element_poly(volume_element(d))
        for perm in stabilizer_structural(d, n).elements:
            assert permute_control_points(poly, perm.images) == poly, (d, n, perm)


# -- facets ----------------------------------------------------------------------


def test_gale_pentagon_edges():
    assert gale_facets(2, 5) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_gale_simplex_all_triples():
    assert gale_facets(3, 4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_gale_d3_n6_eight_facets():
    facets = gale_facets(3, 6)
    assert len(facets) == 8
    inst = moment_curve_instance(3, 6, [1, 2, 3, 4, 5, 6])
    for f in facets:
        assert facet_check_det(inst, f)
    for other in combinations(range(1, 7), 3):
        if other not in facets:
            assert not facet_check_det(inst, other)


def test_gale_agrees_with_determinant_check_up_to_4_8():
    for d in range(2, 5):
        for n in range(d + 1, 9):
            inst = moment_curve_instance(d, n, list(range(1, n + 1)))
            facets = set(gale_facets(d, n))
            for subset in combinations(range(1, n + 1), d):
                assert facet_check_det(inst, subset) == (subset in facets), (d, n, subset)


def test_facet_check_trivial_triangle():
    path = PLPath([(0, 0), (1, 0), (0, 1)])
    assert facet_check_det(CyclicInstance(path), (1, 2))


def test_facet_check_rejects_diagonal():
    inst = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    assert not facet_check_det(inst, (1, 3))


def test_facet_check_degenerate_reported():
    collinear = PLPath([(0, 0), (1, 1), (2, 2), (0, 1)])
    with pytest.raises(DegenerateFacetError):
        facet_check_det(collinear, (1, 3))


# -- volumes ---------------------------------------------------------------------


def test_unit_triangle_volume():
    inst = CyclicInstance(PLPath([(0, 0), (1, 0), (0, 1)]))
    assert polytope_volume(inst) == qq(1, 2)


def test_pentagon_volume_both_ways():
    inst = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    assert polytope_volume(inst) == 10
    assert signed_volume(inst.path) == 10


def test_reversed_pentagon_signed_volume():
    inst = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    assert signed_volume(inst.path.reversed()) == -10


def test_single_segment_zero_volume():
    assert signed_volume(PLPath([(0, 0), (3, 5)])) == 0
    assert signed_volume(PLPath([(0, 0, 0), (1, 2, 3)])) == 0


def test_d3_volume_agreement():
    inst = moment_curve_instance(3, 5, [0, 1, 2, 3, 4])
    assert polytope_volume(inst) == signed_volume(inst.path)


def test_d1_signed_volume_is_length():
    path = PLPath([(qq(1),), (qq(4),)])
    assert signed_volume(path) == 3


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_signed_volume_is_the_volume_element_pairing(d):
    rng = random.Random(d)
    for n in range(1, d + 7):
        points = [tuple(qq(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)) for _ in range(n)]
        path = PLPath(points)
        expected = path_pair(path, volume_element(d)) / math.factorial(d)
        assert signed_volume(path) == expected
        if n - 1 < d:
            assert expected == 0  # fewer segments than coordinates span no volume


def test_signed_volume_at_d10_matches_the_triangulation():
    inst = moment_curve_instance(10, 11, range(11))
    assert signed_volume(inst.path) == polytope_volume(inst)
