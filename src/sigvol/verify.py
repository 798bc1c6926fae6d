"""The bundled verification suite.

Every check reproduces a published reference value or identity exactly (no
tolerances anywhere): the graded dimension table, the two bundled invariant
elements and their polynomial images, stabilizer groups against brute force,
kernel and loop-closure memberships of the bundled elements, the volume
agreements, and six exact property suites on seeded random inputs.

`run_all` powers the ``reproduce-paper`` CLI verb; the pytest acceptance
module calls the same checks one by one.
"""

from __future__ import annotations

import random
import time
from itertools import permutations as _iperms

from . import fixtures
from .exactq import SubspaceQ, qq
from .freealg import (
    TensorElement,
    antipode,
    lyndon_words,
    shuffle,
    shuffle_power,
    volume_element,
)
from .invariants import (
    dim_image,
    inv_d_space,
    invariant_space,
    is_in_kernel,
    is_invariant,
    kernel_space,
    loopclosure_combinations,
    loopclosure_membership,
    loopclosure_space,
    words_of_degree,
)
from .posgeom import (
    moment_curve_instance,
    polytope_volume,
    signed_volume,
    stabilizer_bruteforce,
    stabilizer_structural,
)
from .sigpoly import (
    PLPath,
    chen_product,
    pair,
    parse_polynomial,
    path_pair,
    pl_signature,
    signature_polynomial,
    substitute_collinear,
)

DIMENSION_TABLE = {1: 0, 2: 0, 3: 1, 4: 0, 5: 6, 6: 11}
STABILIZER_TABLE = [
    ((2, 4), 4), ((2, 5), 5), ((2, 6), 6),
    ((3, 4), 12), ((3, 5), 6), ((3, 6), 2), ((3, 7), 2),
    ((4, 6), 36), ((4, 7), 14),
    ((5, 7), 72), ((5, 8), 1),
    ((6, 9), 9),
]
LYNDON_COUNTS_D2 = [2, 1, 2, 3, 6, 9]


def _random_path(rng: random.Random, d: int, n: int) -> PLPath:
    return PLPath(
        [tuple(qq(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)) for _ in range(n)]
    )


def _random_element(rng: random.Random, d: int, maxdeg: int, nterms: int = 3) -> TensorElement:
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, maxdeg)))
        terms[w] = qq(rng.randint(-4, 4), rng.randint(1, 3))
    return TensorElement(d, terms)


def _inv_d_3_6(cache: dict):
    """The degree-6 simultaneous invariants for d = 3, solved once per cache."""
    if "inv_d_3_6" not in cache:
        cache["inv_d_3_6"] = inv_d_space(3, 6)
    return cache["inv_d_3_6"]


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def check_dimension_table(cache: dict) -> tuple[bool, str]:
    group = stabilizer_structural(3, 4)
    image_dims = {}
    raw_dims = {}
    for k in range(1, 7):
        inv = invariant_space(3, 4, k, group)
        raw_dims[k] = inv.dim
        image_dims[k] = dim_image(inv, 4)
    ok = image_dims == DIMENSION_TABLE
    total = sum(image_dims.values())
    return ok, (
        f"image dims degree 1..6 = {[image_dims[k] for k in range(1, 7)]}, sum {total} "
        f"(expected {[DIMENSION_TABLE[k] for k in range(1, 7)]}, sum 18); "
        f"raw dims incl. kernel = {[raw_dims[k] for k in range(1, 7)]}"
    )


def check_bundled_invariants(cache: dict) -> tuple[bool, str]:
    details = []
    ok = True
    for name in ("w1", "w2"):
        element = fixtures.element(name)
        image = fixtures.image_polynomial(name)
        inv = is_invariant(element, 3, 4)
        exact = signature_polynomial(element, 4) == image
        ok = ok and inv and exact
        details.append(f"{name}: invariant={inv}, image bit-exact={exact}")
    return ok, "; ".join(details)


def check_base_expansion(cache: dict) -> tuple[bool, str]:
    got = signature_polynomial((1, 2, 3), 3, d=3)
    expected = parse_polynomial(
        "1/6*a[2][1]*a[2][2]*a[2][3] + 1/2*a[1][1]*a[2][2]*a[2][3]"
        " + 1/2*a[1][1]*a[1][2]*a[2][3] + 1/6*a[1][1]*a[1][2]*a[1][3]",
        3,
        3,
    )
    return got == expected, "3-point polynomial of the word 123 matches the four-term expansion"


def check_stabilizers(cache: dict) -> tuple[bool, str]:
    problems = []
    for (d, n), order in STABILIZER_TABLE:
        brute = stabilizer_bruteforce(d, n)
        structural = stabilizer_structural(d, n)
        if not brute.same_elements(structural):
            problems.append(f"({d},{n}): element sets differ")
        if brute.order != order:
            problems.append(f"({d},{n}): order {brute.order} != {order}")
    if problems:
        return False, "; ".join(problems)
    return True, f"brute force == structural for all {len(STABILIZER_TABLE)} pairs, orders {[o for _, o in STABILIZER_TABLE]}"


def check_concat_square(cache: dict) -> tuple[bool, str]:
    sq = fixtures.element("vol3_concat_sq")
    in_kernel = is_in_kernel(sq, 5)
    kernel = kernel_space(3, 5, 6)
    in_kernel_space = kernel.contains(sq)
    fixed = antipode(sq) == sq
    inv = _inv_d_3_6(cache)
    member = inv.contains(sq)
    ok = in_kernel and in_kernel_space and fixed and member
    return ok, (
        f"5-point polynomial zero={in_kernel}, in kernel space (dim {kernel.dim})={in_kernel_space}, "
        f"antipode-fixed={fixed}, in simultaneous invariants (dim {inv.dim})={member}"
    )


def check_level7(cache: dict) -> tuple[bool, str]:
    elements = [fixtures.element(name) for name in fixtures.LEVEL7_NAMES]
    kernels: dict = {}
    kernel_ok = all(is_in_kernel(e, 6, kernels) for e in elements)
    combos = loopclosure_combinations(elements, 7).dim
    cache["level7_independent"] = combos == 0
    ok = kernel_ok and combos == 0
    return ok, f"all 8 in the 6-point kernel={kernel_ok}; loop-closure combinations={combos} (expected 0)"


def check_planar_loop_invariant(cache: dict) -> tuple[bool, str]:
    loop = fixtures.element("loop_d2_deg6")
    member = loopclosure_membership(loop)
    area_cubed = shuffle_power(volume_element(2), 3)
    words = words_of_degree(2, 6)
    index = {w: i for i, w in enumerate(words)}
    vectors = [{index[w]: c for w, c in x.terms.items()} for x in (loop, area_cubed)]
    independent = SubspaceQ(len(words), vectors).dim == 2
    return member and independent, f"loop-closure member={member}, independent of cubed signed area={independent}"


def check_volume_agreement(cache: dict) -> tuple[bool, str]:
    pent = moment_curve_instance(2, 5, [0, 1, 2, 3, 4])
    ok = polytope_volume(pent) == 10 and signed_volume(pent.path) == 10
    rng = random.Random(20250808)
    checked = 0
    while checked < 20:
        d = rng.choice([2, 3])
        n = rng.randint(d + 1, 8)
        params = sorted({qq(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(n + 4)})
        if len(params) < n:
            continue
        inst = moment_curve_instance(d, n, params[:n])
        if polytope_volume(inst) != signed_volume(inst.path):
            return False, f"mismatch at d={d}, n={n}, params={params[:n]}"
        checked += 1
    return ok, "pentagon = 10 both ways; 20 random moment-curve instances agree exactly"


def check_permutation_sampling(cache: dict) -> tuple[bool, str]:
    for d, n, params in ((2, 5, [0, 1, 2, 3, 4]), (3, 4, [1, 2, 4, 7])):
        inst = moment_curve_instance(d, n, params)
        members = {p.images for p in stabilizer_structural(d, n).elements}
        vol = signed_volume(inst.path)
        for images in _iperms(range(1, n + 1)):
            permuted = signed_volume(inst.path.permuted(images))
            if images in members:
                if permuted != vol:
                    return False, f"stabilizer element {images} changed the signed volume"
            elif permuted >= vol:
                return False, f"non-member {images} did not strictly decrease it"
    return True, "exhaustive over S_5 and S_4: members preserve, non-members strictly decrease"


def _suite_ree_homomorphism(rng: random.Random) -> bool:
    for _ in range(100):
        d = rng.choice([2, 3])
        p = _random_element(rng, d, 3, 2)
        q = _random_element(rng, d, 3, 2)
        pq = shuffle(p, q)
        path = _random_path(rng, d, rng.randint(2, 4))
        sig = pl_signature(path, 6)
        if pair(sig, pq) != pair(sig, p) * pair(sig, q):
            return False
        n = rng.randint(2, 4)
        if signature_polynomial(pq, n) != signature_polynomial(p, n) * signature_polynomial(q, n):
            return False
    return True


def _suite_chen(rng: random.Random) -> bool:
    for _ in range(100):
        d = rng.choice([2, 3])
        left = _random_path(rng, d, rng.randint(2, 4))
        right_points = [left.points[-1]] + [
            tuple(qq(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            for _ in range(rng.randint(1, 3))
        ]
        right = PLPath(right_points)
        whole = left.concat(right)
        maxdeg = rng.randint(1, 4)
        if pl_signature(whole, maxdeg) != chen_product(
            pl_signature(left, maxdeg), pl_signature(right, maxdeg)
        ):
            return False
    return True


def _suite_antipode_reversal(rng: random.Random) -> bool:
    for _ in range(100):
        d = rng.choice([2, 3])
        path = _random_path(rng, d, rng.randint(2, 5))
        x = _random_element(rng, d, 4, 3)
        sig = pl_signature(path, 4)
        rev = pl_signature(path.reversed(), 4)
        if pair(rev, x) != pair(sig, antipode(x)):
            return False
    return True


def _suite_collinear(rng: random.Random) -> bool:
    for _ in range(100):
        d = rng.choice([2, 3])
        n = rng.randint(3, 5)
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 3)))
        poly = signature_polynomial(w, n, d=d)
        i = rng.randint(2, n - 1)
        subs = [substitute_collinear(poly, i, lam) for lam in (qq(0), qq(1, 3), qq(1))]
        if not (subs[0] == subs[1] == subs[2] == signature_polynomial(w, n - 1, d=d)):
            return False
    return True


def _suite_grading(rng: random.Random) -> bool:
    for _ in range(100):
        d = rng.choice([2, 3])
        j, k = rng.randint(1, 3), rng.randint(1, 3)
        x = TensorElement(d, {tuple(rng.randint(1, d) for _ in range(j)): qq(rng.randint(1, 5))})
        y = TensorElement(d, {tuple(rng.randint(1, d) for _ in range(k)): qq(rng.randint(1, 5))})
        prod = shuffle(x, y)
        if not prod.is_zero() and prod.degrees() != [j + k]:
            return False
        n = rng.randint(2, 4)
        poly = signature_polynomial(x, n)
        if not poly.is_zero() and (not poly.is_homogeneous() or poly.degree() != j):
            return False
    return True


def _suite_loopclosure_segments(rng: random.Random) -> bool:
    """The degree-k closure invariants on k and k + 1 segments, and their pairings with loops.

    On m >= k segments the closure condition reads no m, so the two spaces
    agree even for a wrong closure map.  Each basis element must also pair
    with seeded open paths of k and k + 1 segments as with those paths closed
    on either side: Chen's identity evaluated on paths, not through the word map.
    """
    for d in (1, 2, 3):
        for k in range(1, 5):
            base = loopclosure_space(d, k, segments=k)
            more = loopclosure_space(d, k, segments=k + 1)
            if base.space != more.space:
                return False
            for m in (k, k + 1):
                path = _random_path(rng, d, m + 1)
                loops = (PLPath(path.points + path.points[:1]), PLPath(path.points[-1:] + path.points))
                for x in base.elements:
                    value = path_pair(path, x)
                    if any(path_pair(loop, x) != value for loop in loops):
                        return False
    return True


PROPERTY_SUITES = [
    ("shuffle pairing multiplicativity and polynomial homomorphism", _suite_ree_homomorphism),
    ("concatenation identity for path signatures", _suite_chen),
    ("antipode adjoint to time reversal", _suite_antipode_reversal),
    ("collinear substitution weight-independence", _suite_collinear),
    ("grading of shuffle and of signature polynomials", _suite_grading),
    ("loop-closure segment-count robustness", _suite_loopclosure_segments),
]


def check_property_suites(cache: dict) -> tuple[bool, str]:
    failures = []
    for i, (name, suite) in enumerate(PROPERTY_SUITES):
        rng = random.Random(987000 + i)
        if not suite(rng):
            failures.append(name)
    if failures:
        return False, "failed: " + "; ".join(failures)
    return True, f"{len(PROPERTY_SUITES)} exact property suites passed (100 seeded cases each)"


def check_lyndon_counts(cache: dict) -> tuple[bool, str]:
    got = [len(lyndon_words(2, k)) for k in range(1, 7)]

    def necklace_oracle(d: int, k: int) -> int:
        # Witt count via Moebius: (1/k) * sum_{e | k} mu(e) d^(k/e)
        def mu(m: int) -> int:
            result, p = 1, 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    result = -result
                p += 1
            return -result if m > 1 else result

        return sum(mu(e) * d ** (k // e) for e in range(1, k + 1) if k % e == 0) // k

    oracle = [necklace_oracle(2, k) for k in range(1, 7)]
    ok = got == LYNDON_COUNTS_D2 == oracle
    return ok, f"counts {got}, oracle {oracle}, expected {LYNDON_COUNTS_D2}"


def check_finite_witnesses(cache: dict) -> tuple[bool, str]:
    vol3 = volume_element(3)
    low = inv_d_space(3, 3)
    low_ok = low.contains(vol3)
    inv = _inv_d_3_6(cache)
    sq_ok = inv.contains(fixtures.element("vol3_concat_sq"))
    shuffle_ok = inv.contains(shuffle_power(vol3, 2))  # shuffle-subalgebra closure
    independent = cache.get("level7_independent")
    if independent is None:
        independent = check_level7(cache)[0]
    ok = low_ok and sq_ok and shuffle_ok and bool(independent)
    return ok, (
        f"signed volume in degree-3 simultaneous invariants (dim {low.dim})={low_ok}; "
        f"concatenation square and shuffle square in degree-6 ones (dim {inv.dim})="
        f"{sq_ok}/{shuffle_ok}; level-7 independence certificate={independent}"
    )


CRITERIA = [
    (1, "graded dimension table for 4 points in d=3 (image dims 0,0,1,0,6,11)", check_dimension_table),
    (2, "bundled degree-5/6 invariants: invariance and bit-exact images", check_bundled_invariants),
    (3, "three-point polynomial of the word 123 (four-term expansion)", check_base_expansion),
    (4, "stabilizer brute force == structural construction (12 pairs)", check_stabilizers),
    (5, "concatenation square: kernel membership, antipode-fixed, invariant", check_concat_square),
    (6, "eight degree-7 products: 6-point kernel, no loop-closure combination", check_level7),
    (7, "planar degree-6 loop-closure invariant, independent of signed area", check_planar_loop_invariant),
    (8, "signed volume == triangulation volume (pentagon + 20 random)", check_volume_agreement),
    (9, "exhaustive permutation sampling of signed volume for (2,5), (3,4)", check_permutation_sampling),
    (10, "six exact property suites, 100 seeded random cases each", check_property_suites),
    (11, "Lyndon word counts for d=2, degrees 1..6", check_lyndon_counts),
    (12, "finite-degree witnesses for the abundance of invariants", check_finite_witnesses),
]


def run_criterion(number: int, cache: dict | None = None) -> tuple[bool, str]:
    cache = cache if cache is not None else {}
    for num, _, fn in CRITERIA:
        if num == number:
            return fn(cache)
    raise ValueError(f"no criterion {number}")


def run_all(only: list[int] | None = None, progress=None) -> list[dict]:
    cache: dict = {}
    results = []
    for num, description, fn in CRITERIA:
        if only and num not in only:
            continue
        if progress:
            progress(f"[{num:2d}] {description} ...")
        start = time.time()
        ok, detail = fn(cache)
        results.append({"criterion": num, "description": description, "pass": ok, "detail": detail})
        if progress:
            seconds = round(time.time() - start, 1)
            progress(f"[{num:2d}] {'PASS' if ok else 'FAIL'} ({seconds}s) {detail}")
    return results
