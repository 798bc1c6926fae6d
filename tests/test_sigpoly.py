import math
import random
from fractions import Fraction
from itertools import product

import pytest

from sigvol import fixtures
from sigvol.exactq import qq
from sigvol.freealg import TensorElement, antipode, concat, parse_element, shuffle, volume_element
from sigvol.invariants import loopclosure_membership
from sigvol.sigpoly import (
    FIELD_BITS,
    MAX_DEGREE,
    IncrementPolynomial,
    PLPath,
    SigPolyCalculator,
    TruncatedSignature,
    chen_product,
    integral_coefficients,
    pair,
    parse_polynomial,
    path_pair,
    permutation_substitution,
    pl_signature,
    polynomial_to_text,
    signature_polynomial,
    slice_mask,
    substitute_collinear,
)

from oracles import closure_differences, evaluate, permute_control_points, word_polynomial


def random_path(rng, d, n):
    return PLPath(
        [tuple(qq(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)) for _ in range(n)]
    )


PENTAGON = PLPath([(t, t * t) for t in range(5)])


# -- segment signatures and the concatenation product -------------------------


def test_segment_signature_product_formula():
    sig = pl_signature(PLPath([(0, 0), (1, 2)]), 2)
    assert sig.coeff((1, 2)) == 1  # 1*2/2!
    assert sig.coeff(()) == 1
    assert sig.coeff((1,)) == 1
    assert sig.coeff((2, 2)) == 2
    # every word's coefficient is the product of its letters' increments over k!
    rng = random.Random(43)
    for d, maxdeg in product(range(1, 5), range(1, 7)):
        a = [qq(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)) for _ in range(d)]
        # and a zero entry half the time
        if rng.random() < 0.5:
            a[rng.randrange(d)] = qq(0)
        expected = {(): qq(1)}
        for k in range(1, maxdeg + 1):
            for word in product(range(1, d + 1), repeat=k):
                c = qq(1, math.factorial(k))
                for letter in word:
                    c *= a[letter - 1]
                if c != 0:
                    expected[word] = c
        assert pl_signature(PLPath([(0,) * d, a]), maxdeg).terms == expected


def test_segment_signature_zero_increment():
    sig = pl_signature(PLPath([(0, 0), (0, 0)]), 3)
    assert sig == TruncatedSignature(2, 3)


def test_chen_unit():
    s = pl_signature(PENTAGON, 2)
    assert chen_product(s, TruncatedSignature(2, 2)) == s
    assert chen_product(TruncatedSignature(2, 2), s) == s
    for other in (TruncatedSignature(2, 3), TruncatedSignature(3, 2)):
        with pytest.raises(ValueError):
            chen_product(s, other)


def random_signature(rng, d, maxdeg):
    """Random terms on a random subset of the degrees 1..maxdeg."""
    degrees = rng.sample(range(1, maxdeg + 1), rng.randint(0, maxdeg))
    terms = {}
    for k in degrees:
        for _ in range(rng.randint(1, 4)):
            terms[tuple(rng.randint(1, d) for _ in range(k))] = qq(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSignature(d, maxdeg, terms)


def test_chen_product_is_truncated_concatenation():
    rng = random.Random(73)
    gaps = 0
    for maxdeg in range(6):
        for _ in range(10):
            d = rng.choice([1, 2, 3])
            s, t = random_signature(rng, d, maxdeg), random_signature(rng, d, maxdeg)
            for a, b in ((s, t), (t, s)):
                full = concat(TensorElement(d, a.terms), TensorElement(d, b.terms))
                expected = {w: c for w, c in full.terms.items() if len(w) <= maxdeg}
                assert chen_product(a, b).terms == expected
            profile = {len(w) for w in s.terms}
            gaps += profile != set(range(max(profile) + 1))
    assert gaps > 0


def test_chen_hand_example():
    x = PLPath([(0, 0), (1, 0)])
    y = PLPath([(1, 0), (1, 1)])
    prod = chen_product(pl_signature(x, 2), pl_signature(y, 2))
    assert prod.coeff((1, 2)) == 1
    assert prod.coeff((2, 1)) == 0
    assert prod == pl_signature(PLPath([(0, 0), (1, 0), (1, 1)]), 2)


def test_chen_associative():
    rng = random.Random(3)
    for _ in range(10):
        d = rng.choice([2, 3])
        sigs = [pl_signature(random_path(rng, d, 2), 3) for _ in range(3)]
        left = chen_product(chen_product(sigs[0], sigs[1]), sigs[2])
        right = chen_product(sigs[0], chen_product(sigs[1], sigs[2]))
        assert left == right


def test_chen_identity_for_concatenated_paths():
    rng = random.Random(4)
    for _ in range(15):
        d = rng.choice([2, 3])
        left = random_path(rng, d, rng.randint(2, 4))
        right = PLPath([left.points[-1]] + list(random_path(rng, d, 2).points))
        whole = left.concat(right)
        maxdeg = rng.randint(1, 4)
        assert pl_signature(whole, maxdeg) == chen_product(
            pl_signature(left, maxdeg), pl_signature(right, maxdeg)
        )


def segment_fold_signature(path, maxdeg):
    """Reference: each segment's full exponential, multiplied in by `chen_product`."""
    sig = TruncatedSignature(path.d, maxdeg)
    for a in path.increments():
        level, terms = {(): qq(1)}, {}
        for k in range(1, maxdeg + 1):
            level = {w + (i,): c * x / k for w, c in level.items() for i, x in enumerate(a, 1) if x != 0}
            terms.update(level)
        sig = chen_product(sig, TruncatedSignature(path.d, maxdeg, terms))
    return sig


def test_pl_signature_against_segment_fold():
    rng = random.Random(29)
    doubled = zeros = 0
    for case, (d, maxdeg) in enumerate(product(range(1, 5), range(8))):
        points = []
        for _ in range(case % 7 + 1):
            if points and rng.random() < 0.2:
                points.append(points[-1])
                doubled += 1
            else:
                points.append(tuple(
                    qq(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.8 else qq(0)
                    for _ in range(d)
                ))
                zeros += qq(0) in points[-1]
        path = PLPath(points)
        assert pl_signature(path, maxdeg) == segment_fold_signature(path, maxdeg)
    assert doubled and zeros


def test_path_pair_matches_the_full_signature():
    rng = random.Random(31)
    seen = {"lcm": 0, "zero": 0, "doubled": 0, "one_point": 0, "constant": 0, "open_prefix": 0}
    for d, npoints in product(range(1, 5), range(1, 8)):
        for _ in range(3):
            points = []
            for _ in range(npoints):
                if points and rng.random() < 0.2:
                    points.append(points[-1])
                    seen["doubled"] += 1
                else:
                    points.append(tuple(
                        qq(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 5, 7])) if rng.random() < 0.8 else qq(0)
                        for _ in range(d)
                    ))
                    seen["zero"] += qq(0) in points[-1]
            path = PLPath(points)
            dens = {c.denominator for a in path.increments() for c in a}
            seen["lcm"] += len(dens - {1}) > 1
            seen["one_point"] += npoints == 1
            terms = {
                tuple(rng.randint(1, d) for _ in range(rng.randint(0, 5))): qq(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            }
            x = TensorElement(d, terms)
            seen["constant"] += () in x.terms
            seen["open_prefix"] += any(len(w) > 1 and w[:-1] not in x.terms for w in x.terms)
            assert path_pair(path, x) == pair(pl_signature(path, max(x.degree(), 1)), x), (points, terms)
    assert all(seen.values()), seen


def test_path_pair_rejects_an_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        path_pair(PENTAGON, TensorElement.from_word(3, (1, 2, 3)))


# -- path signatures ----------------------------------------------------------


def test_single_point_path_is_trivial():
    assert pl_signature(PLPath([(1, 2)]), 3) == TruncatedSignature(2, 3)


def test_pentagon_signed_area():
    sig = pl_signature(PENTAGON, 2)
    assert pair(sig, volume_element(2).scale(qq(1, 2))) == 10


def test_doubled_control_point_is_invisible():
    a = PLPath([(0, 0), (1, 1), (1, 1), (2, 0)])
    b = PLPath([(0, 0), (1, 1), (2, 0)])
    assert pl_signature(a, 3) == pl_signature(b, 3)


def test_pair_unit_and_degree_overflow():
    sig = pl_signature(PENTAGON, 2)
    assert pair(sig, TensorElement.unit(2)) == 1
    with pytest.raises(ValueError):
        pair(sig, TensorElement.from_word(2, (1, 1, 1)))


def test_pair_is_multiplicative_over_shuffle():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.choice([2, 3])
        path = random_path(rng, d, rng.randint(2, 4))
        sig = pl_signature(path, 6)
        p = parse_element("12 - 2*21", d) if d >= 2 else None
        q = TensorElement.from_word(d, tuple(rng.randint(1, d) for _ in range(3)))
        assert pair(sig, shuffle(p, q)) == pair(sig, p) * pair(sig, q)


def test_time_reversal_is_antipode():
    rng = random.Random(6)
    for _ in range(20):
        d = rng.choice([2, 3])
        path = random_path(rng, d, rng.randint(2, 5))
        x = TensorElement(
            d,
            {
                tuple(rng.randint(1, d) for _ in range(rng.randint(0, 4))): qq(rng.randint(-3, 3))
                for _ in range(3)
            },
        )
        assert pair(pl_signature(path.reversed(), 4), x) == pair(
            pl_signature(path, 4), antipode(x)
        )


# -- the symbolic map ----------------------------------------------------------


def test_two_point_formula():
    poly = signature_polynomial((1, 1, 2), 2, d=2)
    assert poly == parse_polynomial("1/6*a[1][1]^2*a[1][2]", 2, 2)


def test_three_point_word_123():
    poly = signature_polynomial((1, 2, 3), 3, d=3)
    expected = parse_polynomial(
        "1/6*a[2][1]*a[2][2]*a[2][3] + 1/2*a[1][1]*a[2][2]*a[2][3]"
        " + 1/2*a[1][1]*a[1][2]*a[2][3] + 1/6*a[1][1]*a[1][2]*a[1][3]",
        3,
        3,
    )
    assert poly == expected


def test_empty_word_maps_to_one():
    for n in (1, 2, 4):
        assert signature_polynomial((), n, d=3) == IncrementPolynomial.constant(3, n)


def test_polynomial_matches_concrete_paths():
    rng = random.Random(7)
    for _ in range(30):
        d = rng.choice([2, 3])
        n = rng.randint(2, 5)
        path = random_path(rng, d, n)
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
        poly = signature_polynomial(w, n, d=d)
        value = evaluate(poly, path.increments())
        expected = pair(pl_signature(path, max(len(w), 1)), TensorElement.from_word(d, w))
        assert value == expected


def test_shuffle_homomorphism():
    rng = random.Random(8)
    for _ in range(15):
        d = rng.choice([2, 3])
        n = rng.randint(2, 4)
        p = TensorElement.from_word(d, tuple(rng.randint(1, d) for _ in range(rng.randint(1, 2))))
        q = TensorElement.from_word(d, tuple(rng.randint(1, d) for _ in range(rng.randint(1, 2))))
        assert signature_polynomial(shuffle(p, q), n) == signature_polynomial(
            p, n
        ) * signature_polynomial(q, n)


def test_polynomial_degree_homogeneous():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.choice([2, 3])
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        w = tuple(rng.randint(1, d) for _ in range(k))
        poly = signature_polynomial(w, n, d=d)
        assert poly.is_zero() or (poly.is_homogeneous() and poly.degree() == k)


# -- substitutions -------------------------------------------------------------


def test_permute_identity_is_noop():
    poly = signature_polynomial((1, 2), 3, d=2)
    assert permute_control_points(poly, (1, 2, 3)) is poly


def test_full_reversal_equals_antipode():
    rng = random.Random(10)
    for _ in range(15):
        d = rng.choice([2, 3])
        n = rng.randint(2, 4)
        x = TensorElement.from_word(d, tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3))))
        reversal = tuple(range(n, 0, -1))
        lhs = permute_control_points(signature_polynomial(x, n), reversal)
        rhs = signature_polynomial(antipode(x), n)
        assert lhs == rhs


def test_rotation_fixes_signed_area_polynomial():
    poly = SigPolyCalculator(2, 5).element_poly(volume_element(2))
    assert permute_control_points(poly, (2, 3, 4, 5, 1)) == poly


def test_permutation_validation():
    poly = signature_polynomial((1,), 3, d=2)
    with pytest.raises(ValueError):
        permute_control_points(poly, (1, 1, 2))


def test_collinear_merges_to_fewer_points():
    rng = random.Random(11)
    for _ in range(15):
        d = rng.choice([2, 3])
        n = rng.randint(3, 5)
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(1, 3)))
        poly = signature_polynomial(w, n, d=d)
        i = rng.randint(2, n - 1)
        results = [substitute_collinear(poly, i, lam) for lam in (qq(0), qq(1, 3), qq(1))]
        assert results[0] == results[1] == results[2]
        assert results[0] == signature_polynomial(w, n - 1, d=d)


def test_collinear_negative_control():
    bare = IncrementPolynomial.variable(2, 3, 1, 1)
    r0 = substitute_collinear(bare, 2, qq(0))
    r1 = substitute_collinear(bare, 2, qq(1))
    assert r0 != r1


def test_collinear_index_validation():
    poly = signature_polynomial((1,), 3, d=2)
    with pytest.raises(ValueError):
        substitute_collinear(poly, 1, qq(1, 2))
    with pytest.raises(ValueError):
        substitute_collinear(poly, 3, qq(1, 2))


# -- polynomial type and text --------------------------------------------------


def test_polynomial_arithmetic():
    a = IncrementPolynomial.variable(2, 3, 1, 1)
    b = IncrementPolynomial.variable(2, 3, 2, 2)
    prod = a * b
    assert prod.degree() == 2
    assert (a + b) - b == a
    assert a.scale(0).is_zero()
    other = IncrementPolynomial.variable(2, 4, 1, 1)
    for op in (IncrementPolynomial.__add__, IncrementPolynomial.__sub__, IncrementPolynomial.__mul__):
        with pytest.raises(ValueError):
            op(a, other)


def test_polynomial_text_round_trip():
    rng = random.Random(12)
    for _ in range(30):
        d, n = rng.choice([(2, 3), (3, 3), (3, 4)])
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 2) for _ in range((n - 1) * d))
            terms[mono] = qq(rng.randint(-7, 7), rng.randint(1, 5))
        poly = IncrementPolynomial(d, n, terms)
        assert parse_polynomial(polynomial_to_text(poly), d, n) == poly


def test_polynomial_text_examples():
    poly = parse_polynomial("-3*a[1][3]^3*a[2][2]*a[3][1]", 3, 4)
    assert poly.degree() == 5
    assert polynomial_to_text(poly) == "-3*a[1][3]^3*a[2][2]*a[3][1]"
    assert parse_polynomial("0", 2, 2).is_zero()
    poly = parse_polynomial("-a[1][1]*a[2][2] + a[1][1] - 3/2", 2, 3)
    assert polynomial_to_text(poly) == "-3/2 + a[1][1] - a[1][1]*a[2][2]"


def test_point_coordinate_rendering():
    from sigvol.sigpoly import polynomial_to_x_text

    poly = signature_polynomial((1, 2), 2, d=2)
    assert (
        polynomial_to_x_text(poly)
        == "1/2*x[1][1]*x[1][2] - 1/2*x[1][1]*x[2][2] - 1/2*x[1][2]*x[2][1] + 1/2*x[2][1]*x[2][2]"
    )
    assert polynomial_to_x_text(IncrementPolynomial(2, 3)) == "0"
    # displacement: x2 - x1 in the first coordinate
    assert polynomial_to_x_text(signature_polynomial((1,), 2, d=2)) == "-x[1][1] + x[2][1]"


def test_signature_polynomial_against_sympy_iterated_integrals():
    """Each coefficient as iterated integrals of the piecewise-constant derivative.

    On segment s the path moves as a[s] * tau for tau in [0, 1], so the
    integral over a word's prefix is a polynomial in tau on each segment, and
    the value at the end of a segment starts the next one.
    """
    sympy = pytest.importorskip("sympy")
    d = 2
    tau = sympy.Symbol("tau")
    for n in (2, 3, 4):
        a = [[sympy.Symbol(f"a_{s}_{i}") for i in range(1, d + 1)] for s in range(1, n)]
        for k in range(1, 4):
            for word in product(range(1, d + 1), repeat=k):
                pieces = [sympy.Integer(1)] * (n - 1)
                for letter in word:
                    start, integrated = sympy.Integer(0), []
                    for s, piece in enumerate(pieces):
                        integrated.append(start + sympy.integrate(piece * a[s][letter - 1], (tau, 0, tau)))
                        start = integrated[-1].subs(tau, 1)
                    pieces = integrated
                expected = sympy.expand(pieces[-1].subs(tau, 1))
                poly = signature_polynomial(word, n, d=d)
                got = sympy.expand(sum(
                    sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(a[idx // d][idx % d] ** e for idx, e in enumerate(mono)))
                    for mono, c in poly.terms.items()
                ))
                assert got == expected, (n, word)


def test_path_validation():
    with pytest.raises(ValueError):
        PLPath([])
    with pytest.raises(ValueError):
        PLPath([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        PLPath([(0, 0), (1, 1)]).permuted((1, 1))


# -- the packed integer kernel against a plain reference -------------------------
#
# The reference keeps the loop version: tuple monomials, Fraction coefficients,
# the Chen recursion with 1/j! weights, and substitutions derived from where the
# control points of the substituted path sit, expanded one linear factor at a time.


def ref_word_terms(d, n, word):
    nvars = (n - 1) * d

    def rec(s, w):
        if s == n:
            return {(0,) * nvars: Fraction(1)} if not w else {}
        out = {}
        for j in range(len(w) + 1):
            seg = [0] * nvars
            for letter in w[:j]:
                seg[(s - 1) * d + letter - 1] += 1
            for m, c in rec(s + 1, w[j:]).items():
                key = tuple(a + b for a, b in zip(m, seg))
                out[key] = out.get(key, 0) + c / math.factorial(j)
        return out

    return rec(1, tuple(word))


def ref_element_poly(d, n, x):
    out = {}
    for w, c in x.terms.items():
        for m, v in ref_word_terms(d, n, w).items():
            out[m] = out.get(m, 0) + c * v
    return IncrementPolynomial(d, n, out)


def ref_forms(d, points):
    """Linear forms of the substituted increments, given the substituted path's
    control points as weights on the points of the target path (1-based), where
    target point j is the sum of the target increments before it."""
    forms = {}
    for t in range(1, len(points)):
        here, before = points[t], points[t - 1]
        weight = {j: here.get(j, 0) - before.get(j, 0) for j in set(here) | set(before)}
        n_out = max(max(p) for p in points)
        coeff = {s: sum(w for j, w in weight.items() if s < j) for s in range(1, n_out)}
        for i in range(d):
            forms[(t - 1) * d + i] = [((s - 1) * d + i, c) for s, c in coeff.items() if c]
    return forms


def ref_substitute(p, n_out, forms):
    nvars_out = (n_out - 1) * p.d
    out = {}
    for mono, coeff in p.terms.items():
        part = {(0,) * nvars_out: Fraction(coeff)}
        for var, e in enumerate(mono):
            for _ in range(e):
                grown = {}
                for m, c in part.items():
                    for target, w in forms[var]:
                        key = list(m)
                        key[target] += 1
                        grown[tuple(key)] = grown.get(tuple(key), 0) + c * w
                part = grown
        for m, c in part.items():
            out[m] = out.get(m, 0) + c
    return IncrementPolynomial(p.d, n_out, out)


def random_element(rng, d, maxdeg, nterms):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(0, maxdeg)))
        terms[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return TensorElement(d, terms)


def random_polynomial(rng, d, n, maxdeg):
    nvars = (n - 1) * d
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return IncrementPolynomial(d, n, terms)


@pytest.mark.parametrize("d,n,k", [(1, 4, 5), (2, 2, 4), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 4, 2)])
def test_word_and_element_polynomials_match_reference(d, n, k):
    rng = random.Random(100 * d + 10 * n + k)
    calc = SigPolyCalculator(d, n)
    for _ in range(12):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(0, k)))
        assert calc.word_poly(w) == IncrementPolynomial(d, n, ref_word_terms(d, n, w))
    for _ in range(8):
        x = random_element(rng, d, k, rng.randint(1, 6))
        expected = ref_element_poly(d, n, x)
        assert calc.element_poly(x) == expected
        assert signature_polynomial(x, n) == expected


@pytest.mark.parametrize("word", [(0,), (1, 3), (2, -1, 1)])
def test_word_letters_outside_the_alphabet_are_rejected(word):
    with pytest.raises(ValueError):
        SigPolyCalculator(2, 3).word_poly(word)
    with pytest.raises(ValueError):
        signature_polynomial(word, 3, d=2)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_permutation_substitution_matches_reference(d, n):
    rng = random.Random(200 + 10 * d + n)
    for _ in range(6):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        forms = ref_forms(d, [{j: 1} for j in sigma])
        x = random_element(rng, d, 4, 4)
        for p in (signature_polynomial(x, n), random_polynomial(rng, d, n, 4)):
            assert permute_control_points(p, sigma) == ref_substitute(p, n, forms)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(2, 5), Fraction(-3, 7), Fraction(1)])
def test_collinear_substitution_matches_reference(lam):
    rng = random.Random(300 + lam.numerator)
    for _ in range(8):
        d = rng.choice([1, 2, 3])
        n = rng.randint(3, 5)
        i = rng.randint(2, n - 1)
        merged = {i - 1: lam, i: 1 - lam}
        points = [{j: 1} for j in range(1, i)] + [merged] + [{j - 1: 1} for j in range(i + 1, n + 1)]
        forms = ref_forms(d, points)
        # a generic polynomial, so that the result does depend on lam
        p = random_polynomial(rng, d, n, 4)
        assert substitute_collinear(p, i, lam) == ref_substitute(p, n - 1, forms)


@pytest.mark.parametrize("side", ["right", "left"])
def test_closure_substitution_matches_reference(side):
    rng = random.Random(400 + len(side))
    for _ in range(8):
        d = rng.choice([1, 2, 3])
        # below, at and above the degrees of the element
        m = rng.randint(1, 5)
        path = [{j: 1} for j in range(1, m + 2)]
        points = path + [{1: 1}] if side == "right" else [{m + 1: 1}] + path
        forms = ref_forms(d, points)
        x = random_element(rng, d, 4, 4)
        closed = ref_substitute(signature_polynomial(x, m + 2), m + 1, forms)
        expected = closed - signature_polynomial(x, m + 1)
        (coeffs,), den = integral_coefficients([x.terms])
        calc = SigPolyCalculator(d, m + 1)
        diff = closure_differences(d, m + 1, coeffs)[0 if side == "right" else 1]
        # the packed difference is scaled by den * (word length)!, which _to_polynomial undoes
        assert calc._to_polynomial(diff, den) == expected


def test_packed_field_overflow_raises():
    # per-variable exponents fit the field; the merge makes their sum the exponent
    fits = IncrementPolynomial(1, 3, {(200, MAX_DEGREE - 200): 1})
    lam = Fraction(1, 3)
    forms = ref_forms(1, [{1: 1}, {1: lam, 2: 1 - lam}, {2: 1}])
    assert substitute_collinear(fits, 2, lam) == ref_substitute(fits, 2, forms)
    too_big = IncrementPolynomial(1, 3, {(200, MAX_DEGREE - 199): 1})
    with pytest.raises(OverflowError):
        substitute_collinear(too_big, 2, lam)
    with pytest.raises(OverflowError):
        permute_control_points(too_big, (2, 1, 3))
    with pytest.raises(OverflowError):
        signature_polynomial((1,) * (MAX_DEGREE + 1), 2, d=1)
    with pytest.raises(OverflowError):
        loopclosure_membership(TensorElement.from_word(1, (1,) * (MAX_DEGREE + 1)), segments=1)


# -- word combinations -------------------------------------------------------------


def word_by_word(d, n, coeffs, sliced=False):
    """The sum of c * |w|! * (polynomial of w), one word polynomial of the oracle at a time."""
    out = {}
    for w, c in coeffs.items():
        for m, v in word_polynomial(d, n, w, sliced).items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def random_combination(rng, d, maxlen, nterms):
    coeffs = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(0, maxlen)))
        coeffs[w] = rng.randint(-4, 4)  # zero coefficients included
    return coeffs


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_combination_matches_the_word_by_word_sum(d, n):
    rng = random.Random(1000 * d + n)
    for _ in range(15):
        coeffs = random_combination(rng, d, 5, rng.randint(0, 10))
        coeffs[()] = rng.randint(-2, 2)  # the empty word, possibly with coefficient 0
        # an antisymmetrised word: its terms cancel inside the prefixes of the segments
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(2, 5)))
        for i in range(len(w) - 1):
            swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            coeffs[w] = coeffs.get(w, 0) + 1
            coeffs[swapped] = coeffs.get(swapped, 0) - 1
        assert SigPolyCalculator(d, n).combination(coeffs) == word_by_word(d, n, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_combination_of_cancelling_and_zero_coefficients(n):
    calc = SigPolyCalculator(3, n)
    assert calc.combination({}) == {}
    assert calc.combination({(1, 2): 0, (): 0, (3, 3, 1): 0}) == {}
    # on one segment a word's polynomial is the monomial of its letter content,
    # so a word minus any rearrangement of it cancels exactly
    one_segment = {(1, 2, 3, 1): 1, (3, 1, 1, 2): -1, (2, 1): 2, (1, 2): -2}
    assert SigPolyCalculator(3, 2).combination(one_segment) == {}
    # on at most one segment the rearranged words leave the rest alone
    rest = {(2, 3, 1): 3, (1,): -1, (): 5}
    both = {**rest, **one_segment}
    assert calc.combination(both) == word_by_word(3, n, both)
    if n <= 2:
        assert calc.combination(both) == calc.combination(rest) == word_by_word(3, n, rest)


def test_level_seven_elements_combine_to_zero_on_six_points():
    calc = SigPolyCalculator(4, 6)
    for name in fixtures.LEVEL7_NAMES:
        (coeffs,), _ = integral_coefficients([fixtures.element(name).terms])
        assert calc.combination(coeffs) == {}, name


def test_combination_outside_the_kernel_is_nonzero():
    (coeffs,), _ = integral_coefficients([volume_element(3).terms])
    got = SigPolyCalculator(3, 4).combination(coeffs)
    assert got and got == word_by_word(3, 4, coeffs)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (3, 4), (4, 3), (4, 6)])
def test_combination_of_several_letter_contents_of_one_length(d, n):
    # the contents recurse apart, and their polynomials share no monomial
    rng = random.Random(500 + 10 * d + n)
    full, sliced = SigPolyCalculator(d, n), SigPolyCalculator(d, n, sliced=True)
    for _ in range(8):
        length = rng.randint(2, 5)
        contents = set()
        while len(contents) < 3:
            contents.add(tuple(sorted(rng.randint(1, d) for _ in range(length))))
        coeffs = {}
        for content in contents:
            # rearrangements of one content, some cancelling each other
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.sample(content, length))
                coeffs[w] = coeffs.get(w, 0) + rng.randint(-3, 3)
        assert full.combination(coeffs) == word_by_word(d, n, coeffs)
        assert sliced.combination(coeffs) == word_by_word(d, n, coeffs, sliced=True)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_antisymmetrised_products_match_the_word_by_word_sum(d, n):
    # the words of vol_d (x) w and w (x) vol_d cancel inside the prefixes the segments take
    rng = random.Random(600 + 10 * d + n)
    vol = volume_element(d)
    full, sliced = SigPolyCalculator(d, n), SigPolyCalculator(d, n, sliced=True)
    products = [concat(vol, vol)] if 2 * d <= 7 else []
    for length in range(8 - d):
        w = TensorElement.from_word(d, [rng.randint(1, d) for _ in range(length)])
        products += [concat(vol, w), concat(w, vol)]
    for x in products:
        (coeffs,), _ = integral_coefficients([x.terms])
        assert full.combination(coeffs) == word_by_word(d, n, coeffs)
        assert sliced.combination(coeffs) == word_by_word(d, n, coeffs, sliced=True)


def assert_memo_holds_word_polynomials(calc, sliced):
    # the memo on (s, w) holds the polynomial of w on segments s..n-1: its
    # (n-s+1)-point polynomial moved up by s-1 segments
    d, n = calc.d, calc.n
    assert calc._memo
    for (s, w), poly in calc._memo.items():
        moved = {m << (FIELD_BITS * d * (s - 1)): v for m, v in word_polynomial(d, n - s + 1, w).items()}
        assert poly == ({m: v for m, v in moved.items() if not m & slice_mask(d, n)} if sliced else moved)


@pytest.mark.parametrize("sliced", [False, True])
def test_memo_is_the_same_whether_a_word_comes_alone_or_in_a_combination(sliced):
    d, n = 3, 5
    (coeffs,), _ = integral_coefficients([concat(volume_element(3), TensorElement.from_word(3, (1, 2, 1))).terms])
    words = sorted(coeffs)[:6]
    expected = word_by_word(d, n, coeffs, sliced)

    def alone(calc):
        for w in words:
            poly = word_polynomial(d, n, w, sliced)
            assert calc.combination({w: 1}) == poly
            assert calc.combination({w: -3}) == {m: -3 * v for m, v in poly.items()}

    # the combination first, then its words alone, scaled or not
    calc = SigPolyCalculator(d, n, sliced)
    assert calc.combination(coeffs) == expected
    alone(calc)
    assert_memo_holds_word_polynomials(calc, sliced)
    # the words first: the combination and the scaled reads leave the cached dicts as they were
    calc = SigPolyCalculator(d, n, sliced)
    alone(calc)
    cached = {key: (poly, dict(poly)) for key, poly in calc._memo.items()}
    assert calc.combination(coeffs) == expected
    alone(calc)
    assert all(calc._memo[key] is poly and poly == copy for key, (poly, copy) in cached.items())
    assert_memo_holds_word_polynomials(calc, sliced)


# -- the slice a[s][i] = 0 for s < i ---------------------------------------------------


def on_slice(poly, d, n):
    """The monomials of a packed polynomial free of every a[s][i] with s < i."""
    sliced = [(s - 1) * d + i - 1 for s in range(1, n) for i in range(s + 1, d + 1)]
    return {m: v for m, v in poly.items() if not any((m >> (FIELD_BITS * var)) & MAX_DEGREE for var in sliced)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_sliced_polynomials_are_the_full_ones_on_the_slice(d, n):
    rng = random.Random(100 * d + n)
    full, sliced = SigPolyCalculator(d, n), SigPolyCalculator(d, n, sliced=True)
    sigmas = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
    substitutions = [(permutation_substitution(d, n, g), permutation_substitution(d, n, g, sliced=True)) for g in sigmas]
    for _ in range(10):
        coeffs = random_combination(rng, d, 5, rng.randint(1, 10))
        base = full.combination(coeffs)
        assert {m: v for m, v in base.items() if not m & slice_mask(d, n)} == on_slice(base, d, n)
        assert sliced.combination(coeffs) == on_slice(base, d, n)
        for w in coeffs:
            assert sliced.combination({w: 1}) == on_slice(word_polynomial(d, n, w), d, n)
            assert sliced.combination({w: 1}) == word_polynomial(d, n, w, sliced=True)
        for sub, sub_sliced in substitutions:
            assert sub_sliced.apply_packed(base) == on_slice(sub.apply_packed(base), d, n)
