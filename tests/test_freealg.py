import random
from itertools import combinations, permutations

import pytest

import sigvol.freealg
from sigvol.exactq import qq
from sigvol.freealg import (
    TensorElement,
    antipode,
    concat,
    element_to_text,
    lyndon_words,
    parse_element,
    parse_fixture_blocks,
    permutation_sign,
    shuffle,
    shuffle_power,
    volume_element,
)

from oracles import deconcat_pairs, timerev_project


def word_el(d, *letters, coeff=1):
    return TensorElement.from_word(d, letters, coeff)


def brute_shuffle(u, v):
    """Independent interleaving enumeration by choosing positions for u."""
    out = {}
    k = len(u) + len(v)
    for pos in combinations(range(k), len(u)):
        w = [None] * k
        for i, p in enumerate(pos):
            w[p] = u[i]
        rest = iter(v)
        for j in range(k):
            if w[j] is None:
                w[j] = next(rest)
        w = tuple(w)
        out[w] = out.get(w, 0) + 1
    return out


def random_element(rng, d, maxdeg, nterms=3):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, d) for _ in range(rng.randint(0, maxdeg)))
        terms[w] = qq(rng.randint(-5, 5), rng.randint(1, 4))
    return TensorElement(d, terms)


# -- shuffle -----------------------------------------------------------------


def test_shuffle_singletons():
    assert shuffle(word_el(2, 1), word_el(2, 2)) == parse_element("12 + 21", 2)


def test_shuffle_unit():
    x = parse_element("12 - 3*21", 2)
    assert shuffle(TensorElement.unit(2), x) == x


def test_shuffle_12_with_3():
    assert shuffle(word_el(3, 1, 2), word_el(3, 3)) == parse_element("123 + 132 + 312", 3)


def test_shuffle_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.choice([2, 3])
        u = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
        got = shuffle(word_el(d, *u), word_el(d, *v))
        expected = TensorElement(d, {w: qq(m) for w, m in brute_shuffle(u, v).items()})
        assert got == expected


def test_shuffle_commutative_associative():
    rng = random.Random(6)
    for _ in range(15):
        d = rng.choice([2, 3])
        x, y, z = (random_element(rng, d, 2) for _ in range(3))
        assert shuffle(x, y) == shuffle(y, x)
        assert shuffle(shuffle(x, y), z) == shuffle(x, shuffle(y, z))


def test_shuffle_alphabet_mismatch():
    x, y = word_el(2, 1), word_el(3, 1)
    for op in (shuffle, concat, TensorElement.__add__, TensorElement.__sub__):
        with pytest.raises(ValueError):
            op(x, y)


def test_shuffle_keeps_no_module_state():
    def sizes():
        return {
            name: len(value)
            for name, value in vars(sigvol.freealg).items()
            if isinstance(value, (dict, list)) and not name.startswith("__")
        }

    before = sizes()
    rng = random.Random(41)
    pairs = set()
    while len(pairs) < 200:
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        pairs.add((u, v))
    for u, v in sorted(pairs):
        shuffle(word_el(3, *u), word_el(3, *v))
    assert sizes() == before


def test_shuffle_grading():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.choice([2, 3])
        j, k = rng.randint(1, 3), rng.randint(1, 3)
        x = TensorElement(d, {tuple(rng.randint(1, d) for _ in range(j)): qq(1)})
        y = TensorElement(d, {tuple(rng.randint(1, d) for _ in range(k)): qq(1)})
        prod = shuffle(x, y)
        assert prod.degrees() == [j + k]


def test_shuffle_power():
    v2 = volume_element(2)
    assert shuffle_power(v2, 0) == TensorElement.unit(2)
    assert shuffle_power(word_el(2, 1), 2) == parse_element("2*11", 2)
    sq = shuffle_power(v2, 2)
    manual = shuffle(v2, v2)
    assert sq == manual
    assert sq.degrees() == [4]


# -- concatenation and deconcatenation ---------------------------------------


def test_concat_words():
    assert concat(word_el(3, 1, 2), word_el(3, 3)) == word_el(3, 1, 2, 3)
    x = parse_element("12 - 21", 2)
    assert concat(TensorElement.unit(2), x) == x
    assert concat(x, TensorElement.unit(2)) == x


def test_concat_associative():
    rng = random.Random(8)
    for _ in range(15):
        d = rng.choice([2, 3])
        x, y, z = (random_element(rng, d, 2) for _ in range(3))
        assert concat(concat(x, y), z) == concat(x, concat(y, z))


def test_concat_square_of_volume_element():
    sq = concat(volume_element(3), volume_element(3))
    assert len(sq.terms) == 36
    assert all(len(w) == 6 for w in sq.terms)
    assert sq.terms[(1, 2, 3, 1, 2, 3)] == 1
    assert sq.terms[(1, 2, 3, 2, 1, 3)] == -1


def test_deconcat_pairs():
    assert deconcat_pairs(()) == [((), ())]
    assert deconcat_pairs((1, 2)) == [((), (1, 2)), ((1,), (2,)), ((1, 2), ())]
    assert len(deconcat_pairs((1, 2, 3))) == 4


def test_deconcat_coassociative():
    # splitting into three parts left-first equals right-first, all words <= length 5
    from itertools import product

    for k in range(6):
        for w in product((1, 2), repeat=k):
            left_first = {
                (u1, u2, v)
                for u, v in deconcat_pairs(w)
                for u1, u2 in deconcat_pairs(u)
            }
            right_first = {
                (u, v1, v2)
                for u, v in deconcat_pairs(w)
                for v1, v2 in deconcat_pairs(v)
            }
            assert left_first == right_first


# -- antipode ----------------------------------------------------------------


def test_antipode_single_letter():
    assert antipode(word_el(1, 1)) == word_el(1, 1, coeff=-1)


def test_antipode_fixes_volume_element():
    v3 = volume_element(3)
    assert antipode(v3) == v3


def test_antipode_fixes_concat_square():
    sq = concat(volume_element(3), volume_element(3))
    assert antipode(sq) == sq


def test_antipode_involution_and_antihomomorphism():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.choice([2, 3])
        x = random_element(rng, d, 3)
        assert antipode(antipode(x)) == x
        u = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
        xu, xv = word_el(d, *u), word_el(d, *v)
        assert antipode(concat(xu, xv)) == concat(antipode(xv), antipode(xu))


def test_timerev_project():
    assert timerev_project(word_el(2, 1, 2)) == parse_element("12 + 21", 2)
    v3 = volume_element(3)
    assert timerev_project(v3) == v3.scale(2)
    assert timerev_project(word_el(1, 1)).is_zero()
    rng = random.Random(10)
    for _ in range(10):
        x = random_element(rng, 2, 3)
        projected = timerev_project(x)
        assert antipode(projected) == projected


# -- distinguished elements ---------------------------------------------------


def test_volume_element_small():
    assert volume_element(2) == parse_element("12 - 21", 2)
    assert volume_element(3) == parse_element("123 + 231 + 312 - 213 - 132 - 321", 3)


def test_volume_element_on_letter_subset():
    got = volume_element(4, (1, 2, 4))
    assert got == parse_element("124 + 241 + 412 - 214 - 142 - 421", 4)


def test_volume_element_d4_published_expansion():
    expected = (
        "1234 - 1243 - 1324 + 1342 + 1423 - 1432 - 2134 + 2143"
        "+ 2314 - 2341 - 2413 + 2431 + 3124 - 3142 - 3214 + 3241"
        "+ 3412 - 3421 - 4123 + 4132 + 4213 - 4231 - 4312 + 4321"
    )
    assert volume_element(4) == parse_element(expected, 4)


def test_volume_element_errors():
    with pytest.raises(ValueError):
        volume_element(3, (1, 1, 2))
    with pytest.raises(ValueError):
        volume_element(3, (1, 2, 5))


def test_permutation_sign_against_cycle_parity():
    for perm in permutations(range(5)):
        seen, cycles = set(), 0
        for start in range(5):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        assert permutation_sign(perm) == (-1) ** (5 - cycles)
    # any distinct values, not only 0..n-1
    assert permutation_sign([10, 3, 7]) == 1
    assert permutation_sign([7, 3, 10]) == -1
    assert permutation_sign([]) == 1


def test_lyndon_words_small():
    assert lyndon_words(2, 1) == [(1,), (2,)]
    assert lyndon_words(2, 2) == [(1, 2)]
    assert lyndon_words(3, 2) == [(1, 2), (1, 3), (2, 3)]


def test_lyndon_rotation_minimality_bruteforce():
    from itertools import product

    for d, k in ((2, 4), (2, 5), (3, 3)):
        expected = []
        for w in product(range(1, d + 1), repeat=k):
            rotations = [w[i:] + w[:i] for i in range(1, k)]
            if all(w < r for r in rotations):
                expected.append(w)
        assert lyndon_words(d, k) == expected


def test_lyndon_counts_d2():
    assert [len(lyndon_words(2, k)) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]


def test_lyndon_d1():
    assert lyndon_words(1, 1) == [(1,)]
    assert lyndon_words(1, 3) == []


# -- text notation -----------------------------------------------------------


def test_parse_and_print_examples():
    x = parse_element("-2/3*13323", 3)
    assert x.terms == {(1, 3, 3, 2, 3): qq(-2, 3)}
    assert element_to_text(x) == "-2/3*13323"
    assert element_to_text(TensorElement.zero(2)) == "0"
    assert element_to_text(TensorElement.unit(2)) == "e"
    assert parse_element("3*e + 12", 2).terms[()] == 3
    assert element_to_text(parse_element("3*21 - 12 - 1/2*e", 2)) == "-1/2*e - 12 + 3*21"


def test_parse_whitespace_insensitive():
    a = parse_element("12+21", 2)
    b = parse_element("  12 \n +  21 ", 2)
    assert a == b


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(60):
        x = random_element(rng, 3, 4, nterms=rng.randint(0, 6))
        assert parse_element(element_to_text(x), 3) == x


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("12 + foo", 2)
    with pytest.raises(ValueError):
        parse_element("13", 2)  # letter above alphabet size


def test_large_alphabets_work_internally():
    # only the digit rendering is capped at d = 9
    x = TensorElement.from_word(12, (11, 3, 12))
    assert shuffle(x, TensorElement.unit(12)) == x
    assert antipode(antipode(x)) == x
    with pytest.raises(ValueError):
        element_to_text(x)


def test_fixture_blocks():
    text = """
# a comment
name: first
12 + 21

name: second
1 - 2  # trailing comment
"""
    blocks = parse_fixture_blocks(text)
    assert blocks == [("first", "12 + 21"), ("second", "1 - 2")]
