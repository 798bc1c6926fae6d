"""Graded bases of invariant subspaces of the word algebra.

All spaces here are computed degree by degree: the symbolic signature map is
graded, so invariance conditions never mix word lengths and every solve
happens in the d**k-dimensional coordinate space of degree-k words (ordered
lexicographically).

The subspaces on offer:

* ``invariant_space``  - elements whose signature polynomial on an n-point
  path is fixed by a permutation group acting on the control points;
* ``kernel_space``     - elements whose signature polynomial on an n-point
  path vanishes identically;
* ``timerev_space``    - antipode-fixed elements (stable under running the
  path backwards);
* ``loopclosure_space``- elements whose signature value survives closing the
  path into a loop on either side;
* ``inv_d_space``      - elements invariant for every number of control
  points at once: all the conditions above that d calls for.

Each space but the time-reversal one, whose basis is written down, is one
cut-down chain, `_cut`: the full degree-k space cut down by each of its
conditions in turn.  Every condition commutes with linear maps of R^d, so
each space is a GL_d-module, generated by its highest-weight vectors.  The
chain solves only those: for each letter content lambda (how often each
letter occurs in a word) whose counts do not increase, the f^lambda standard
polytabloids of shape lambda.  Those solves keep only the monomials free of
the increments a[s][i] with s < i: a highest-weight vector's conditions
vanish when they vanish there.  The chain then rebuilds each such block from
the blocks above it by the lowering operators, and fills every other block by
relabelling the letters of one of those.

Raw dimensions of ``invariant_space`` include the full kernel (the zero
polynomial is invariant under anything), so counts of "visibly distinct"
invariants are reported as image dimensions via ``dim_image``: the rank of
the n-point map on the span.  The map commutes with GL_d, so for a space the
chain built this is the sum over lambda of its rank on the highest-weight
vectors of weight lambda times dim S_lambda(Q^d), each rank one nullspace on
the same slice.  A basis built by hand has its rank solved over all its
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, permutations, product
from typing import Callable, Mapping

from .exactq import Q1, QQ, MatrixBuilder, SubspaceQ, add_scaled, combine, nullspace, rref_rows
from .freealg import (
    TensorElement,
    Word,
    antipode,
    element_to_text,
    permutation_sign,
    shuffle_power,
    volume_element,
)
from .posgeom import PermGroup, stabilizer_structural
from .sigpoly import (
    SigPolyCalculator, check_degree, integral_coefficients, permutation_substitution, slice_mask,
)


def words_of_degree(d: int, k: int) -> list[Word]:
    """All degree-k words over 1..d in lexicographic order."""
    return [tuple(w) for w in product(range(1, d + 1), repeat=k)]


@dataclass
class GradedBasis:
    """A subspace of the degree-k slice, as coordinates and as elements.

    `highest` maps each dominant letter content lambda to the integral word
    combinations that span HW_lambda, the vectors of the space that every
    raising operator kills.  Only `_cut` knows them, and with them that the
    space is GL_d-stable; a basis built any other way has none.
    """

    d: int
    k: int
    space: SubspaceQ
    elements: list[TensorElement] = field(default_factory=list)
    n: int | None = None
    group_tag: str | None = None
    highest: dict[tuple[int, ...], list[dict[Word, int]]] | None = None

    @classmethod
    def from_space(cls, d: int, k: int, space: SubspaceQ, highest=None, **extra) -> "GradedBasis":
        words = words_of_degree(d, k)
        elements = [
            TensorElement(d, {words[c]: v for c, v in row.items()})
            for row in space.basis
        ]
        return cls(d, k, space, elements, highest=highest, **extra)

    @property
    def dim(self) -> int:
        return self.space.dim

    def coordinate_vector(self, x: TensorElement) -> dict[int, QQ]:
        if x.d != self.d:
            raise ValueError("alphabet mismatch")
        if not x.is_zero() and x.degrees() != [self.k]:
            raise ValueError(f"element is not homogeneous of degree {self.k}")
        index = {w: c for c, w in enumerate(words_of_degree(self.d, self.k))}
        return {index[w]: coeff for w, coeff in x.terms.items()}

    def contains(self, x: TensorElement) -> bool:
        return self.space.contains(self.coordinate_vector(x))

    def to_json(self, dim_image: int | None = None) -> dict:
        data: dict = {"d": self.d}
        if self.n is not None:
            data["n"] = self.n
        data["k"] = self.k
        if self.group_tag is not None:
            data["group"] = self.group_tag
        data["dim_raw"] = self.dim
        if dim_image is not None:
            data["dim_image"] = dim_image
        data["basis"] = [element_to_text(x) for x in self.elements]
        return data


# ---------------------------------------------------------------------------
# core solvers
# ---------------------------------------------------------------------------


# Every condition takes a word combination and `sliced`: with it, the rows are
# highest-weight vectors (every E_i kills them, see `_cut`), and the conditions
# may use that: the polynomial ones are restricted to the slice a[s][i] = 0 for
# s < i, and loop closure on at least as many segments as the degree reads its
# word identity at the standard words only.


def _group_conditions(d: int, n: int, generators) -> Callable[..., list[dict]]:
    """Per generator: permuted minus original packed polynomial of a word combination."""
    calc = SigPolyCalculator(d, n)
    substitutions = cache(lambda sliced: [permutation_substitution(d, n, g.images, sliced) for g in generators])
    mask = slice_mask(d, n)

    def conditions(coeffs: dict[Word, int], sliced: bool = False) -> list[dict]:
        # a permutation mixes the segments, so it takes the whole polynomial
        base = calc.combination(coeffs)
        fixed = {m: v for m, v in base.items() if not m & mask} if sliced else base
        return [add_scaled(sub.apply_packed(base), -1, fixed) for sub in substitutions(sliced)]

    return conditions


def _kernel_conditions(d: int, n: int) -> Callable[..., list[dict]]:
    """The packed polynomial of a word combination on n points: zero on the kernel."""
    calc = cache(partial(SigPolyCalculator, d, n))
    return lambda row, sliced=False: [calc(sliced).combination(row)]


def _words_of_content(content: tuple[int, ...]) -> list[Word]:
    """Every word with content[a - 1] letters a, in lexicographic order."""
    if not any(content):
        return [()]
    return [
        (a + 1,) + rest
        for a, c in enumerate(content) if c
        for rest in _words_of_content(content[:a] + (c - 1,) + content[a + 1:])
    ]


def _closure_functional(word: Word) -> list[tuple[Word, int]]:
    """The terms (r, weight) with k! <Phi(x) - x, w'> = sum of weight * M(r), at w' = word.

    Phi is loop closure on words, right or left: <S(closed X), x> =
    <S(X), Phi(x)> for every path X.  Chen's identity appends exp(-T), T the
    increment of X, and Ree's shuffle theorem turns each product of the
    coordinates of T with a pairing into a shuffle, so
    Phi_R(w) = sum over w = uv of (-1)^|v| / |v|! u sh v_1 sh ... sh v_|v|,
    and Phi_L puts the shuffled letters of u in front of v.  The coefficient
    of w' (length k) in u sh (v_1 sh ... sh v_j) counts the position sets P
    of w' with w'|_{P^c} = u and content(w'|_P) = content(v), times
    prod_a m_a!, m_a the letters a of v.  So for x of the letter content of
    w', whose words uv all leave the content of v to that of u, k! <Phi_R(x), w'>
    reads x only through M_R(u) = sum over v of x_{uv}, and k! <Phi_L(x), w'>
    through M_L(u) = sum over v of x_{vu}, with the same weights: for each
    distinct subsequence r of w', count(r) (-1)^(k-|r|) k!/(k-|r|)! prod_a m_a!,
    where count(r) is the number of position sets P leaving r and m_a counts
    the letters a that w' has beyond r.  P empty leaves r = w' with weight k!
    and M(w') = x_{w'}, which the identity cancels; the list holds the proper
    subsequences.  Every weight is an integer.
    """
    k = len(word)
    # each subsequence of w' (the positions kept) -> the number of position sets P leaving it
    kept: dict[Word, int] = {(): 1}
    for a in word:
        grown = dict(kept)
        for rest, count in kept.items():
            grown[rest + (a,)] = grown.get(rest + (a,), 0) + count
        kept = grown
    del kept[word]
    sizes = [(a, word.count(a)) for a in set(word)]
    terms = []
    for rest, count in kept.items():
        weight = (-1) ** (k - len(rest)) * count * math.perm(k, len(rest))
        for a, size in sizes:
            weight *= math.factorial(size - rest.count(a))
        terms.append((rest, weight))
    return terms


def _standard_words(shape: tuple[int, ...]) -> list[Word]:
    """The word of each standard tableau of the shape: letter r + 1 at the positions in its row r."""
    words = []
    for rows in _standard_tableaux(shape):
        word = [0] * sum(shape)
        for r, row in enumerate(rows):
            for p in row:
                word[p] = r + 1
        words.append(tuple(word))
    return words


def _closure_conditions(d: int, m: int) -> Callable[..., list[dict]]:
    """Closure minus identity of a word combination on m segments, right then left, twice.

    Each letter-content block of the row x, of degree k, gives per side
    k! <Phi(x) - x, w'> (`_closure_functional`) at target words w', from its
    prefix sums M_R and suffix sums M_L.  The targets of a `sliced` row with
    k <= m (a highest-weight vector, see `_cut`) are the standard words of its
    content; those of any other block are every word of its content.  On
    m >= k segments these word dicts are the condition, since distinct
    degree-k words have independent polynomials there.  On m < k they are
    not, and the condition is the packed polynomial of the word dict of the
    degrees above m, one per side: the closed polynomial of x is the open
    polynomial of Phi(x).  The word dicts of the degrees up to m come first
    and the polynomials second, so word keys never meet monomial keys in one
    condition, not even for a row of mixed degrees.  The functionals, the
    words of each content and the standard words are cached on this
    condition, so they go when the solve that holds it ends.
    """
    calc = cache(partial(SigPolyCalculator, d, m + 1))
    functional = cache(_closure_functional)
    content_words = cache(_words_of_content)
    standard = cache(_standard_words)

    def conditions(row: dict[Word, int], sliced: bool = False) -> list[dict]:
        blocks: dict[tuple[int, ...], dict[Word, int]] = {}
        for w, c in row.items():
            if c:
                blocks.setdefault(tuple(w.count(a) for a in range(1, d + 1)), {})[w] = c
        parts: list[dict] = [{}, {}, {}, {}]
        for content, block in blocks.items():
            k = sum(content)
            check_degree(k)  # the polynomial path refuses the same degrees
            prefixes: dict[Word, int] = {}
            suffixes: dict[Word, int] = {}
            for w, c in block.items():
                for j in range(k):
                    prefixes[w[:j]] = prefixes.get(w[:j], 0) + c
                    suffixes[w[k - j:]] = suffixes.get(w[k - j:], 0) + c
            # a sliced row has one dominant content: its letters 1..len(shape)
            targets = standard(tuple(c for c in content if c)) if sliced and k <= m else content_words(content)
            sides = parts[2:] if k > m else parts[:2]
            for target in targets:
                terms = functional(target)
                for side, sums in zip(sides, (prefixes, suffixes)):
                    if v := sum(weight * sums.get(r, 0) for r, weight in terms):
                        side[target] = v
        if any(sum(content) > m for content in blocks):
            parts[2:] = [calc(sliced).combination(side) for side in parts[2:]]
        return parts

    return conditions


def _solve(rows: list[Mapping[Word, QQ]], conditions) -> SubspaceQ:
    """The combinations of the rows whose condition polynomials all vanish.

    Each row is one rational word combination.  The rows are brought to one
    common denominator, so every column carries the same scale: scaling the
    columns alike keeps the kernel, scaling them apart would not.
    """
    rows, _ = integral_coefficients(rows)
    builder = MatrixBuilder(len(rows))
    for c, row in enumerate(rows):
        diffs = conditions(row)
        builder.add_column(c, {(i, mono): v for i, diff in enumerate(diffs) for mono, v in diff.items()})
    return nullspace(builder.build())


def _meets(x: TensorElement, conditions) -> bool:
    """Whether every condition polynomial of the element x vanishes.

    x is scaled once, by its common denominator D, so the degree-k part of its
    packed polynomial comes out scaled by D * k!; the conditions keep degrees,
    so they vanish on the scaled parts exactly when they vanish on x.
    """
    (coeffs,), _ = integral_coefficients([x.terms])
    return not any(conditions(coeffs))


def _standard_tableaux(shape: tuple[int, ...]):
    """Every standard tableau of the shape, as its rows of entries 0..k-1."""
    k = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]

    def fill(m: int):
        if m == k:
            yield [list(row) for row in rows]
        for r, length in enumerate(shape):
            if len(rows[r]) < length and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(m)
                yield from fill(m + 1)
                rows[r].pop()

    return fill(0)


def _polytabloids(d: int, shape: tuple[int, ...]) -> list[dict[int, int]]:
    """The standard polytabloids of the shape, over the lex indices of degree-k words.

    A standard tableau T gives the word with letter r + 1 at every position
    in row r of T (entry p is position p), antisymmetrised over the columns
    of T: each column's letters 1..c are permuted among its positions, with
    the sign of the permutation.  A letter a at position p adds
    (a - 1) * d**(k-1-p) to the word's index.
    """
    k = sum(shape)
    place = [d ** (k - 1 - p) for p in range(k)]
    vectors = []
    for rows in _standard_tableaux(shape):
        vector = {sum(r * place[p] for r, row in enumerate(rows) for p in row): 1}
        for j in range(shape[0] if shape else 0):
            column = [row[j] for row in rows if len(row) > j]
            moves = [
                (permutation_sign(s), sum((s[r] - r) * place[p] for r, p in enumerate(column)))
                for s in permutations(range(len(column)))
            ]
            vector = {c + shift: v * sign for c, v in vector.items() for sign, shift in moves}
        vectors.append(vector)
    return vectors


def _cut(d: int, k: int, conditions) -> tuple[SubspaceQ, dict[tuple[int, ...], list[dict[Word, int]]]]:
    """The degree-k elements that meet every condition, cut down one condition at a time.

    Returns the space and, for each dominant letter content lambda, the
    integral word combinations that span its highest-weight space HW_lambda.

    Every condition here commutes with each linear map A of R^d, because
    S(AX) = A^{(x)k} S(X), A maps an n-point path to an n-point path, and A
    commutes with permuting, reversing or closing its control points; so
    each space W the chain builds is GL_d(Q)-stable.  It is gl_d-stable too:
    for X in gl_d, A = I + tX is invertible for all but finitely many
    rational t and acts on words and on polynomials by polynomials in t, so
    the coefficient of t in the commuting identity says that X commutes
    with the conditions as well.
    On words, the raising operator E_i (the matrix unit sending e_{i+1} to
    e_i) replaces one letter i+1 by i, summed over positions, and the
    lowering operator F_i replaces one letter i by i+1.

    Under the diagonal A, W is the direct sum of its letter-content blocks
    W_c (the words with c_a letters a): the conditions never mix blocks,
    since a word's polynomial has degree c_i in the coordinate-i increments
    and every substitution maps a coordinate-i increment to a form in
    coordinate i.
    Under the permutation matrices the block of content c is the letter
    relabelling of the dominant block of sorted(c), whose counts do not
    increase from letter 1 to letter d.  So the chain only builds the
    dominant blocks, and of those first only the highest-weight spaces
    HW_lambda(W), the vectors of W_lambda that every E_i kills.

    HW_lambda of the whole degree-k space is spanned by the f^lambda
    standard polytabloids of shape lambda, with entries +-1 (James's kernel
    intersection theorem: G. D. James, *The Representation Theory of the
    Symmetric Groups*, LNM 682, 1978; Sagan, *The Symmetric Group*, 2.5 and
    2.10; over Q the kernels of the E_i alone cut out the Specht module).
    HW_lambda of a subspace is its intersection with that span, so each
    condition is solved over the current basis of each HW_lambda, one column
    per basis element, and its kernel is lifted back through that basis.

    These solves run on the slice a[s][i] = 0 for s < i.  A vector x that
    every E_i kills is fixed by the unitriangular group exp(t E_i)
    generates on words.  S(AX) = A^{(x)k} S(X) then says that the n-point
    polynomial of x is unchanged under every lower unitriangular A: adding
    a multiple of coordinate j to coordinate i > j on every segment.  So is
    each condition polynomial of x, since the conditions commute with A.
    Such shears move a generic increment matrix onto the slice: for
    i = 2..d in turn, the i - 1 shears into coordinate i solve for
    a[s][i] = 0, s < i, with the matrix of the a[s][j], s, j < i, which the
    earlier steps left triangular with diagonal a[j][j], so invertible.
    The shears therefore move the slice onto a dense set, and a polynomial
    they fix that vanishes on the slice is zero.  On the slice a polynomial
    is zero exactly when its monomials free of the sliced variables are, so
    only those rows are built.  Every row of these solves, and every
    combination of rows, is such an x, so the kernels do not change.
    The argument holds for such x only.  `_meets` (behind `is_in_kernel`,
    `is_invariant` and `loopclosure_membership`), `loopclosure_combinations`
    and `dim_image` of a basis not built here see arbitrary elements, so
    they keep the full conditions: the word 2, which E_1 does not kill,
    has the kernel condition a[1][2] on 2 points, and that is 0 on the
    slice.  The time reversal condition is on words and takes no slice.

    Loop closure is one linear map Phi on the degree-k words, one per side,
    with <S(closed X), x> = <S(X), Phi(x)> for every path X: closing X
    appends the segment -T, T the increment of X, and Chen's identity and
    Ree's shuffle theorem turn that into a word map (`_closure_functional`).
    On m >= k segments the polynomials of distinct degree-k words are
    independent: a[1][w_1]...a[k][w_k] occurs only in that of w, so the
    (m+1)-point kernel is 0, and x survives closure exactly when
    Phi(x) = x.  Phi commutes with GL_d, as deconcatenation and shuffles do,
    so for a highest-weight x of weight lambda, Phi(x) - x lies in HW_lambda
    of the whole degree-k space: the span of the standard polytabloids e_T.
    A tabloid of shape lambda is a word of content lambda (letter r + 1 at
    the entries of row r), and {T} is the dominance-largest tabloid of e_T,
    with coefficient 1 (Sagan, 2.5).  So the coefficients of the e_T at the
    standard words {T'} form a unitriangular matrix in an order that extends
    dominance, and a vector of that span is zero exactly when its
    coefficients at the f^lambda standard words are.  The closure condition
    of these solves is those coefficients of Phi(x) - x.  On m < k segments
    the kernel is not 0, and the condition is the polynomial of Phi(x) - x
    read at every word of the content.  The membership steps above see
    arbitrary rows, so they read Phi(x) - x at every word as well.

    Each dominant block is then rebuilt, highest first in reverse-lex order,
    as W_mu = HW_mu(W) + sum_i F_i W_{mu + alpha_i}, where mu + alpha_i has
    one more letter i and one fewer letter i+1.  W is a sum of irreducible
    gl_d-modules, each generated by its highest-weight vector under U(n-),
    the algebra the F_i generate; so W = U(n-) HW(W), and since
    U(n-) = Q + sum_i F_i U(n-), the weight-mu part of W is HW_mu(W) plus the
    F_i images of the weight-(mu + alpha_i) parts.  The content
    sorted(mu + alpha_i) dominates mu and differs from it, so it is lex
    higher and already rebuilt; a non-dominant mu + alpha_i comes from
    relabelling it.  F_i moves a letter i at position p to i+1, which adds
    d**(k-1-p) to the word's index.  Each dominant block is reduced once, and
    each other block is the relabelling of its dominant block, reduced once
    more on its own.  The blocks have disjoint supports, so the union of
    their reduced bases, sorted by lead, is the reduced echelon basis of the
    whole space.
    """
    words = words_of_degree(d, k)
    blocks: dict[tuple[int, ...], list[int]] = {}
    for c, w in enumerate(words):
        blocks.setdefault(tuple(w.count(a) for a in range(1, d + 1)), []).append(c)
    # the basis of each dominant block's highest-weight space, as rows over the word indices
    highest = {
        content: _polytabloids(d, tuple(m for m in content if m))
        for content in blocks if list(content) == sorted(content, reverse=True)
    }
    for condition in conditions:
        if not any(highest.values()):
            break
        for content, basis in highest.items():
            if basis:
                solutions = _solve(
                    [{words[c]: v for c, v in row.items()} for row in basis], partial(condition, sliced=True)
                )
                # integer multiples of the kernel vectors keep every row integral
                highest[content] = [
                    combine((lam, basis[j]) for j, lam in integral_coefficients([sol])[0][0].items())
                    for sol in solutions.basis
                ]
    index = {w: c for c, w in enumerate(words)}
    spaces: dict[tuple[int, ...], list[dict[int, QQ]]] = {}

    def block(content: tuple[int, ...]) -> list[dict[int, QQ]]:
        if content not in spaces:
            # letter a + 1 of the dominant block becomes letter order[a] + 1 here
            order = sorted(range(d), key=lambda a: -content[a])
            spaces[content] = rref_rows(
                {index[tuple(order[a - 1] + 1 for a in words[c])]: v for c, v in row.items()}
                for row in spaces[tuple(content[a] for a in order)]
            )
        return spaces[content]

    place = [d ** (k - 1 - p) for p in range(k)]
    for mu in sorted(highest, reverse=True):
        rows = list(highest[mu])
        for i in range(1, d):
            if mu[i]:
                above = mu[: i - 1] + (mu[i - 1] + 1, mu[i] - 1) + mu[i + 1:]
                # distinct positions give distinct targets, each with coefficient 1
                lowered = {c: dict.fromkeys((c + place[p] for p, a in enumerate(words[c]) if a == i), 1)
                           for c in blocks[above]}
                for row in integral_coefficients(block(above))[0]:
                    rows.append(combine((v, lowered[c]) for c, v in row.items()))
        # latest lead first: a row whose lead no pivot holds yet becomes one with no elimination
        spaces[mu] = rref_rows(sorted(filter(None, rows), key=min, reverse=True))
    vectors = [row for content in blocks for row in block(content)]
    return SubspaceQ(len(words), sorted(vectors, key=min), _canonical=True), {
        content: [{words[c]: v for c, v in row.items()} for row in rows] for content, rows in highest.items()
    }


def kernel_space(d: int, n: int, k: int) -> GradedBasis:
    """Degree-k elements that every n-point path signature annihilates."""
    # every column carries the same factor k!, which leaves the kernel alone
    return GradedBasis.from_space(d, k, *_cut(d, k, [_kernel_conditions(d, n)]), n=n, group_tag="kernel")


def invariant_space(d: int, n: int, k: int, group: PermGroup) -> GradedBasis:
    """Elements whose signature polynomial is fixed by the group action.

    One block of linear conditions per group generator: the difference
    between the permuted and the original polynomial must vanish.
    """
    if group.n != n:
        raise ValueError("group acts on the wrong number of points")
    conditions = [_group_conditions(d, n, group.generators)] if group.generators else []
    return GradedBasis.from_space(d, k, *_cut(d, k, conditions), n=n, group_tag=group.structure_tag)


def _timerev_conditions(d: int) -> Callable[..., list[dict]]:
    """Antipode minus original of a word combination: zero when it is time-reversal fixed."""
    return lambda row, sliced=False: [add_scaled(dict(antipode(TensorElement(d, row)).terms), -1, row)]


def timerev_space(d: int, k: int) -> GradedBasis:
    """Fixed space of the antipode on degree-k words.

    The antipode sends each word w to (-1)^k rev(w), so the fixed space has
    the basis w + (-1)^k rev(w) for each w before rev(w), and w for each
    palindrome when k is even.  Each such vector leads at w and has its
    other entry at rev(w), which leads no vector: the rows, sorted by lead,
    are already the reduced echelon basis.
    """
    words = words_of_degree(d, k)
    index = {w: c for c, w in enumerate(words)}
    sign = Q1 if k % 2 == 0 else -Q1
    vectors = []
    for c, w in enumerate(words):
        r = index[w[::-1]]
        if c < r:
            vectors.append({c: Q1, r: sign})
        elif c == r and k % 2 == 0:
            vectors.append({c: Q1})
    space = SubspaceQ(len(words), vectors, _canonical=True)
    return GradedBasis.from_space(d, k, space, group_tag="timerev")


def loopclosure_membership(
    x: TensorElement, segments: int | None = None, conditions: dict | None = None
) -> bool:
    """Whether closing an m-segment path to a loop (either side) is invisible.

    Checked per homogeneous part as the word identity Phi(x) = x on each side,
    or its polynomial when the part's degree exceeds m, with m = deg(part)
    segments before closure (overridable).  Pass one `conditions` dict to
    many calls to share one closure condition per (d, m), with its caches.
    """
    conditions = {} if conditions is None else conditions

    def meets(k: int, part: TensorElement) -> bool:
        m = segments if segments is not None else k
        key = ("loopclosure", x.d, m)
        if key not in conditions:
            conditions[key] = _closure_conditions(x.d, m)
        return _meets(part, conditions[key])

    return all(meets(k, part) for k, part in x.graded_parts().items() if k)


def loopclosure_combinations(elements: list[TensorElement], segments: int) -> SubspaceQ:
    """Combinations of degree-`segments` elements that survive loop closure on both sides.

    The coordinates of the returned subspace are coefficients on `elements`.
    """
    return _solve([x.terms for x in elements], _closure_conditions(elements[0].d, segments))


def loopclosure_space(d: int, k: int, segments: int | None = None) -> GradedBasis:
    """Degree-k elements stable under left and right loop closure."""
    m = segments if segments is not None else k
    return GradedBasis.from_space(d, k, *_cut(d, k, [_closure_conditions(d, m)]), group_tag="loopclosure")


# ---------------------------------------------------------------------------
# the simultaneous invariants
# ---------------------------------------------------------------------------


def inv_d_space(d: int, k: int) -> GradedBasis:
    """Degree-k elements invariant for every number of control points.

    The conditions shared by all point counts >= d+3 depend on d mod 4: time
    reversal when d = 0 or 3 (mod 4) and loop closure (k+1 points into a loop
    of k+2) when d is even.  The stabilizers of n = d+1 and n = d+2 points
    remain.  The chain imposes all of these cheapest first, by point count
    (time reversal: 0), so the costly solves run over what the cheap ones leave,
    and builds each only when it gets there, so one condition's caches are
    alive at a time: a stabilizer's substitution caches or loop closure's
    word caches.
    """
    builders = []
    if d % 4 in (0, 3):
        builders.append((0, partial(_timerev_conditions, d)))
    if d % 2 == 0:
        builders.append((k + 2, partial(_closure_conditions, d, k)))
    for n in (d + 1, d + 2):
        generators = stabilizer_structural(d, n).generators
        if generators:
            builders.append((n, partial(_group_conditions, d, n, generators)))
    conditions = (build() for _, build in sorted(builders, key=lambda pair: pair[0]))
    return GradedBasis.from_space(d, k, *_cut(d, k, conditions), group_tag="volume-invariants")


# ---------------------------------------------------------------------------
# membership, image dimension and conjecture evidence
# ---------------------------------------------------------------------------


def is_invariant(x: TensorElement, d: int, n: int, conditions: dict | None = None) -> bool:
    """Whether the signature polynomial of x on n points is stabilizer-fixed.

    Pass one `conditions` dict to many calls to share one condition builder
    per (d, n), with its substitution caches.
    """
    if x.d != d:
        raise ValueError("alphabet mismatch")
    conditions = {} if conditions is None else conditions
    key = ("invariant", d, n)
    if key not in conditions:
        conditions[key] = _group_conditions(d, n, stabilizer_structural(d, n).generators)
    return _meets(x, conditions[key])


def is_in_kernel(x: TensorElement, n: int, conditions: dict | None = None) -> bool:
    """Whether the signature polynomial of x on n points vanishes identically.

    Pass one `conditions` dict to many calls to share one kernel condition
    per (d, n).
    """
    conditions = {} if conditions is None else conditions
    key = ("kernel", x.d, n)
    if key not in conditions:
        conditions[key] = _kernel_conditions(x.d, n)
    return _meets(x, conditions[key])


def _weyl_dimension(content: tuple[int, ...]) -> int:
    """dim S_lambda(Q^d) for lambda = content, d = len(content), by Weyl's dimension formula."""
    pairs = list(combinations(range(len(content)), 2))
    return math.prod(content[i] - content[j] + j - i for i, j in pairs) // math.prod(j - i for i, j in pairs)


def dim_image(basis: GradedBasis, n: int) -> int:
    """Dimension of the image of the basis span under the n-point map.

    The map commutes with GL_d, so on a span that `_cut` built its rank is
    the sum over lambda of its rank on HW_lambda times dim S_lambda(Q^d)
    (Fulton and Harris, *Representation Theory*, Lecture 15), each rank
    solved on the slice.  Any other span is not known to be GL_d-stable:
    its rank is that of all its elements' polynomial columns.
    """
    if basis.dim == 0:
        return 0
    condition = _kernel_conditions(basis.d, n)
    if basis.highest is None:
        return basis.dim - _solve([x.terms for x in basis.elements], condition).dim
    return sum(
        (len(rows) - _solve(rows, partial(condition, sliced=True)).dim) * _weyl_dimension(content)
        for content, rows in basis.highest.items() if rows
    )


def conjecture_evidence(d: int, k: int) -> dict:
    """Evidence report for the minimal-generation conjecture at n = d+2.

    Compares the image dimension of the degree-k invariants on d+2 points
    with the predicted dimension of the span of shuffle powers of the
    signed-volume element (1 when d divides k and the power is visible on
    d+2 points, else 0).  The verdict reports consistency only, never proof.
    """
    n = d + 2
    group = stabilizer_structural(d, n)
    inv = invariant_space(d, n, k, group)
    image_dim = dim_image(inv, n)
    predicted = 0
    witness = None
    if k % d == 0:
        power = shuffle_power(volume_element(d), k // d)
        if k == 0 or not is_in_kernel(power, n):
            predicted = 1
            witness = power
    report = {
        "d": d,
        "n": n,
        "k": k,
        "group": group.structure_tag,
        "dim_raw": inv.dim,
        "dim_image": image_dim,
        "predicted_dim_image": predicted,
        "verdict": "consistent" if image_dim == predicted else "inconsistent",
    }
    if witness is not None:
        report["witness_in_space"] = inv.contains(witness)
    return report
