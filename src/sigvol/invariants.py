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

Each space is one cut-down chain, `_cut`: the full degree-k space cut down
by each of its conditions in turn.  Every condition commutes with linear
maps of R^d, so the chain splits by letter content (how often each letter
occurs in a word): it solves only the blocks whose letter counts do not
increase, and fills every other block by relabelling the letters of one of
those.

Raw dimensions of ``invariant_space`` include the full kernel (the zero
polynomial is invariant under anything), so counts of "visibly distinct"
invariants are reported as image dimensions via ``dim_image``: the rank of
the matrix whose columns are the basis elements' n-point polynomials, found
by one nullspace with one column per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Mapping

from .exactq import Q1, QQ, MatrixBuilder, SubspaceQ, add_scaled, combine, nullspace, rref_rows
from .freealg import TensorElement, Word, antipode, element_to_text, shuffle_power, volume_element
from .posgeom import PermGroup, stabilizer_structural
from .sigpoly import SigPolyCalculator, integral_coefficients, permutation_substitution


def words_of_degree(d: int, k: int) -> list[Word]:
    """All degree-k words over 1..d in lexicographic order."""
    return [tuple(w) for w in product(range(1, d + 1), repeat=k)]


@dataclass
class GradedBasis:
    """A subspace of the degree-k slice, as coordinates and as elements."""

    d: int
    k: int
    space: SubspaceQ
    elements: list[TensorElement] = field(default_factory=list)
    n: int | None = None
    group_tag: str | None = None

    @classmethod
    def from_space(cls, d: int, k: int, space: SubspaceQ, **extra) -> "GradedBasis":
        words = words_of_degree(d, k)
        elements = [
            TensorElement(d, {words[c]: v for c, v in row.items()})
            for row in space.basis
        ]
        return cls(d, k, space, elements, **extra)

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


def _group_conditions(d: int, n: int, generators) -> Callable[[dict[Word, int]], list[dict]]:
    """Per generator: permuted minus original packed polynomial of a word combination."""
    calc = SigPolyCalculator(d, n)
    substitutions = [permutation_substitution(d, n, g.images) for g in generators]

    def conditions(coeffs: dict[Word, int]) -> list[dict]:
        base = calc.combination(coeffs)
        return [add_scaled(sub.apply_packed(base), -1, base) for sub in substitutions]

    return conditions


def _closure_conditions(d: int, m: int) -> Callable[[dict[Word, int]], list[dict]]:
    """Per side: closed minus open packed polynomial of a word combination on m segments."""
    return SigPolyCalculator(d, m + 1).closure_differences


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


def _cut(d: int, k: int, conditions) -> SubspaceQ:
    """The degree-k elements that meet every condition, cut down one condition at a time.

    The space is solved one letter-content block at a time (the words with
    the same count of each letter), and only on the dominant blocks, whose
    counts do not increase from letter 1 to letter d.  Every condition here
    commutes with each linear map A of R^d, because S(AX) = A^{(x)k} S(X),
    A maps an n-point path to an n-point path, and A commutes with
    permuting, reversing or closing its control points; so each space the
    chain builds is GL_d-stable.  Under the diagonal A it is the direct sum
    of its blocks: the conditions never mix blocks, since a word's
    polynomial has degree c_i in the coordinate-i increments and every
    substitution maps a coordinate-i increment to a form in coordinate i.
    Under the permutation matrices the block of content c is the letter
    relabelling of the dominant block of sorted(c).

    On a block each condition is solved over the current basis, one column
    per basis element, so it solves at the dimension the conditions before
    it left.  The kernel lifts back through that basis with no second
    elimination: a reduced-echelon kernel vector lambda, lifted through a
    reduced-echelon basis, has entry lambda_j at the j-th old pivot and
    nothing before the old pivot of its own lead, so the lifts are reduced
    echelon again.  A relabelled block is reduced once more on its own.
    The blocks have disjoint supports, so the union of their reduced bases,
    sorted by lead, is the reduced echelon basis of the whole space.
    """
    words = words_of_degree(d, k)
    blocks: dict[tuple[int, ...], list[int]] = {}
    for c, w in enumerate(words):
        blocks.setdefault(tuple(w.count(a) for a in range(1, d + 1)), []).append(c)
    # the basis of each dominant block, as rows over the word indices
    dominant = {
        content: [{c: Q1} for c in cols]
        for content, cols in blocks.items() if list(content) == sorted(content, reverse=True)
    }
    for condition in conditions:
        if not any(dominant.values()):
            break
        for content, basis in dominant.items():
            if basis:
                solutions = _solve([{words[c]: v for c, v in row.items()} for row in basis], condition)
                dominant[content] = [
                    combine((lam, basis[j]) for j, lam in sol.items()) for sol in solutions.basis
                ]
    index = {w: c for c, w in enumerate(words)}
    vectors = []
    for content in blocks:
        # letter a + 1 of the dominant block becomes letter order[a] + 1 here
        order = sorted(range(d), key=lambda a: -content[a])
        basis = dominant[tuple(content[a] for a in order)]
        if order == sorted(order):
            vectors += basis
        else:
            vectors += rref_rows(
                {index[tuple(order[a - 1] + 1 for a in words[c])]: v for c, v in row.items()} for row in basis
            )
    return SubspaceQ(len(words), sorted(vectors, key=min), _canonical=True)


def kernel_space(d: int, n: int, k: int) -> GradedBasis:
    """Degree-k elements that every n-point path signature annihilates."""
    calc = SigPolyCalculator(d, n)
    # every column carries the same factor k!, which leaves the kernel alone
    space = _cut(d, k, [lambda row: [calc.combination(row)]])
    return GradedBasis.from_space(d, k, space, n=n, group_tag="kernel")


def invariant_space(d: int, n: int, k: int, group: PermGroup) -> GradedBasis:
    """Elements whose signature polynomial is fixed by the group action.

    One block of linear conditions per group generator: the difference
    between the permuted and the original polynomial must vanish.
    """
    if group.n != n:
        raise ValueError("group acts on the wrong number of points")
    conditions = [_group_conditions(d, n, group.generators)] if group.generators else []
    return GradedBasis.from_space(d, k, _cut(d, k, conditions), n=n, group_tag=group.structure_tag)


def _timerev_conditions(d: int) -> Callable[[dict[Word, int]], list[dict]]:
    """Antipode minus original of a word combination: zero when it is time-reversal fixed."""
    return lambda row: [add_scaled(dict(antipode(TensorElement(d, row)).terms), -1, row)]


def timerev_space(d: int, k: int) -> GradedBasis:
    """Fixed space of the antipode on degree-k words."""
    space = _cut(d, k, [_timerev_conditions(d)])
    return GradedBasis.from_space(d, k, space, group_tag="timerev")


def loopclosure_membership(x: TensorElement, segments: int | None = None) -> bool:
    """Whether closing an m-segment path to a loop (either side) is invisible.

    Checked as two exact polynomial identities per homogeneous part, with
    m = deg(part) segments before closure (overridable).
    """
    return all(
        _meets(part, _closure_conditions(x.d, segments if segments is not None else k))
        for k, part in x.graded_parts().items() if k
    )


def loopclosure_combinations(elements: list[TensorElement], segments: int) -> SubspaceQ:
    """Combinations of degree-`segments` elements that survive loop closure on both sides.

    The coordinates of the returned subspace are coefficients on `elements`.
    """
    return _solve([x.terms for x in elements], _closure_conditions(elements[0].d, segments))


def loopclosure_space(d: int, k: int, segments: int | None = None) -> GradedBasis:
    """Degree-k elements stable under left and right loop closure."""
    m = segments if segments is not None else k
    space = _cut(d, k, [_closure_conditions(d, m)])
    return GradedBasis.from_space(d, k, space, group_tag="loopclosure")


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
    and builds each only when it gets there: one calculator memo at a time.
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
    space = _cut(d, k, (build() for _, build in sorted(builders, key=lambda pair: pair[0])))
    return GradedBasis.from_space(d, k, space, group_tag="volume-invariants")


# ---------------------------------------------------------------------------
# membership, image dimension and conjecture evidence
# ---------------------------------------------------------------------------


def is_invariant(x: TensorElement, d: int, n: int, conditions: dict | None = None) -> bool:
    """Whether the signature polynomial of x on n points is stabilizer-fixed.

    Pass one `conditions` dict to many calls to share one condition builder
    per (d, n), with its calculator memo and substitution caches.
    """
    if x.d != d:
        raise ValueError("alphabet mismatch")
    conditions = {} if conditions is None else conditions
    if (d, n) not in conditions:
        conditions[d, n] = _group_conditions(d, n, stabilizer_structural(d, n).generators)
    return _meets(x, conditions[d, n])


def dim_image(basis: GradedBasis, n: int) -> int:
    """Dimension of the image of the basis span under the n-point map."""
    if basis.dim == 0:
        return 0
    # the rank of the basis elements' polynomial columns
    calc = SigPolyCalculator(basis.d, n)
    return basis.dim - _solve([x.terms for x in basis.elements], lambda row: [calc.combination(row)]).dim


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
        calc = SigPolyCalculator(d, n)
        if k == 0 or not calc.element_poly(power).is_zero():
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
