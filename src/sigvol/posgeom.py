"""Positive matrices, cyclic polytopes and their column-permutation stabilizers.

A configuration of n points in R^d is *positive* when every maximal minor of
the (d+1) x n matrix obtained by prepending a row of ones is strictly
positive; increasing parameters on the moment curve always produce one.  The
subgroup of S_n whose column permutations preserve positivity is computed two
ways: by brute-force filtering of S_n with a purely combinatorial criterion
(a permuted minor equals the sorted minor times the sign of the sorting
permutation, so positivity survives exactly when every (d+1)-subset keeps an
even inversion count), and structurally from case-by-case generator
constructions depending on the parities of d and (d +- small).

Facets of the convex hull come from the evenness criterion on index gaps,
with an exact determinant-sign test as an independent check, and the
d-dimensional volume is computed both by triangulating over vertex 1 and as
the signed-volume pairing of the boundary path.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .exactq import QQ, Q1, det_q, qq
from .freealg import permutation_sign, volume_element
from .sigpoly import PLPath, pair, pl_signature

BRUTE_FORCE_LIMIT = 9


class DegenerateFacetError(ValueError):
    """A facet determinant vanished; the configuration is degenerate."""


# ---------------------------------------------------------------------------
# permutations and explicit groups
# ---------------------------------------------------------------------------


class Permutation:
    """Permutation of {1..n} in one-line notation (images tuple)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Sequence[int]) -> "Permutation":
        imgs = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                imgs[a - 1] = b
        return cls(imgs)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        imgs = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            imgs[j - 1] = i
        return Permutation(imgs)

    def sign(self) -> int:
        return permutation_sign(self.images)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


class PermGroup:
    """Explicit finite subgroup of S_n with a chosen generator list (the identity dropped)."""

    __slots__ = ("n", "elements", "generators", "structure_tag")

    def __init__(self, n: int, elements: Iterable[Permutation], generators: Iterable[Permutation], structure_tag: str):
        self.n = n
        self.elements = sorted(set(elements))
        self.generators = [g for g in generators if not g.is_identity()]
        self.structure_tag = structure_tag
        if Permutation.identity(n) not in set(self.elements):
            raise ValueError("a group must contain the identity")

    @classmethod
    def generated(cls, n: int, generators: Sequence[Permutation], structure_tag: str) -> "PermGroup":
        seen = {Permutation.identity(n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for g in frontier:
                for h in generators:
                    e = h.compose(g)
                    if e not in seen:
                        seen.add(e)
                        nxt.append(e)
            frontier = nxt
        return cls(n, seen, generators, structure_tag)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

    def same_elements(self, other: "PermGroup") -> bool:
        return self.n == other.n and self.elements == other.elements

    def minimal_generators(self) -> list[Permutation]:
        """A small generating sublist, grown greedily over the element list."""
        gens: list[Permutation] = []
        span = PermGroup.generated(self.n, [], "partial")
        for e in self.elements:
            if e not in set(span.elements):
                gens.append(e)
                span = PermGroup.generated(self.n, gens, "partial")
                if span.order == self.order:
                    break
        return gens

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "order": self.order,
            "structure_tag": self.structure_tag,
            "generators": [list(g.images) for g in self.generators],
        }
        if self.order <= 100:
            data["elements"] = [list(e.images) for e in self.elements]
        return data

    def __repr__(self) -> str:
        return f"PermGroup(n={self.n}, order={self.order}, tag={self.structure_tag!r})"


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def _lifted_columns(path: PLPath) -> list[list[QQ]]:
    return [[Q1] + list(p) for p in path.points]


def is_positive_matrix(path: PLPath) -> bool:
    """Whether all (d+1)x(d+1) minors of the lifted point matrix are positive."""
    d, n = path.d, path.n
    if n < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} points, got {n}")
    cols = _lifted_columns(path)
    for subset in combinations(range(n), d + 1):
        rows = [[cols[j][r] for j in subset] for r in range(d + 1)]
        if det_q(rows) <= 0:
            return False
    return True


class CyclicInstance:
    """A point configuration whose lifted matrix is positive."""

    __slots__ = ("d", "n", "path")

    def __init__(self, path: PLPath):
        if not is_positive_matrix(path):
            raise ValueError("configuration is not positive")
        self.path = path
        self.d = path.d
        self.n = path.n

    def __repr__(self) -> str:
        return f"CyclicInstance(d={self.d}, n={self.n})"


def moment_curve_instance(d: int, n: int, params: Sequence) -> CyclicInstance:
    """Points (t, t^2, ..., t^d) for strictly increasing rational parameters."""
    ts = [qq(t) for t in params]
    if len(ts) != n:
        raise ValueError(f"expected {n} parameters, got {len(ts)}")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("parameters must be strictly increasing")
    points = [tuple(t**k for k in range(1, d + 1)) for t in ts]
    return CyclicInstance(PLPath(points))


# ---------------------------------------------------------------------------
# the stabilizer subgroup
# ---------------------------------------------------------------------------


def stabilizes_positivity(perm: Permutation, d: int) -> bool:
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


def stabilizer_bruteforce(d: int, n: int) -> PermGroup:
    """Filter all of S_n by the inversion-parity criterion (guarded n <= 9)."""
    if n < d + 1:
        raise ValueError("need n >= d+1")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is guarded at n <= {BRUTE_FORCE_LIMIT}")
    subsets = list(combinations(range(n), d + 1))
    elements = [
        Permutation(images)
        for images in permutations(range(1, n + 1))
        if all(permutation_sign([images[i] for i in subset]) > 0 for subset in subsets)
    ]
    group = PermGroup(n, elements, [], "bruteforce")
    group.generators = group.minimal_generators()
    return group


def _consecutive_three_cycles(n: int, members: Sequence[int]) -> list[Permutation]:
    return [
        Permutation.from_cycles(n, (members[i], members[i + 1], members[i + 2]))
        for i in range(len(members) - 2)
    ]


def _class_preserving_even_generators(n: int) -> list[Permutation]:
    """Generators of the even permutations preserving odd/even index classes."""
    odds = [i for i in range(1, n + 1) if i % 2 == 1]
    evens = [i for i in range(1, n + 1) if i % 2 == 0]
    gens = _consecutive_three_cycles(n, odds) + _consecutive_three_cycles(n, evens)
    if len(odds) >= 2 and len(evens) >= 2:
        gens.append(Permutation.from_cycles(n, (odds[0], odds[1]), (evens[0], evens[1])))
    return gens


def _reversal(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def _rotation(n: int) -> Permutation:
    return Permutation([i % n + 1 for i in range(1, n + 1)])


GROUP_NAMES = ("trivial", "cyclic", "dihedral", "full")


def named_group(name: str, n: int) -> PermGroup:
    """The trivial, cyclic, dihedral or full symmetric group on n points."""
    if name == "trivial":
        return PermGroup.generated(n, [], "trivial")
    if name == "cyclic":
        return PermGroup.generated(n, [_rotation(n)], "Z/n")
    if name == "dihedral":
        return PermGroup.generated(n, [_rotation(n), _reversal(n)], "D_n")
    if name == "full":
        # a transposition and an n-cycle generate S_n
        gens = [Permutation.from_cycles(n, (1, 2))] if n > 1 else []
        if n > 2:
            gens.append(_rotation(n))
        return PermGroup.generated(n, gens, "S_n")
    raise ValueError(f"unknown group {name!r}")


def stabilizer_structural(d: int, n: int) -> PermGroup:
    """Stabilizer built from its structural description, valid for all n >= d+1.

    Case split on the parity of d, on n - d, and on the parity of (d+1)/2
    or d/2; brute-force equality for small n is part of the test suite.
    """
    if n < d + 1:
        raise ValueError("need n >= d+1")
    if d % 2 == 1:
        if n == d + 1:
            gens = _consecutive_three_cycles(n, list(range(1, n + 1)))
            return PermGroup.generated(n, gens, "A_n")
        if n == d + 2:
            return PermGroup.generated(n, _class_preserving_even_generators(n), "A_n∩(SxS)")
        if ((d + 1) // 2) % 2 == 0:
            return PermGroup.generated(n, [_reversal(n)], "Z/2")
        return named_group("trivial", n)
    # d even
    if n == d + 1:
        gens = _consecutive_three_cycles(n, list(range(1, n + 1)))
        return PermGroup.generated(n, gens, "A_n")
    if n == d + 2:
        base = _class_preserving_even_generators(n)
        s = _reversal(n)
        if (d // 2) % 2 == 0:
            # reversal preserves positivity: adjoin it directly
            return PermGroup.generated(n, base + [s], "(A_n∩(SxS))⋊Z/2")
        # reversal flips signs: pair it with an odd class-preserving swap
        odd_swap = Permutation.from_cycles(n, (1, 3))
        return PermGroup.generated(n, base + [s.compose(odd_swap)], "ker phi")
    if (d // 2) % 2 == 0:
        return named_group("dihedral", n)
    return named_group("cyclic", n)


def kaibel_wassmer_order(d: int, n: int) -> int:
    """Order of the full combinatorial automorphism group of the polytope."""
    if n == d + 1:
        return math.factorial(n)
    if n == d + 2:
        if d % 2 == 0:
            return 2 * math.factorial(n // 2) ** 2
        return math.factorial((n + 1) // 2) * math.factorial(n // 2)
    return 2 * n if d % 2 == 0 else 4


# ---------------------------------------------------------------------------
# facets and volume
# ---------------------------------------------------------------------------


def gale_facets(d: int, n: int) -> list[tuple[int, ...]]:
    """Facet index sets of the cyclic d-polytope with n vertices.

    A d-subset I is a facet exactly when the count of elements of I above j
    has one parity for every j outside I.
    """
    if n < d + 1:
        raise ValueError("need n >= d+1")
    facets = []
    for subset in combinations(range(1, n + 1), d):
        chosen = set(subset)
        parity = None
        ok = True
        for j in range(1, n + 1):
            if j in chosen:
                continue
            count = sum(1 for i in subset if i > j) % 2
            if parity is None:
                parity = count
            elif parity != count:
                ok = False
                break
        if ok:
            facets.append(subset)
    return facets


def facet_check_det(instance: "CyclicInstance | PLPath", index_set: Sequence[int]) -> bool:
    """Determinant-sign facet test: one strict sign over all remaining vertices.

    Accepts a positive instance or a bare path; a vanishing determinant
    (affinely dependent vertices) raises DegenerateFacetError rather than
    being silently signed.
    """
    path = instance.path if isinstance(instance, CyclicInstance) else instance
    subset = tuple(index_set)
    if len(subset) != path.d:
        raise ValueError(f"facet candidate must have {path.d} vertices")
    cols = _lifted_columns(path)
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


def polytope_volume(instance: CyclicInstance) -> QQ:
    """Exact volume by coning the facets not containing vertex 1 over vertex 1."""
    d = instance.d
    cols = _lifted_columns(instance.path)
    total = QQ(0)
    for facet in gale_facets(d, instance.n):
        if 1 in facet:
            continue
        idx = (1,) + facet
        rows = [[cols[i - 1][r] for i in idx] for r in range(d + 1)]
        total += abs(det_q(rows))
    return total / QQ(math.factorial(d))


def signed_volume(path: PLPath) -> QQ:
    """(1/d!) times the signature pairing with the signed-volume element."""
    d = path.d
    sig = pl_signature(path, d)
    return pair(sig, volume_element(d)) / QQ(math.factorial(d))
