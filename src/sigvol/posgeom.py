"""Positive matrices, cyclic polytopes and their column-permutation stabilizers.

A configuration of n points in R^d is *positive* when every maximal minor of
the (d+1) x n matrix obtained by prepending a row of ones is strictly
positive.  Increasing parameters on the moment curve always produce one (each
minor is a Vandermonde product), so such instances are built unchecked.  The
subgroup of S_n whose column permutations preserve positivity is computed two
ways: by an exhaustive, GF(2)-pruned search of S_n with a purely
combinatorial criterion (a permuted minor equals the sorted minor times the
sign of the sorting permutation, so positivity survives exactly when every
(d+1)-subset keeps an even inversion count), and structurally from
case-by-case generator constructions depending on the parities of d and
(d +- small).  A group is its generators; its elements are enumerated on first use.

Facets of the convex hull come from the evenness criterion on index gaps
(the tests check it against an exact determinant-sign test), and the
d-dimensional volume is computed both by triangulating over vertex 1 and as
the signed-volume pairing of the boundary path.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from .exactq import QQ, Q1, det_q, qq
from .freealg import permutation_sign
from .sigpoly import PLPath, integral_coefficients

BRUTE_FORCE_LIMIT = 9


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


def _closure(n: int, generators: Sequence[Permutation]) -> set[Permutation]:
    """The elements of the subgroup of S_n generated by the given permutations."""
    gens = [g.images for g in generators]  # composed as image tuples, validated once at the end
    seen = {tuple(range(1, n + 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                e = tuple([h[j - 1] for j in g])
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return {Permutation(e) for e in seen}


# the order on n points of each structure the constructions below build; other groups count their elements
_ORDERS = {
    "trivial": lambda n: 1,
    "Z/2": lambda n: 2,
    "Z/n": lambda n: n,
    "D_n": lambda n: 2 * n if n > 2 else n,
    "S_n": math.factorial,
    "A_n": lambda n: math.factorial(n) // 2,
    "A_n∩(SxS)": lambda n: math.factorial((n + 1) // 2) * math.factorial(n // 2) // 2,
    "(A_n∩(SxS))⋊Z/2": lambda n: math.factorial(n // 2) ** 2,
    "ker phi": lambda n: math.factorial(n // 2) ** 2,
}


class PermGroup:
    """Subgroup of S_n given by its generators (identity dropped); elements enumerated on first use.

    A structure tag in `_ORDERS` asserts the group's structure and fixes its order with no enumeration."""

    __slots__ = ("n", "generators", "structure_tag", "_elements")

    def __init__(self, n: int, elements: Iterable[Permutation] | None, generators: Iterable[Permutation], structure_tag: str):
        self.n = n
        self._elements = None if elements is None else sorted(elements)  # None: enumerated on first use
        self.generators = [g for g in generators if not g.is_identity()]
        self.structure_tag = structure_tag

    @classmethod
    def generated(cls, n: int, generators: Sequence[Permutation], structure_tag: str) -> "PermGroup":
        return cls(n, None, generators, structure_tag)

    @property
    def elements(self) -> list[Permutation]:
        if self._elements is None:
            self._elements = sorted(_closure(self.n, self.generators))
        return self._elements

    @property
    def order(self) -> int:
        order = _ORDERS.get(self.structure_tag)
        return len(self.elements) if order is None else order(self.n)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.elements

    def same_elements(self, other: "PermGroup") -> bool:
        return self.n == other.n and self.elements == other.elements

    def minimal_generators(self) -> list[Permutation]:
        """A small generating sublist, grown greedily over the element list."""
        gens: list[Permutation] = []
        span = {Permutation.identity(self.n)}
        for e in self.elements:
            if e not in span:
                gens.append(e)
                span = _closure(self.n, gens)
                if len(span) == self.order:
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
    """Points (t, t^2, ..., t^d) for strictly increasing rational parameters, positive by construction:
    the lifted minor on columns i_0 < ... < i_d is the Vandermonde product of t_j - t_i, i < j."""
    ts = [qq(t) for t in params]
    if len(ts) != n:
        raise ValueError(f"expected {n} parameters, got {len(ts)}")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("parameters must be strictly increasing")
    if n < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} points, got {n}")
    instance = object.__new__(CyclicInstance)
    instance.path, instance.d, instance.n = PLPath([tuple(t**k for k in range(1, d + 1)) for t in ts]), d, n
    return instance


# ---------------------------------------------------------------------------
# the stabilizer subgroup
# ---------------------------------------------------------------------------


def _criterion_echelon(d: int, n: int) -> list[list[int]]:
    """The inversion-parity criterion in echelon form over GF(2), rows grouped by check position.

    The pair of positions i < j is bit j(j-1)/2 + i, so the pairs inside the
    first p positions are exactly the low p(p-1)/2 bits.  Each (d+1)-subset
    of positions gives the row of its pairs.  Elimination on the highest bit
    leaves rows with distinct top bits, each a GF(2) sum of criterion rows;
    a row is checked at the position where its top pair ends.
    """
    pivots: dict[int, int] = {}
    for subset in combinations(range(n), d + 1):
        row = 0
        for i, j in combinations(subset, 2):
            row |= 1 << (j * (j - 1) // 2 + i)
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    checks: list[list[int]] = [[] for _ in range(n)]
    for top, row in pivots.items():
        checks[(1 + math.isqrt(1 + 8 * top)) // 2].append(row)
    return checks


def stabilizer_bruteforce(d: int, n: int) -> PermGroup:
    """All of S_n that passes the inversion-parity criterion (guarded n <= 9).

    An exhaustive search over prefixes of permutations in lexicographic
    order.  With x_ij the inversion bit of positions i < j, the criterion
    says that for every (d+1)-subset S of positions the sum of x over the
    pairs in S is 0 mod 2: a linear system over GF(2), whose rank over GF(2)
    (not over Q, so a few XORs on Python ints) is all the cut needs.  A row
    of _criterion_echelon is tested once its last position is assigned.  An
    odd row is a sum of criterion rows on assigned positions only, so no
    completion of the prefix passes, and the prefix is cut.  The rows span
    the criterion, so a full permutation with every row even passes it.  The
    search keeps exactly what filtering all of S_n keeps, in the same order;
    that filter survives only as a test oracle.
    """
    if n < d + 1:
        raise ValueError("need n >= d+1")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is guarded at n <= {BRUTE_FORCE_LIMIT}")
    checks = _criterion_echelon(d, n)
    elements: list[Permutation] = []
    images = [0] * n
    where = [0] * (n + 1)  # where[v]: the bit of the position holding value v, 0 while v is free

    def extend(p: int, inversions: int, free: tuple[int, ...]) -> None:
        shift = p * (p - 1) // 2
        rows = checks[p]
        for k, v in enumerate(free):
            # the new inversions pair position p with the earlier positions holding larger values
            x = inversions | sum(where[v + 1:]) << shift
            for row in rows:
                if (x & row).bit_count() & 1:
                    break
            else:
                images[p] = v
                if p == n - 1:
                    elements.append(Permutation(images))
                else:
                    where[v] = 1 << p
                    extend(p + 1, x, free[:k] + free[k + 1:])
                    where[v] = 0

    extend(0, 0, tuple(range(1, n + 1)))
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
    if d < 1:
        raise ValueError("need d >= 1")
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
    """(1/d!) times the signature pairing with the signed-volume element.

    Words map onto the exterior algebra of Q^d by w -> e_{w_1} ^ ... ^ e_{w_k},
    an algebra map under which a segment's exp(a) becomes 1 + a (a ^ a = 0)
    and the pairing with the alternating vol_d reads the coefficient of
    e_1 ^ ... ^ e_d.  So the pairing is the top component of the product of
    the 1 + a_s in path order, kept here on the integer increments b = D a as
    coefficients on coordinate bitmasks, and divided by D^d d! at the end.
    """
    d = path.d
    increments, den = integral_coefficients([dict(enumerate(a)) for a in path.increments()])
    wedge = {0: 1}  # bitmask of coordinates -> coefficient of their increasing wedge
    for b in increments:
        support = [(i, c) for i, c in b.items() if c]
        step = dict(wedge)
        for mask, v in wedge.items():
            for i, c in support:
                if not mask >> i & 1:
                    # e_mask ^ e_i: e_i passes the coordinates of mask above i
                    above = (mask >> i).bit_count()
                    step[mask | 1 << i] = step.get(mask | 1 << i, 0) + (-c if above % 2 else c) * v
        wedge = step
    return QQ(wedge.get((1 << d) - 1, 0), den**d * math.factorial(d))
