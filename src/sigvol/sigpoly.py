"""Signatures of piecewise linear paths, exactly.

A piecewise linear path is an ordered list of rational control points.  Its
truncated signature is built by Chen's identity, one segment at a time: the
running signature, one word map per level, is multiplied in place by the
segment's exponential (coefficient a_{i_1}...a_{i_k}/k! on a word of length
k), each level in Horner form.  Numeric signatures use the same L!-scaled
integer Chen step as the symbolic kernel below, times D^L, where D is the
common denominator of the increments: level L is kept as L! D^L times its
coefficients, all ints, and divided once at the end.  `path_pair` pairs a
path with an element by running that step on the prefixes of the element's
words only.  `chen_product` multiplies two given signatures; it groups the
terms of both factors by word length and multiplies only the pairs of
lengths that fit the truncation.

The same computation carried out symbolically yields, for every word, the
polynomial in the increment variables a[s][i] (segment s, coordinate i) that
evaluates the signature on a generic n-point path.  The map from words to
these polynomials is linear and turns the shuffle product into the ordinary
polynomial product; its kernel at fixed n detects elements that vanish on
every n-point path.  `SigPolyCalculator` computes it by one recursion on
word combinations of one letter content.  Each segment takes a prefix of
every word, and the left quotients by those prefixes are built one letter
at a time, so a quotient that cancels ends the walk of its words.  A single
word is a combination of one term on the same walk; nothing is memoized.

Polynomials live over increments rather than raw coordinates, which makes
translation invariance structural.  Substitution helpers re-express a
polynomial after permuting control points or merging a collinear point.
Closing the path into a loop needs none: by Chen's identity and Ree's
shuffle theorem it is one linear map Phi on words, with the closed
polynomial of x the open polynomial of Phi(x), so the loop-closure
conditions (`invariants._closure_conditions`) are word identities and call
`combination` only on fewer segments than the degree.

The computational kernel works on integers.  Scaled by L!, the polynomial of
a length-L word has integer (multinomial) coefficients, and the Chen step
over one segment becomes ``C(L, j) * seg * tail``.  A monomial is packed into
one int with a FIELD_BITS-wide field per variable, so a monomial product is a
single integer addition.  Fields never carry into each other because every
monomial's total degree is checked against MAX_DEGREE where it enters the
kernel: the word length in the Chen recursion and `_pack` for outside
polynomials; linear substitutions preserve total degree.  Packed polynomials
are plain ``dict[int, coefficient]``; the solvers in `invariants` and
`verify` stay in that form end to end, always with one common scale per
solve.  `IncrementPolynomial` (exponent tuples, QQ coefficients) is the
public type, converted to and from only at the edges: `word_poly`,
`element_poly`, `LinearSubstitution.apply`, `signature_polynomial` and the
text functions.  It shares addition, scaling, equality and grading with
`TensorElement` through `exactq.SparseTerms`.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

from .exactq import (
    QQ, Q0, Q1, SparseTerms, add_product, add_scaled, combine, qq, signed_sum_text, signed_terms,
)
from .freealg import EMPTY_WORD, TensorElement, Word

Monomial = tuple[int, ...]
# A packed polynomial: packed monomial -> coefficient (int wherever the
# inputs are integral, else QQ).
Packed = dict[int, object]

FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


class PLPath:
    """Ordered rational control points in R^d."""

    __slots__ = ("d", "points")

    def __init__(self, points: Iterable[Sequence]):
        pts = tuple(tuple(qq(c) for c in p) for p in points)
        if not pts:
            raise ValueError("a path needs at least one control point")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValueError("control points must share one dimension")
        self.d = d
        self.points = pts

    @property
    def n(self) -> int:
        return len(self.points)

    def increments(self) -> list[tuple[QQ, ...]]:
        return [
            tuple(b - a for a, b in zip(p, q))
            for p, q in zip(self.points, self.points[1:])
        ]

    def reversed(self) -> "PLPath":
        return PLPath(self.points[::-1])

    def permuted(self, sigma: Sequence[int]) -> "PLPath":
        """Path through x_{sigma(1)}, ..., x_{sigma(n)} (1-based images)."""
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of the control points")
        return PLPath([self.points[s - 1] for s in sigma])

    def concat(self, other: "PLPath") -> "PLPath":
        if other.points[0] != self.points[-1]:
            raise ValueError("paths do not share an endpoint")
        return PLPath(self.points + other.points[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, PLPath) and self.points == other.points

    def __repr__(self) -> str:
        return f"PLPath(d={self.d}, n={self.n})"


# ---------------------------------------------------------------------------
# truncated signatures
# ---------------------------------------------------------------------------


class TruncatedSignature:
    """Signature coefficients on all words of length <= maxdeg."""

    __slots__ = ("d", "maxdeg", "terms")

    def __init__(self, d: int, maxdeg: int, terms: Mapping[Word, QQ] | None = None):
        self.d = d
        self.maxdeg = maxdeg
        self.terms: dict[Word, QQ] = {EMPTY_WORD: Q1}
        if terms:
            for w, c in terms.items():
                if type(c) is not QQ:
                    c = QQ(c)
                if len(w) > maxdeg:
                    raise ValueError("coefficient beyond truncation degree")
                if c != 0:
                    self.terms[w] = c
        self.terms[EMPTY_WORD] = Q1

    def coeff(self, word: Word) -> QQ:
        return self.terms.get(tuple(word), Q0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSignature)
            and (self.d, self.maxdeg) == (other.d, other.maxdeg)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"TruncatedSignature(d={self.d}, maxdeg={self.maxdeg}, nterms={len(self.terms)})"


def chen_product(s: TruncatedSignature, t: TruncatedSignature) -> TruncatedSignature:
    """Concatenation product: coefficients convolve over prefix/suffix splits."""
    if (s.d, s.maxdeg) != (t.d, t.maxdeg):
        raise ValueError("signatures must share alphabet and truncation degree")
    # one product per pair of degrees that fits the truncation
    s_parts, t_parts = _by_length(s.terms), _by_length(t.terms)
    terms: dict[Word, QQ] = {}
    for i, s_part in s_parts.items():
        for j, t_part in t_parts.items():
            if i + j <= s.maxdeg:
                add_product(terms, s_part, t_part)
    return TruncatedSignature(s.d, s.maxdeg, terms)


def _by_length(terms: Mapping[Word, QQ]) -> dict[int, dict[Word, QQ]]:
    parts: dict[int, dict[Word, QQ]] = {}
    for w, c in terms.items():
        parts.setdefault(len(w), {})[w] = c
    return parts


def _chen_levels(path: PLPath, maxdeg: int, words: frozenset | None = None) -> tuple[list[dict[Word, int]], int]:
    """H_L = L! D^L S_L as ints for L = 0..maxdeg, and D, by Chen's identity.

    D is the lcm of the increment denominators and b = D a the integer
    increments.  Each segment multiplies the running signature in place by
    exp(a): H'_L = sum_j C(L, j) H_j (x) b^{(x)(L-j)}, in Horner form
    acc = acc (x) b + C(L, j) H_j.  Levels are updated top level first, so
    every level a step reads is still the old one.  With `words` (a
    prefix-closed set) only those words are kept: a word's value reads only
    the values of its prefixes.
    """
    increments, den = integral_coefficients([dict(enumerate(a, 1)) for a in path.increments()])
    levels: list[dict[Word, int]] = [{EMPTY_WORD: 1}] + [{} for _ in range(maxdeg)]
    for b in increments:
        support = [(i, c) for i, c in b.items() if c]
        if not support:
            continue  # a doubled control point is the Chen unit
        for top in range(maxdeg, 0, -1):
            acc = levels[0]
            for j in range(1, top + 1):
                if words is None:
                    acc = {w + (i,): v * c for w, v in acc.items() for i, c in support}
                else:
                    acc = {u: v * c for w, v in acc.items() for i, c in support if (u := w + (i,)) in words}
                add_scaled(acc, math.comb(top, j), levels[j])
            levels[top] = acc
    return levels, den


def pl_signature(path: PLPath, maxdeg: int) -> TruncatedSignature:
    """Signature of a piecewise linear path: the integer Chen levels over L! D^L."""
    levels, den = _chen_levels(path, maxdeg)
    return TruncatedSignature(path.d, maxdeg, {
        w: QQ(v, math.factorial(length) * den**length)
        for length, level in enumerate(levels) for w, v in level.items()
    })


def path_pair(path: PLPath, x: TensorElement) -> QQ:
    """<S(path), x>, from the integer Chen levels of the prefixes of x's words only."""
    if x.d != path.d:
        raise ValueError("alphabet mismatch")
    (coeffs,), coeff_den = integral_coefficients([x.terms])
    maxdeg = x.degree()
    levels, den = _chen_levels(path, maxdeg, frozenset(w[:j] for w in coeffs for j in range(len(w) + 1)))
    # a level-L value is over L! D^L; lift every level to the top level's scale
    lift = [math.perm(maxdeg, maxdeg - length) * den ** (maxdeg - length) for length in range(maxdeg + 1)]
    total = sum(c * lift[len(w)] * levels[len(w)].get(w, 0) for w, c in coeffs.items())
    return QQ(total, coeff_den * math.factorial(maxdeg) * den**maxdeg)


def pair(sig: TruncatedSignature, x: TensorElement) -> QQ:
    """Evaluate the signature functional on an algebra element."""
    if x.d != sig.d:
        raise ValueError("alphabet mismatch")
    if x.degree() > sig.maxdeg:
        raise ValueError("element degree exceeds the truncation degree")
    total = Q0
    for w, c in x.terms.items():
        s = sig.terms.get(w)
        if s is not None:
            total += c * s
    return total


# ---------------------------------------------------------------------------
# increment polynomials
# ---------------------------------------------------------------------------


class IncrementPolynomial(SparseTerms):
    """Sparse polynomial in the increment variables a[s][i], exact coefficients.

    Variables are indexed by segment s = 1..n-1 and coordinate i = 1..d; a
    monomial is stored as its exponent tuple over the (n-1)*d variables.
    """

    __slots__ = ("d", "n", "terms")
    _key_degree = sum

    def __init__(self, d: int, n: int, terms: Mapping[Monomial, QQ] | None = None):
        if d < 1 or n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        self.d = d
        self.n = n
        self.terms: dict[Monomial, QQ] = {}
        if terms:
            for m, c in terms.items():
                c = QQ(c)
                if len(m) != self.nvars:
                    raise ValueError("monomial length does not match the variable count")
                if c != 0:
                    self.terms[m] = c

    @property
    def nvars(self) -> int:
        return (self.n - 1) * self.d

    @classmethod
    def constant(cls, d: int, n: int, value=1) -> "IncrementPolynomial":
        return cls(d, n, {(0,) * ((n - 1) * d): qq(value)})

    @classmethod
    def variable(cls, d: int, n: int, s: int, i: int) -> "IncrementPolynomial":
        mono = [0] * ((n - 1) * d)
        mono[(s - 1) * d + (i - 1)] = 1
        return cls(d, n, {tuple(mono): Q1})

    def _shape(self) -> tuple[int, int]:
        return (self.d, self.n)

    def __mul__(self, other: "IncrementPolynomial") -> "IncrementPolynomial":
        # exponent tuples add entrywise, so each term of self shifts other's monomials
        self._check_shape(other)
        shifted = (
            (c1, {tuple(a + b for a, b in zip(m1, m2)): c2 for m2, c2 in other.terms.items()})
            for m1, c1 in self.terms.items()
        )
        return IncrementPolynomial(self.d, self.n, combine(shifted))

    def __repr__(self) -> str:
        return f"IncrementPolynomial(d={self.d}, n={self.n}, nterms={len(self.terms)})"


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


def _unit(var: int) -> int:
    """The packed monomial of one variable."""
    return 1 << (FIELD_BITS * var)


def check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds the packed monomial field (at most {MAX_DEGREE})"
        )


def _pack(mono: Monomial) -> int:
    if any(e < 0 for e in mono):
        raise ValueError("negative exponent in a monomial")
    check_degree(sum(mono))
    packed = 0
    for var, e in enumerate(mono):
        packed |= e << (FIELD_BITS * var)
    return packed


def _unpack(packed: int, nvars: int) -> Monomial:
    return tuple((packed >> (FIELD_BITS * var)) & MAX_DEGREE for var in range(nvars))


def integral_coefficients(maps: Sequence[Mapping[Word, QQ]]) -> tuple[list[dict[Word, int]], int]:
    """Word coefficients of the maps times their common denominator D, and D.

    Each map sends keys to rational coefficients (an element's `terms`, or
    an increment's coordinates by letter).
    Solvers scale all their columns by this one D: scaling every column of
    a matrix alike keeps its kernel, scaling columns apart would not.
    """
    den = 1
    for terms in maps:
        for c in terms.values():
            den = math.lcm(den, int(c.denominator))
    rows = [
        {w: int(c.numerator) * (den // int(c.denominator)) for w, c in terms.items()}
        for terms in maps
    ]
    return rows, den


# ---------------------------------------------------------------------------
# the symbolic signature map
# ---------------------------------------------------------------------------


class SigPolyCalculator:
    """Computes signature polynomials for n-point paths in R^d.

    Internally a word of length L maps to L! times its polynomial, packed
    (see the module docstring); `word_poly` and `element_poly` convert to
    `IncrementPolynomial`.

    `_poly` is the one Chen recursion.  It runs over the first segment on a
    word combination y whose words share one letter content, of length L.
    On segment s each word w = p v splits by j = |p| and the letter content
    c of p; the left quotient y_{j,c} = sum of y_{pv} v gives
    L! P_s(y) = sum over (j, c) of C(L, j) a_s^c (L-j)! P_{s+1}(y_{j,c}).
    The quotients are built one letter at a time: those of prefix length
    j+1 come from stripping the first letter of the words of the nonzero
    quotients of length j.  A quotient that cancels to zero is dropped, so
    the walk of its words ends there and nothing below it is built.  The
    last segment consumes the whole rest of a word, and every word of a
    quotient has the same rest content (y's less c), so there a quotient's
    polynomial is its coefficient sum times one monomial.  A single word
    is a combination of one term.  The calculator keeps no per-word state:
    `_poly` depends only on (segment, length, combination), and each result
    is a new dict that the caller owns.  `combination` runs the recursion
    once per letter content.

    A `sliced` calculator gives the polynomials on the slice a[s][i] = 0
    for s < i: the monomials free of those variables.  There segment s
    takes no letter above s, so the walk of a word on segment s ends at
    its first such letter, and the last segment takes no quotient whose
    content has one.
    """

    def __init__(self, d: int, n: int, sliced: bool = False):
        if d < 1 or n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        self.d = d
        self.n = n
        # _letters[s][i]: the packed variable a[s][i] (index 0 unused)
        self._letters = [()] + [
            (0,) + tuple(_unit((s - 1) * d + i) for i in range(d)) for s in range(1, n)
        ]
        # the packed fields a monomial must miss: those of the sliced variables
        self._off = slice_mask(d, n) if sliced else 0

    def combination(self, coeffs: Mapping[Word, int]) -> dict[int, int]:
        """Sum of c * |w|! * (polynomial of w) over integer coefficients c.

        Words of one letter content recurse together.  The polynomial of a
        word has degree (count of letter i) in the variables a[s][i], so
        polynomials of different contents never share a monomial.
        """
        parts: dict[Word, dict[Word, int]] = {}
        for w, c in coeffs.items():
            if c:
                parts.setdefault(tuple(sorted(w)), {})[w] = c
        out: dict[int, int] = {}
        for content, part in parts.items():
            check_degree(len(content))
            out.update(self._poly(1, len(content), part))
        return out

    def _poly(self, s: int, length: int, y: dict[Word, int]) -> dict[int, int]:
        # L! times the polynomial of the nonzero combination y of one length-L
        # letter content on segments s..n-1
        if s == self.n:
            return {0: y[EMPTY_WORD]} if not length else {}  # only the empty word is nonzero
        if s == self.n - 1:
            # one segment consumes every word whole: one monomial, of their content
            total = sum(y.values())
            content = sum(self._letters[s][a] for a in next(iter(y)))
            return {content: total} if total and not content & self._off else {}
        letters, off = self._letters[s], self._off
        last = s + 1 == self.n - 1
        if last:
            # the rest content of a quotient is y's content on segment s+1 less
            # its prefix content, moved up from segment s by d fields
            content = sum(self._letters[s + 1][a] for a in next(iter(y)))
            shift = FIELD_BITS * self.d
        out: dict[int, int] = {}
        level: dict[int, dict[Word, int]] = {0: y}  # prefix content -> left quotient
        for j in range(length + 1):
            binom = math.comb(length, j)
            for seg, quotient in level.items():
                # terms of different (j, seg) differ in their segment-s monomial, so none meet
                if not last:
                    out.update({m + seg: binom * v for m, v in self._poly(s + 1, length - j, quotient).items()})
                    continue
                rest, total = content - (seg << shift), sum(quotient.values())
                if total and not rest & off:
                    out[rest + seg] = binom * total
            if j == length:
                break
            # strip one more letter; on the slice a prefix ends before a sliced variable
            longer: dict[int, dict[Word, int]] = {}
            for seg, quotient in level.items():
                for w, c in quotient.items():
                    a = letters[w[0]]
                    if a & off:
                        continue
                    following = longer.setdefault(seg + a, {})
                    v = w[1:]
                    total = following.get(v, 0) + c
                    if total:
                        following[v] = total
                    else:
                        del following[v]
            level = {seg: quotient for seg, quotient in longer.items() if quotient}
            if not level:
                break  # every prefix cancelled or left the slice
        return out

    def _to_polynomial(self, terms: Mapping[int, int], den: int) -> IncrementPolynomial:
        # a packed term of degree k stands for 1/(den * k!) of itself
        nvars = (self.n - 1) * self.d
        out: dict[Monomial, QQ] = {}
        for m, c in terms.items():
            mono = _unpack(m, nvars)
            out[mono] = QQ(c, den * math.factorial(sum(mono)))
        return IncrementPolynomial(self.d, self.n, out)

    def word_poly(self, word: Iterable[int]) -> IncrementPolynomial:
        return self.element_poly(TensorElement(self.d, {tuple(word): 1}))

    def element_poly(self, x: TensorElement) -> IncrementPolynomial:
        if x.d != self.d:
            raise ValueError("alphabet mismatch")
        (coeffs,), den = integral_coefficients([x.terms])
        return self._to_polynomial(self.combination(coeffs), den)


def signature_polynomial(x, n: int, d: int | None = None) -> IncrementPolynomial:
    """Signature polynomial of a word or element on a generic n-point path."""
    if isinstance(x, TensorElement):
        calc = SigPolyCalculator(x.d if d is None else d, n)
        return calc.element_poly(x)
    w = tuple(x)
    if d is None:
        d = max(w, default=1)
    return SigPolyCalculator(d, n).word_poly(w)


# ---------------------------------------------------------------------------
# linear substitutions of increment variables
# ---------------------------------------------------------------------------


class LinearSubstitution:
    """Substitute every increment variable by a linear form in new variables.

    `forms[v]` lists (target variable, coefficient) pairs; each form is packed
    once.  A monomial expands as the product of powers of its variables'
    forms, cached per packed monomial (the one cache), since one substitution
    is applied to the polynomials of a whole graded batch of words.  Integral
    form coefficients are kept as ints, so permutations map integer
    polynomials to integer polynomials; rational ones (collinear merges)
    carry QQ through the same code.
    """

    def __init__(self, d: int, n_in: int, n_out: int, forms: Mapping[int, Sequence[tuple[int, QQ]]]):
        self.d = d
        self.n_in = n_in
        self.n_out = n_out
        self._nvars_in = (n_in - 1) * d
        self._nvars_out = (n_out - 1) * d
        if set(forms) != set(range(self._nvars_in)):
            raise ValueError("every input variable needs a substitution form")
        self._forms = [combine((_int_if_integral(c), {_unit(t): 1}) for t, c in forms[v])
                       for v in range(self._nvars_in)]
        self._mono_cache: dict[int, Packed] = {}

    def _expand_monomial(self, mono: int) -> Packed:
        cached = self._mono_cache.get(mono)
        if cached is not None:
            return cached
        result: Packed = {0: 1}
        for var, e in enumerate(_unpack(mono, self._nvars_in)):
            if e:
                power = self._forms[var]
                for _ in range(e - 1):
                    power = add_product({}, power, self._forms[var])
                result = add_product({}, result, power)
        self._mono_cache[mono] = result
        return result

    def apply_packed(self, terms: Mapping[int, object]) -> Packed:
        """The substitution on a packed polynomial over the input variables."""
        return combine((coeff, self._expand_monomial(mono)) for mono, coeff in terms.items())

    def apply(self, p: IncrementPolynomial) -> IncrementPolynomial:
        if (p.d, p.n) != (self.d, self.n_in):
            raise ValueError("polynomial does not match the substitution domain")
        out = self.apply_packed({_pack(m): c for m, c in p.terms.items()})
        return IncrementPolynomial(
            self.d, self.n_out, {_unpack(m, self._nvars_out): c for m, c in out.items()}
        )


def _int_if_integral(c) -> object:
    c = qq(c)
    return int(c) if c.denominator == 1 else c


def permutation_substitution(d: int, n: int, sigma: Sequence[int], sliced: bool = False) -> LinearSubstitution:
    """Substitution realizing control-point permutation on increment variables.

    After relabeling points by sigma, the t-th increment becomes
    x_{sigma(t+1)} - x_{sigma(t)}, i.e. a signed consecutive sum of the
    original increments.  A `sliced` substitution drops the targets a[s][i]
    with s < i from every form: it maps onto the slice where they are 0.
    """
    images = tuple(sigma)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..n in one-line notation")
    forms: dict[int, list[tuple[int, QQ]]] = {}
    for t in range(1, n):
        a, b = images[t - 1], images[t]
        sign = Q1 if b > a else -Q1
        lo, hi = (a, b) if b > a else (b, a)
        for i in range(1, d + 1):
            var = (t - 1) * d + (i - 1)
            forms[var] = [((s - 1) * d + (i - 1), sign) for s in range(lo, hi) if i <= s or not sliced]
    return LinearSubstitution(d, n, n, forms)


def slice_mask(d: int, n: int) -> int:
    """The packed fields of the variables a[s][i] with s < i: a monomial is on the slice when it misses them."""
    return sum(MAX_DEGREE * _unit((s - 1) * d + i - 1) for s in range(1, n) for i in range(s + 1, d + 1))


def substitute_collinear(p: IncrementPolynomial, i: int, lam) -> IncrementPolynomial:
    """Substitute x_i := lam*x_{i-1} + (1-lam)*x_{i+1} and drop the point.

    The two increments adjacent to x_i collapse onto the merged increment
    x_{i+1} - x_{i-1} with weights (1-lam) and lam; later segments shift
    down by one.
    """
    if not 1 < i < p.n:
        raise ValueError("collinear substitution needs an interior index")
    lam = qq(lam)
    d, n = p.d, p.n
    forms: dict[int, list[tuple[int, QQ]]] = {}
    for s in range(1, n):
        if s < i - 1:
            s_out, weight = s, Q1
        elif s == i - 1:
            s_out, weight = i - 1, Q1 - lam
        elif s == i:
            s_out, weight = i - 1, lam
        else:
            s_out, weight = s - 1, Q1
        for coord in range(1, d + 1):
            var = (s - 1) * d + (coord - 1)
            if weight == 0:
                forms[var] = []
            else:
                forms[var] = [((s_out - 1) * d + (coord - 1), weight)]
    return LinearSubstitution(d, n, n - 1, forms).apply(p)


# ---------------------------------------------------------------------------
# polynomial text notation
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"a\[(\d+)\]\[(\d+)\](?:\^(\d+))?")
_POLY_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?((?:\*?a\[\d+\]\[\d+\](?:\^\d+)?)*)$")


def _render(terms: Mapping[Monomial, QQ], d: int, name: str) -> str:
    # monomials in graded order then by exponents; variable idx is name[idx//d+1][idx%d+1]
    def factors(mono: Monomial) -> str:
        out = []
        for idx, e in enumerate(mono):
            if e:
                var = f"{name}[{idx // d + 1}][{idx % d + 1}]"
                out.append(var if e == 1 else f"{var}^{e}")
        return "*".join(out)

    ordered = sorted(terms, key=lambda m: (sum(m), tuple(-e for e in m)))
    return signed_sum_text((terms[mono], factors(mono)) for mono in ordered)


def polynomial_to_text(p: IncrementPolynomial) -> str:
    """Canonical text form, monomials in graded order then by exponents."""
    return _render(p.terms, p.d, "a")


def polynomial_to_x_text(p: IncrementPolynomial) -> str:
    """Render a polynomial in raw point coordinates x[i][j].

    Increments are expanded as a[s][i] = x[s+1][i] - x[s][i]; the result is
    for display only, the increment form stays the computational carrier.
    """
    d, n = p.d, p.n
    # the n*d point coordinates are the variables of an (n+1)-point increment layout
    forms = {
        (s - 1) * d + i: [(s * d + i, Q1), ((s - 1) * d + i, -Q1)]
        for s in range(1, n)
        for i in range(d)
    }
    expanded = LinearSubstitution(d, n, n + 1, forms).apply(p)
    return _render(expanded.terms, d, "x")


def parse_polynomial(text: str, d: int, n: int) -> IncrementPolynomial:
    """Parse the polynomial text notation (whitespace-insensitive)."""
    nvars = (n - 1) * d
    terms: dict[Monomial, QQ] = {}
    for sign, tok in signed_terms(text):
        m = _POLY_TERM_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse monomial {tok!r}")
        coeff_text, var_text = m.groups()
        coeff = sign * (qq(coeff_text) if coeff_text else Q1)
        mono = [0] * nvars
        for s_text, i_text, e_text in _VAR_RE.findall(var_text or ""):
            s, i = int(s_text), int(i_text)
            if not (1 <= s <= n - 1 and 1 <= i <= d):
                raise ValueError(f"variable a[{s}][{i}] outside n={n}, d={d}")
            mono[(s - 1) * d + (i - 1)] += int(e_text) if e_text else 1
        add_scaled(terms, coeff, {tuple(mono): 1})
    return IncrementPolynomial(d, n, terms)
