"""Exact reference computations in plain `fractions`, written apart from sigvol.

The output checkers compare the CLI's answers with these.  Nothing here
imports sigvol: elements are dicts {word tuple: Fraction}, paths are lists of
increment vectors, polynomials are lists of (coefficient, {(s, i): power}).
Ranks of large matrices are taken modulo a prime with numpy; a rank mod p is
never above the rank over Q.  numpy is imported by the functions that use it,
so that it does not count in the benchmark's set-up time.
"""

from __future__ import annotations

import math
import re
from functools import cache
from typing import TYPE_CHECKING
from fractions import Fraction
from itertools import combinations, permutations, product

if TYPE_CHECKING:
    import numpy as np

Element = dict  # {tuple[int, ...]: Fraction}


# ---------------------------------------------------------------------------
# elements of the word algebra
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?([1-9]+|e)$")


def parse_element(text: str) -> Element:
    """The `coef*word` notation: `36*12333 - 4*13233`, `-2/3*13323`, `e`."""
    compact = "".join(text.split())
    out: Element = {}
    if compact in ("", "0"):
        return out
    for tok in re.findall(r"[+-]?[^+-]+", compact):
        sign = -1 if tok[0] == "-" else 1
        m = _TERM.match(tok.lstrip("+-"))
        if not m:
            raise ValueError(f"cannot parse term {tok!r}")
        coeff = sign * Fraction(m.group(1) or 1)
        word = () if m.group(2) == "e" else tuple(int(ch) for ch in m.group(2))
        _add(out, word, coeff)
    return out


def parse_fixture(text: str) -> dict[str, Element]:
    """Blank-line separated blocks with `#` comments and `name:` headers."""
    blocks: dict[str, Element] = {}
    name, body = None, []
    for line in text.splitlines() + [""]:
        line = line.split("#", 1)[0].strip()
        if line.lower().startswith("name:") or not line:
            if body:
                blocks[name or f"element{len(blocks) + 1}"] = parse_element(" ".join(body))
                name, body = None, []
            if line:
                name = line[5:].strip()
            continue
        body.append(line)
    return blocks


def _add(out: dict, key, value) -> None:
    new = out.get(key, 0) + value
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def volume_element(letters) -> Element:
    """Sum over orderings of the letters of sign(ordering) * word."""
    letters = tuple(letters)
    out: Element = {}
    for perm in permutations(range(len(letters))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        out[tuple(letters[p] for p in perm)] = Fraction((-1) ** inversions)
    return out


def concat(x: Element, y: Element) -> Element:
    out: Element = {}
    for u, cu in x.items():
        for v, cv in y.items():
            _add(out, u + v, cu * cv)
    return out


def _shuffle_words(u: tuple, v: tuple) -> dict:
    if not u or not v:
        return {u + v: 1}
    out: dict = {}
    for w, c in _shuffle_words(u[:-1], v).items():
        _add(out, w + u[-1:], c)
    for w, c in _shuffle_words(u, v[:-1]).items():
        _add(out, w + v[-1:], c)
    return out


def shuffle(x: Element, y: Element) -> Element:
    out: Element = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for w, c in _shuffle_words(u, v).items():
                _add(out, w, cu * cv * c)
    return out


# ---------------------------------------------------------------------------
# signatures of piecewise linear paths
# ---------------------------------------------------------------------------


def increments(points) -> list[tuple[Fraction, ...]]:
    return [tuple(b - a for a, b in zip(p, q)) for p, q in zip(points, points[1:])]


def word_coefficient(incs, word: tuple) -> Fraction:
    """One signature coefficient by Chen's identity applied word-wise.

    f[j] is the coefficient of the prefix word[:j] on the segments seen so
    far; a segment with increment a contributes a[w_i]...a[w_{j-1}] / (j-i)!
    to every split of the prefix at i.
    """
    k = len(word)
    f = [Fraction(1)] + [Fraction(0)] * k
    for a in incs:
        new = list(f)
        for j in range(1, k + 1):
            prod, total = Fraction(1), f[j]
            for i in range(j - 1, -1, -1):
                prod *= a[word[i] - 1]
                if f[i]:
                    total += f[i] * prod / math.factorial(j - i)
            new[j] = total
        f = new
    return f[k]


def pair(incs, x: Element) -> Fraction:
    return sum((c * word_coefficient(incs, w) for w, c in x.items()), Fraction(0))


def signature(incs, maxdeg: int) -> dict[tuple, Fraction]:
    """Truncated signature as a Chen product of segment exponentials."""
    d = len(incs[0])
    sig: dict[tuple, Fraction] = {(): Fraction(1)}
    for a in incs:
        segment = {(): Fraction(1)}
        for k in range(1, maxdeg + 1):
            for w in product(range(1, d + 1), repeat=k):
                c = Fraction(1, math.factorial(k))
                for letter in w:
                    c *= a[letter - 1]
                if c:
                    segment[w] = c
        out: dict[tuple, Fraction] = {}
        for u, cu in sig.items():
            for v, cv in segment.items():
                if len(u) + len(v) <= maxdeg:
                    _add(out, u + v, cu * cv)
        sig = out
    return sig


# ---------------------------------------------------------------------------
# polynomials in the increment variables a[s][i]
# ---------------------------------------------------------------------------

_VAR = re.compile(r"a\[(\d+)\]\[(\d+)\](?:\^(\d+))?")


def parse_polynomial_fixture(text: str) -> list[tuple[Fraction, dict]]:
    """A bundled image file: optional `scale:` line, then one polynomial."""
    scale, body = Fraction(1), []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.lower().startswith("scale:"):
            scale = Fraction(line[6:].strip())
        elif line:
            body.append(line)
    terms = []
    for tok in re.findall(r"[+-]?[^+-]+", "".join("".join(body).split())):
        sign = -1 if tok[0] == "-" else 1
        tok = tok.lstrip("+-")
        head = tok.split("*", 1)[0]
        coeff = Fraction(head) if not head.startswith("a[") else Fraction(1)
        powers = {(int(s), int(i)): int(e or 1) for s, i, e in _VAR.findall(tok)}
        terms.append((sign * scale * coeff, powers))
    return terms


def evaluate(poly, incs) -> Fraction:
    total = Fraction(0)
    for coeff, powers in poly:
        value = coeff
        for (s, i), e in powers.items():
            value *= incs[s - 1][i - 1] ** e
        total += value
    return total


# ---------------------------------------------------------------------------
# linear algebra and geometry
# ---------------------------------------------------------------------------


def rank(vectors) -> int:
    """Rank of sparse rational vectors {coordinate: value} by elimination."""
    pivots: dict = {}  # pivot coordinate -> reduced row with value 1 there
    for vec in vectors:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        for c, prow in pivots.items():
            factor = row.get(c)
            if factor:
                for cc, pv in prow.items():
                    _add(row, cc, -factor * pv)
        if row:
            c = min(row)
            inv = 1 / row[c]
            row = {cc: v * inv for cc, v in row.items()}
            for other in pivots.values():
                factor = other.get(c)
                if factor:
                    for cc, v in row.items():
                        _add(other, cc, -factor * v)
            pivots[c] = row
    return len(pivots)


def in_span(vectors, target) -> bool:
    vectors = list(vectors)
    return rank(vectors + [target]) == rank(vectors)


def det(rows) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for cc in range(c, n):
                m[r][cc] -= f * m[c][cc]
    return sign * out


def hull_volume(points) -> Fraction:
    """Volume of the convex hull of points in general position in R^d.

    A d-subset spans a facet when every other point lies strictly on one
    side of its hyperplane; the volume cones the facets missing the first
    point over that point.
    """
    d, n = len(points[0]), len(points)
    total = Fraction(0)
    for facet in combinations(range(n), d):
        sides = set()
        for j in range(n):
            if j not in facet:
                rows = [[q - p for p, q in zip(points[facet[0]], points[i])] for i in facet[1:] + (j,)]
                sides.add(det(rows) > 0)
        if len(sides) == 1 and 0 not in facet:
            rows = [[q - p for p, q in zip(points[0], points[i])] for i in facet]
            total += abs(det(rows))
    return total / math.factorial(d)


def shoelace(points) -> Fraction:
    """Signed area enclosed by the closed polygon through the points."""
    closed = list(points) + [points[0]]
    return sum((p[0] * q[1] - q[0] * p[1] for p, q in zip(closed, closed[1:])), Fraction(0)) / 2


# ---------------------------------------------------------------------------
# linear algebra modulo a prime
# ---------------------------------------------------------------------------

PRIME = 2097143  # below 2**21: a dot product of up to 2**10 residues is exact in float64


def mod_p(value: Fraction) -> int:
    value = Fraction(value)
    if value.denominator % PRIME == 0:
        raise ValueError(f"{value} has no residue mod {PRIME}")
    return value.numerator * pow(value.denominator, -1, PRIME) % PRIME


def rank_mod_p(matrix: np.ndarray) -> int:
    """Rank over GF(PRIME) of an int64 matrix of residues, by row reduction."""
    import numpy as np

    a = np.array(matrix, dtype=np.int64) % PRIME
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, PRIME) % PRIME
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            a[below, c:] = (a[below, c:] - a[below, c, None] * a[r, c:]) % PRIME
        r += 1
    return r


@cache
def signature_matrix_mod_p(d: int, n: int, k: int) -> tuple[tuple, np.ndarray]:
    """(words, M): row w of M is the degree-k signature coefficient of w on
    n-point paths in R^d, as a polynomial in the n-1 increments, mod PRIME.

    Chen's identity for segments: the coefficient of w is the sum over splits
    w = u_1 ... u_{n-1} of prod_s a_s^{u_s} / |u_s|!.  The monomial of a split
    is fixed by the letter counts of each u_s, and splits of one word give
    distinct monomials, so each row has one entry per split.
    """
    import numpy as np

    words = tuple(product(range(1, d + 1), repeat=k))
    segments = n - 1
    cuts = list(combinations(range(k + segments - 1), segments - 1))  # stars and bars
    inv_fact = [pow(math.factorial(i), -1, PRIME) for i in range(k + 1)]
    columns: dict = {}
    entries = []
    for row, w in enumerate(words):
        for bars in cuts:
            bounds = [b - i for i, b in enumerate(bars)]
            pieces = [w[a:b] for a, b in zip([0] + bounds, bounds + [k])]
            key = tuple(tuple(piece.count(c) for c in range(1, d + 1)) for piece in pieces)
            value = 1
            for piece in pieces:
                value = value * inv_fact[len(piece)] % PRIME
            entries.append((row, columns.setdefault(key, len(columns)), value))
    matrix = np.zeros((len(words), len(columns)), dtype=np.int64)
    for row, col, value in entries:
        matrix[row, col] = value
    return words, matrix


def kernel_dimension(d: int, n: int, k: int) -> int:
    """d^k minus the rank mod PRIME of the signature matrix: an upper bound on
    the dimension of the degree-k kernel of the n-point signature map, equal
    to it unless PRIME divides every maximal minor."""
    words, matrix = signature_matrix_mod_p(d, n, k)
    return len(words) - rank_mod_p(matrix.T if matrix.shape[0] > matrix.shape[1] else matrix)


def product_mod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod PRIME for residue matrices with an inner size of at most 2**10."""
    import numpy as np

    assert a.shape[1] <= 1 << 10
    return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % PRIME


def elements_mod_p(elements, words) -> np.ndarray:
    import numpy as np

    index = {w: i for i, w in enumerate(words)}
    out = np.zeros((len(elements), len(words)), dtype=np.int64)
    for row, x in enumerate(elements):
        for w, c in x.items():
            out[row, index[w]] = mod_p(c)
    return out
