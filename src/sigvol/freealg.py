"""The free associative algebra on letters 1..d.

Elements are sparse rational linear combinations of words; their linear
structure and grading come from `exactq.SparseTerms`, and concatenation is
`exactq.add_product` on words.  The module provides the shuffle product,
concatenation, the antipode (signed word reversal), the signed-volume
element, Lyndon word enumeration, and a plain-text notation with a
round-tripping parser.

Antipode sign convention: a word w maps to (-1)**len(w) times its reversal.
This is the unique convention adjoint to path time reversal, i.e. the one
that makes <S(reversed X), w> = <S(X), antipode(w)> hold for every piecewise
linear path (checked as a property test in the suite).
"""

from __future__ import annotations

import re
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .exactq import (
    QQ, Q1, SparseTerms, add_product, add_scaled, combine, qq, signed_sum_text, signed_terms,
)

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


class TensorElement(SparseTerms):
    """Sparse rational combination of words over the alphabet {1, ..., d}."""

    __slots__ = ("d", "terms")
    _key_degree = len

    def __init__(self, d: int, terms: Mapping[Word, QQ] | None = None):
        if d < 1:
            raise ValueError("alphabet size must be >= 1")
        self.d = d
        self.terms: dict[Word, QQ] = {}
        if terms:
            for w, c in terms.items():
                c = QQ(c)
                if c == 0:
                    continue
                if any(not 1 <= letter <= d for letter in w):
                    raise ValueError(f"word {w} uses letters outside 1..{d}")
                self.terms[w] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "TensorElement":
        return cls(d)

    @classmethod
    def unit(cls, d: int) -> "TensorElement":
        return cls(d, {EMPTY_WORD: Q1})

    @classmethod
    def from_word(cls, d: int, word: Iterable[int], coeff=1) -> "TensorElement":
        return cls(d, {tuple(word): qq(coeff)})

    def _shape(self) -> tuple[int]:
        return (self.d,)

    # -- grading -----------------------------------------------------------

    def homogeneous_part(self, k: int) -> "TensorElement":
        return TensorElement(self.d, {w: c for w, c in self.terms.items() if len(w) == k})

    def graded_parts(self) -> dict[int, "TensorElement"]:
        return {k: self.homogeneous_part(k) for k in self.degrees()}

    def __repr__(self) -> str:
        return f"TensorElement(d={self.d}, {element_to_text(self)!r})"


# ---------------------------------------------------------------------------
# word-level products
# ---------------------------------------------------------------------------

def _shuffle_words(u: Word, v: Word, memo: dict) -> dict[Word, int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        u, v = v, u
    cached = memo.get((u, v))
    if cached is not None:
        return cached
    out = {(u[0],) + w: m for w, m in _shuffle_words(u[1:], v, memo).items()}
    add_scaled(out, 1, {(v[0],) + w: m for w, m in _shuffle_words(u, v[1:], memo).items()})
    memo[(u, v)] = out
    return out


def shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """Shuffle product: the sum of all interleavings, extended bilinearly."""
    x._check_shape(y)
    memo: dict[tuple[Word, Word], dict[Word, int]] = {}  # per call, so no module state grows
    out: dict[Word, QQ] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            add_scaled(out, cu * cv, _shuffle_words(u, v, memo))
    return TensorElement(x.d, out)


def shuffle_power(x: TensorElement, k: int) -> TensorElement:
    if k < 0:
        raise ValueError("shuffle power needs k >= 0")
    result = TensorElement.unit(x.d)
    for _ in range(k):
        result = shuffle(result, x)
    return result


def concat(x: TensorElement, y: TensorElement) -> TensorElement:
    """Concatenation product: bilinear juxtaposition of words."""
    x._check_shape(y)
    return TensorElement(x.d, add_product({}, x.terms, y.terms))


def antipode(x: TensorElement) -> TensorElement:
    """Signed reversal w -> (-1)**len(w) * reversed(w), extended linearly."""
    # reversal is a bijection on words, so no two terms meet
    return TensorElement(x.d, {w[::-1]: c if len(w) % 2 == 0 else -c for w, c in x.terms.items()})


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------


def permutation_sign(seq: Sequence[int]) -> int:
    """The sign of a sequence of distinct values: (-1) ** (its inversion count)."""
    odd = False
    for i, a in enumerate(seq):
        for b in seq[:i]:
            if b > a:
                odd = not odd
    return -1 if odd else 1


def volume_element(d: int, letters: Iterable[int] | None = None) -> TensorElement:
    """Signed-volume element: sum of sgn(sigma) * (letter words) over S_m.

    With no `letters`, this is the alternating sum over all orderings of
    1..d.  Passing a subset of m distinct letters builds the corresponding
    m-dimensional element on those letters inside the same alphabet.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    chosen = tuple(letters) if letters is not None else tuple(range(1, d + 1))
    if len(set(chosen)) != len(chosen):
        raise ValueError("letters must be distinct")
    if any(not 1 <= l <= d for l in chosen):
        raise ValueError(f"letters must lie in 1..{d}")
    terms: dict[Word, QQ] = {}
    for perm in permutations(range(len(chosen))):
        word = tuple(chosen[p] for p in perm)
        terms[word] = QQ(permutation_sign(perm))
    return TensorElement(d, terms)


def lyndon_words(d: int, k: int) -> list[Word]:
    """All Lyndon words of length k over 1..d, lexicographically ordered."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    out: list[Word] = []
    w = [1]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        # Duval: extend periodically to full length, then increment
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return out


# ---------------------------------------------------------------------------
# text notation
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?([1-9]+|e)$")


def check_text_alphabet(d: int) -> None:
    """The text notation writes each letter as one digit, so its words need d <= 9."""
    if d > 9:
        raise ValueError("text notation renders letters as digits (d <= 9)")


def element_to_text(x: TensorElement) -> str:
    """Canonical text form: terms sorted by degree then lexicographically."""
    check_text_alphabet(x.d)
    return signed_sum_text(
        (x.terms[w], "".join(map(str, w)) or "e") for w in sorted(x.terms, key=lambda w: (len(w), w))
    )


def parse_element(text: str, d: int | None = None) -> TensorElement:
    """Parse the text notation; whitespace-insensitive, inverse of printing."""
    tokens = signed_terms(text)
    if not tokens:
        return TensorElement.zero(d or 1)
    raw: list[tuple[QQ, Word]] = []
    for sign, tok in tokens:
        m = _TERM_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse term {tok!r}")
        coeff_text, word_text = m.groups()
        coeff = sign * (qq(coeff_text) if coeff_text else Q1)
        word = EMPTY_WORD if word_text == "e" else tuple(int(ch) for ch in word_text)
        raw.append((coeff, word))
    maxletter = max((l for _, w in raw for l in w), default=1)
    if d is None:
        d = maxletter
    elif maxletter > d:
        raise ValueError(f"letter {maxletter} exceeds alphabet size {d}")
    return TensorElement(d, combine((coeff, {word: 1}) for coeff, word in raw))


def parse_fixture_blocks(text: str) -> list[tuple[str, str]]:
    """Split fixture file text into (name, body) blocks.

    Lines starting with '#' are comments; blocks are separated by blank
    lines; a block may begin with a ``name: xyz`` line.
    """
    blocks: list[tuple[str, str]] = []
    current_name: str | None = None
    current: list[str] = []

    def flush():
        nonlocal current_name, current
        if current:
            name = current_name or f"element{len(blocks) + 1}"
            blocks.append((name, " ".join(current)))
        current_name, current = None, []

    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if line.lower().startswith("name:"):
            flush()
            current_name = line[5:].strip()
            continue
        current.append(line)
    flush()
    return blocks


def parse_fixture_elements(text: str, d: int | None = None) -> dict[str, TensorElement]:
    return {name: parse_element(body, d) for name, body in parse_fixture_blocks(text)}
