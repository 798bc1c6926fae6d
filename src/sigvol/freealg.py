"""The free associative algebra on letters 1..d.

Elements are sparse rational linear combinations of words.  The module
provides the shuffle product, concatenation, the deconcatenation splittings,
the antipode (signed word reversal), the signed-volume element, Lyndon word
enumeration, and a plain-text notation with a round-tripping parser.

Antipode sign convention: a word w maps to (-1)**len(w) times its reversal.
This is the unique convention adjoint to path time reversal, i.e. the one
that makes <S(reversed X), w> = <S(X), antipode(w)> hold for every piecewise
linear path (checked as a property test in the suite).
"""

from __future__ import annotations

import re
from itertools import permutations
from typing import Iterable, Mapping

from .exactq import QQ, Q0, Q1, add_scaled, combine, qq

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


class TensorElement:
    """Sparse rational combination of words over the alphabet {1, ..., d}."""

    __slots__ = ("d", "terms")

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

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_alphabet(other)
        return TensorElement(self.d, add_scaled(dict(self.terms), 1, other.terms))

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.d, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar) -> "TensorElement":
        s = qq(scalar)
        if s == 0:
            return TensorElement.zero(self.d)
        return TensorElement(self.d, {w: c * s for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.d == other.d
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -----------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Top degree (0 for the zero element)."""
        return max((len(w) for w in self.terms), default=0)

    def homogeneous_part(self, k: int) -> "TensorElement":
        return TensorElement(self.d, {w: c for w, c in self.terms.items() if len(w) == k})

    def graded_parts(self) -> dict[int, "TensorElement"]:
        return {k: self.homogeneous_part(k) for k in self.degrees()}

    def _check_alphabet(self, other: "TensorElement") -> None:
        if self.d != other.d:
            raise ValueError(f"alphabet mismatch: {self.d} vs {other.d}")

    def __repr__(self) -> str:
        return f"TensorElement(d={self.d}, {element_to_text(self)!r})"


# ---------------------------------------------------------------------------
# word-level products
# ---------------------------------------------------------------------------

_shuffle_cache: dict[tuple[Word, Word], dict[Word, int]] = {}


def _shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        u, v = v, u
    cached = _shuffle_cache.get((u, v))
    if cached is not None:
        return cached
    out: dict[Word, int] = {}
    for w, m in _shuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in _shuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    _shuffle_cache[(u, v)] = out
    return out


def shuffle(x: TensorElement, y: TensorElement) -> TensorElement:
    """Shuffle product: the sum of all interleavings, extended bilinearly."""
    x._check_alphabet(y)
    out: dict[Word, QQ] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            add_scaled(out, cu * cv, _shuffle_words(u, v))
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
    x._check_alphabet(y)
    out: dict[Word, QQ] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            w = u + v
            nc = out.get(w, Q0) + cu * cv
            if nc == 0:
                out.pop(w, None)
            else:
                out[w] = nc
    return TensorElement(x.d, out)


def deconcat_pairs(w: Word) -> list[tuple[Word, Word]]:
    """All prefix/suffix splittings of a word, in order."""
    w = tuple(w)
    return [(w[:j], w[j:]) for j in range(len(w) + 1)]


def antipode(x: TensorElement) -> TensorElement:
    """Signed reversal w -> (-1)**len(w) * reversed(w), extended linearly."""
    # reversal is a bijection on words, so no two terms meet
    return TensorElement(x.d, {w[::-1]: c if len(w) % 2 == 0 else -c for w, c in x.terms.items()})


def timerev_project(x: TensorElement) -> TensorElement:
    """x + antipode(x); the image is exactly the antipode-fixed subspace."""
    return x + antipode(x)


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


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
        terms[word] = QQ(_perm_sign(perm))
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


def element_to_text(x: TensorElement) -> str:
    """Canonical text form: terms sorted by degree then lexicographically."""
    if x.d > 9:
        raise ValueError("text notation renders letters as digits (d <= 9)")
    if not x.terms:
        return "0"
    parts: list[str] = []
    for w in sorted(x.terms, key=lambda w: (len(w), w)):
        c = x.terms[w]
        word = "".join(str(l) for l in w) if w else "e"
        mag = abs(c)
        body = word if mag == 1 and w else (f"{mag}*{word}" if w or mag != 1 else "e")
        if not w and mag == 1:
            body = "e"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def parse_element(text: str, d: int | None = None) -> TensorElement:
    """Parse the text notation; whitespace-insensitive, inverse of printing."""
    compact = "".join(text.split())
    if compact in ("", "0"):
        return TensorElement.zero(d or 1)
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    raw: list[tuple[QQ, Word]] = []
    for tok in tokens:
        sign = Q1
        if tok[0] == "+":
            tok = tok[1:]
        elif tok[0] == "-":
            sign = -Q1
            tok = tok[1:]
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
