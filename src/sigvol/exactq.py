"""Exact rational arithmetic and sparse exact linear algebra.

Everything in this package runs over the rationals with no rounding anywhere.
`QQ` is the scalar type (gmpy2's mpq when available, `fractions.Fraction`
otherwise); matrices are sparse maps and all public results are returned in a
canonical reduced-echelon form so they compare bit-for-bit across runs.

Sparse maps from keys to nonzero coefficients are the one data layout of the
package.  `add_scaled` and `combine` form their linear combinations and
`add_product` their bilinear products; `SparseTerms` gives the word and
polynomial containers one shared addition, scaling, equality and grading;
`signed_sum_text` and `signed_terms` print and tokenise their text forms.
A `SparseMatrixQ` is a list of such maps, one per row (column index to
entry); `MatrixBuilder.build` writes its columns straight into those rows,
and `nullspace` eliminates them as they are.

Every canonical subspace comes from one elimination, `_rref_int`: each row
is scaled to coprime integers, fraction-free elimination brings the rows to
echelon form over the integers, and one back-reduction pass clears each
pivot column from the rows above it.  `rref_rows` divides each reduced row by
its lead.  `nullspace` numbers the columns last-first, so each free column
reads off, with one division per entry, the basis vector of the kernel
that leads at that column: the canonical basis, with no further elimination.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as QQ

Q0 = QQ(0)
Q1 = QQ(1)


def qq(value, den=None) -> QQ:
    """Coerce ints, strings like ``-2/3`` or (num, den) pairs to a rational."""
    if den is not None:
        return QQ(value) / QQ(den)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, d = text.partition("/")
            if int(d) == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return QQ(int(num)) / QQ(int(d))
        return QQ(int(text))
    return QQ(value)


def add_scaled(out: dict, factor, terms: Mapping) -> dict:
    """Add factor * terms into the sparse map `out` in place and return `out`.

    A key whose sum cancels is removed, so `out` never stores a zero.  This
    is the one accumulate step behind every linear combination in the
    package: words, monomials and coordinate rows alike.
    """
    for key, v in terms.items():
        total = out.get(key, 0) + factor * v
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def combine(pairs: Iterable[tuple[object, Mapping]]) -> dict:
    """The sum of factor * terms over (factor, sparse map) pairs."""
    out: dict = {}
    for factor, terms in pairs:
        add_scaled(out, factor, terms)
    return out


def add_product(out: dict, p: Mapping, q: Mapping) -> dict:
    """Add the bilinear product of the sparse maps p and q into `out` in place.

    Keys combine with ``+``: words concatenate and packed monomials multiply.
    As in `add_scaled`, a key whose sum cancels is removed, and `out` is
    returned.
    """
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = k1 + k2
            total = out.get(key, 0) + c1 * c2
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


class SparseTerms:
    """Linear structure shared by sparse maps from keys to nonzero rationals.

    A subclass stores `terms` and provides `_shape()`, the leading
    constructor arguments that two operands must share (``(d,)`` or
    ``(d, n)``), and `_key_degree`, the degree of one key (``len`` for words,
    ``sum`` for exponent tuples).  Every result is built as
    ``type(self)(*self._shape(), terms)``, so the subclass constructor still
    validates each key.
    """

    __slots__ = ()

    def _check_shape(self, other: "SparseTerms") -> None:
        if self._shape() != other._shape():
            raise ValueError(f"{type(self).__name__} shape mismatch: {self._shape()} vs {other._shape()}")

    def __add__(self, other):
        self._check_shape(other)
        return type(self)(*self._shape(), add_scaled(dict(self.terms), 1, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(*self._shape(), {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        s = qq(scalar)
        return type(self)(*self._shape(), {k: c * s for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({self._key_degree(k) for k in self.terms})

    def degree(self) -> int:
        """Top degree (0 for the zero map)."""
        return max(map(self._key_degree, self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1


def signed_sum_text(items: Iterable[tuple[object, str]]) -> str:
    """Render (coefficient, factor text) terms as a signed sum, or "0".

    A coefficient of magnitude 1 is left out in front of a factor; an empty
    factor text stands for a constant term: coefficients -1/2, -1 and 3 on
    the factors "e", "12" and "21" render as ``-1/2*e - 12 + 3*21``.
    """
    parts: list[str] = []
    for c, factor in items:
        mag = abs(c)
        body = (factor if mag == 1 else f"{mag}*{factor}") if factor else str(mag)
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


def signed_terms(text: str) -> list[tuple[QQ, str]]:
    """Split a signed sum into (sign, term text) pairs, ignoring whitespace.

    The inverse of `signed_sum_text` up to the term texts: "" and "0" give
    no terms, and each sign is Q1 or -Q1.
    """
    compact = "".join(text.split())
    if compact in ("", "0"):
        return []
    out = []
    for tok in re.findall(r"[+-]?[^+-]+", compact):
        sign = -Q1 if tok[0] == "-" else Q1
        out.append((sign, tok[1:] if tok[0] in "+-" else tok))
    return out


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrixQ:
    """Sparse matrix over QQ, stored as one sparse row map per row.

    `rows[r]` maps column indices to the nonzero entries of row r; no zero is
    ever stored.  Integer entries stay Python ints (the solvers build integer
    matrices); every other entry is coerced to QQ.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], QQ] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, QQ]] = [{} for _ in range(nrows)]
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) outside a {nrows}x{ncols} matrix")
            if type(v) is not int:
                v = QQ(v)
            if v != 0:
                self.rows[r][c] = v

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[QQ]]) -> "SparseMatrixQ":
        entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v != 0}
        return cls(len(rows), len(rows[0]) if rows else 0, entries)

    def nnz(self) -> int:
        return sum(map(len, self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrixQ)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"SparseMatrixQ({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class MatrixBuilder:
    """Assembles a sparse matrix column by column.

    Row indices are keyed by arbitrary sortable objects (e.g. monomials) that
    are only mapped to dense integer indices once `build` is called, so
    columns can be streamed in without knowing the row set in advance.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._cols: list[dict] = [dict() for _ in range(ncols)]

    def add_column(self, col_index: int, entries: Mapping) -> None:
        add_scaled(self._cols[col_index], 1, entries)

    def build(self) -> SparseMatrixQ:
        """The matrix with one row per row key, in sorted key order."""
        keys = sorted(set().union(*self._cols))
        index = {key: i for i, key in enumerate(keys)}
        # add_scaled stores no zeros, so the entries go straight into the rows
        matrix = SparseMatrixQ(len(keys), self.ncols)
        for c, col in enumerate(self._cols):
            for key, v in col.items():
                matrix.rows[index[key]][c] = v
        return matrix


# ---------------------------------------------------------------------------
# subspaces in canonical reduced echelon form
# ---------------------------------------------------------------------------


class SubspaceQ:
    """A linear subspace of QQ^n stored as a reduced-echelon basis.

    The basis is unique for a given subspace, so equality of subspaces is
    plain equality of the stored data.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Mapping[int, QQ]] = (), *, _canonical=False):
        self.ambient_dim = ambient_dim
        rows = [dict(v) for v in vectors]
        if _canonical:
            self.basis = rows
        else:
            self.basis = rref_rows(rows)

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceQ":
        return cls(ambient_dim, [{i: Q1} for i in range(ambient_dim)], _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vector: Mapping[int, QQ]) -> dict[int, QQ]:
        """Residual of `vector` after elimination against the basis."""
        v = {c: QQ(x) for c, x in vector.items() if x != 0}
        for row in self.basis:
            f = v.get(min(row))
            if f:
                add_scaled(v, -f, row)
        return v

    def contains(self, vector: Mapping[int, QQ]) -> bool:
        return not self.reduce(vector)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceQ)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"SubspaceQ(dim={self.dim}, ambient={self.ambient_dim})"


def rref_rows(rows: Iterable[Mapping[int, QQ]]) -> list[dict[int, QQ]]:
    """Reduced echelon form of a list of sparse rows over QQ."""
    pivots = _rref_int([_integerize_row({c: v for c, v in row.items() if v}) for row in rows])
    return [{c: QQ(v, row[lead]) for c, v in row.items()} for lead, row in sorted(pivots.items())]


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------


def _integerize_row(row: dict[int, QQ]) -> dict[int, int]:
    """Scale a sparse rational row to coprime integers (sign preserved)."""
    if all(type(v) is int for v in row.values()):
        return _strip_content(row)
    den = math.lcm(*(int(v.denominator) for v in row.values()))
    return _strip_content({c: int(v * den) for c, v in row.items()})


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _echelon_int(rows: list[dict[int, int]], ncols: int | None) -> dict[int, dict[int, int]]:
    """Forward elimination over the integers, fraction-free.

    Rows are combined as ``piv[lead]*r - r[lead]*piv`` with the gcd content
    stripped afterwards, so no rational arithmetic happens at all.  Rows are
    taken shortest first (they make cheaper pivots), by a stable sort on
    length alone: the pivots depend on the order, but their reduced echelon
    form does not.  Given `ncols`, elimination stops as soon as every one of
    the `ncols` columns has a pivot, because the rows then span the whole
    space whatever the remaining rows are.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in sorted(rows, key=len):
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                if r[lead] < 0:
                    r = {c: -v for c, v in r.items()}
                pivots[lead] = _strip_content(r)
                break
            # piv[lead]*r - r[lead]*piv cancels the lead, which add_scaled drops
            r = _strip_content(add_scaled({c: piv[lead] * v for c, v in r.items()}, -r[lead], piv))
        if len(pivots) == ncols:
            break
    return pivots


def _rref_int(rows: list[dict[int, int]], ncols: int | None = None) -> dict[int, dict[int, int]]:
    """Reduced echelon form over the integers, fraction-free, keyed by lead column.

    `_echelon_int` brings the rows to echelon form; one pass then clears each
    pivot column from the pivot rows above it, bottom row first, so every
    row it clears with is already reduced and adds nothing in another pivot
    column.  Each row comes out as the primitive integer multiple, with a
    positive lead, of its row of the rational reduced echelon form.
    """
    pivots = _echelon_int(rows, ncols)
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        for c in [c for c in r if c != lead and c in pivots]:
            piv = pivots[c]
            r = _strip_content(add_scaled({k: piv[c] * v for k, v in r.items()}, -r[c], piv))
        pivots[lead] = r
    return pivots


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


# The solver does not read this.  The benchmark tracer (perfbench/spans.py)
# counts a solve as modular when its nnz exceeds it; no solve is modular any
# more, and infinity keeps that count at 0.
MODULAR_NNZ_THRESHOLD = math.inf


def nullspace(matrix: SparseMatrixQ) -> SubspaceQ:
    """Exact basis of {v : Mv = 0}, in canonical reduced echelon form."""
    # with the columns numbered last-first, the reduced rows R give each free
    # column f the kernel vector {f: 1, p: -R[p][f]/R[p][p]}; every such p is
    # numbered before f, so lies after it: the canonical vector leading at f
    last = matrix.ncols - 1
    rows = [_integerize_row({last - c: v for c, v in r.items()}) for r in matrix.rows]
    pivots = _rref_int(rows, matrix.ncols)
    basis = {last - f: {last - f: Q1} for f in range(matrix.ncols) if f not in pivots}
    for p, row in pivots.items():
        for c, v in row.items():
            if c != p:
                basis[last - c][last - p] = QQ(-v, row[p])
    return SubspaceQ(matrix.ncols, [basis[f] for f in sorted(basis)], _canonical=True)


def intersect(a: SubspaceQ, b: SubspaceQ) -> SubspaceQ:
    """Exact intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == a.ambient_dim:
        return SubspaceQ(b.ambient_dim, b.basis)
    if b.dim == b.ambient_dim:
        return SubspaceQ(a.ambient_dim, a.basis)
    # solve U^T lambda = V^T mu: the columns are a's basis and -b's basis
    da = a.dim
    builder = MatrixBuilder(da + b.dim)
    for j, row in enumerate(a.basis):
        builder.add_column(j, row)
    for j, row in enumerate(b.basis):
        builder.add_column(da + j, {c: -v for c, v in row.items()})
    ns = nullspace(builder.build())
    # lift each solution through its a-part, where its lead lies (b's basis is
    # independent): a reduced-echelon kernel lifted through a's reduced-echelon
    # basis is reduced echelon again, so no second elimination runs
    vectors = [combine((lam, a.basis[j]) for j, lam in sol.items() if j < da) for sol in ns.basis]
    return SubspaceQ(a.ambient_dim, vectors, _canonical=True)


def det_q(rows: Sequence[Sequence[QQ]]) -> QQ:
    """Exact determinant of a small dense rational matrix."""
    n = len(rows)
    m = [[QQ(v) for v in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    det = Q1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Q0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Q1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] == 0:
                continue
            f = m[r][c] * inv
            for cc in range(c, n):
                m[r][cc] -= f * m[c][cc]
    return det
