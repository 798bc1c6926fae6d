"""Exact rational arithmetic and sparse exact linear algebra.

Everything in this package runs over the rationals with no rounding anywhere.
`QQ` is the scalar type (gmpy2's mpq when available, `fractions.Fraction`
otherwise); matrices are sparse maps and all public results are returned in a
canonical reduced-echelon form so they compare bit-for-bit across runs.

Every nullspace takes one path: each row is scaled to coprime integers,
fraction-free elimination brings the rows to echelon form over the integers,
back-substitution reads off one kernel vector per free column, and
`SubspaceQ` puts that basis in canonical form.
"""

from __future__ import annotations

import math
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


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrixQ:
    """Sparse matrix over QQ; no zero entries are ever stored.

    Integer entries stay Python ints (the solvers build integer matrices);
    every other entry is coerced to QQ.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], QQ] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], QQ] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ValueError(f"entry ({r},{c}) outside a {nrows}x{ncols} matrix")
                if type(v) is not int:
                    v = QQ(v)
                if v != 0:
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[QQ]]) -> "SparseMatrixQ":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = QQ(v)
        return cls(nrows, ncols, entries)

    def rows_as_dicts(self) -> list[dict[int, QQ]]:
        rows: list[dict[int, QQ]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrixQ)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
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
        keys = sorted(set().union(*self._cols))
        index = {key: i for i, key in enumerate(keys)}
        entries = {}
        for c, col in enumerate(self._cols):
            for key, v in col.items():
                entries[(index[key], c)] = v
        return SparseMatrixQ(len(keys), self.ncols, entries)


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

    @classmethod
    def from_dense(cls, vectors: Iterable[Sequence[QQ]], ambient_dim: int) -> "SubspaceQ":
        rows = []
        for vec in vectors:
            rows.append({i: QQ(v) for i, v in enumerate(vec) if v != 0})
        return cls(ambient_dim, rows)

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

    def contains_subspace(self, other: "SubspaceQ") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(row) for row in other.basis)

    def dense_basis(self) -> list[list[QQ]]:
        out = []
        for row in self.basis:
            vec = [Q0] * self.ambient_dim
            for c, v in row.items():
                vec[c] = v
            out.append(vec)
        return out

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
    pivots: dict[int, dict[int, QQ]] = {}
    for row in rows:
        r = {c: QQ(v) for c, v in row.items() if v != 0}
        # pivot rows carry no other pivot columns, so one pass clears them all
        for c in sorted(c for c in r if c in pivots):
            f = r.get(c)
            if f:
                add_scaled(r, -f, pivots[c])
        if not r:
            continue
        lead = min(r)
        inv = Q1 / r[lead]
        r = {c: v * inv for c, v in r.items()}
        # clear the new pivot column from the existing rows
        for other in pivots.values():
            f = other.get(lead)
            if f:
                add_scaled(other, -f, r)
        pivots[lead] = r
    return [pivots[c] for c in sorted(pivots)]


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------


def _integerize_row(row: Mapping[int, QQ]) -> dict[int, int]:
    """Scale a sparse rational row to coprime integers (sign preserved)."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        den = den * v.denominator // math.gcd(den, int(v.denominator))
    ints = {c: int(v.numerator) * (den // int(v.denominator)) for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = math.gcd(g, v)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _echelon_int(rows: list[dict[int, int]], ncols: int) -> dict[int, dict[int, int]]:
    """Forward elimination over the integers, fraction-free.

    Rows are combined as ``piv[lead]*r - r[lead]*piv`` with the gcd content
    stripped afterwards, so no rational arithmetic happens until
    back-substitution.  Rows are taken shortest first (they make cheaper
    pivots), by a stable sort on length alone: the pivots depend on the
    order, but the kernel they give, once canonical, does not.  Elimination
    stops as soon as every one of the `ncols` columns has a pivot, because
    the kernel is then {0} whatever the remaining rows are.
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


def _kernel_from_echelon(pivots: dict[int, dict[int, int]], ncols: int) -> list[dict[int, QQ]]:
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    piv_cols_desc = sorted(pivots, reverse=True)
    for f in free_cols:
        vec: dict[int, QQ] = {f: Q1}
        for lead in piv_cols_desc:
            if lead > f:
                continue
            row = pivots[lead]
            acc = Q0
            for c, v in row.items():
                if c == lead:
                    continue
                x = vec.get(c)
                if x is not None:
                    acc += QQ(v) * x
            if acc != 0:
                vec[lead] = -acc / QQ(row[lead])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


# The solver does not read this.  The benchmark tracer (perfbench/spans.py)
# counts a solve as modular when its nnz exceeds it; no solve is modular any
# more, and infinity keeps that count at 0.
MODULAR_NNZ_THRESHOLD = math.inf


def nullspace(matrix: SparseMatrixQ) -> SubspaceQ:
    """Exact basis of {v : Mv = 0}, in canonical reduced echelon form."""
    rows = [_integerize_row(r) for r in matrix.rows_as_dicts()]
    pivots = _echelon_int(rows, matrix.ncols)
    return SubspaceQ(matrix.ncols, _kernel_from_echelon(pivots, matrix.ncols))


def rank(matrix: SparseMatrixQ) -> int:
    """Exact rank; rank + dim nullspace = ncols."""
    return matrix.ncols - nullspace(matrix).dim


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
    # lift each solution through its a-part; rref_rows drops empty rows
    vectors = [combine((lam, a.basis[j]) for j, lam in sol.items() if j < da) for sol in ns.basis]
    return SubspaceQ(a.ambient_dim, vectors)


def sum_spaces(a: SubspaceQ, b: SubspaceQ) -> SubspaceQ:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceQ(a.ambient_dim, list(a.basis) + list(b.basis))


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
