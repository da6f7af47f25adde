"""Exact dense linear algebra over GaussScalar.

Matrices are tuples of row tuples, vectors are tuples.  Everything here is
plain Gaussian elimination over an exact field; sizes are desk-scale so no
attempt is made at fraction-free cleverness.  Every elimination in the
package is `_eliminate`: det and row_basis read its echelon form, and solve
and inverse add one back-substitution over all right-hand columns at once.

Jordan matrices and their similarities are mostly zeros, so products,
eliminations and conj_dot skip zero entries.  Parsed vectors and matrices
hold the one shared GS_ZERO for every zero (see problemfile), and
`nonzeros` drops those by identity at C speed before it tests the rest
exactly; a zero made any other way is still found by the exact test.
`_eliminate` works on rows that keep only their nonzero entries.
"""
from __future__ import annotations

from itertools import compress, islice, repeat
from operator import contains, is_not
from typing import Sequence

from .errors import SingularMatrix
from .scalars import GS_ONE, GS_ZERO, GaussScalar

Vector = tuple[GaussScalar, ...]
Matrix = tuple[Vector, ...]


def as_matrix(rows: Sequence[Sequence[GaussScalar]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(GS_ONE if i == j else GS_ZERO for j in range(n)) for i in range(n)
    )


def zero_vector(n: int) -> Vector:
    return (GS_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(GS_ONE if j == i else GS_ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(s: GaussScalar, v: Vector) -> Vector:
    return tuple(s * x for x in v)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


def nonzeros(v: Sequence[GaussScalar]) -> list[int]:
    """Indices of the nonzero entries of v, in order.

    Entries that are the shared GS_ZERO are dropped by identity, without a
    Python-level call; every other entry gets the exact truth test.
    """
    maybe = compress(range(len(v)), map(is_not, v, repeat(GS_ZERO)))
    return [i for i in maybe if v[i]]


def conj_dot(b: Vector, x: Vector) -> GaussScalar:
    """b* x = sum conj(b_i) x_i."""
    acc = GS_ZERO
    for i in nonzeros(x):
        p = b[i]
        if p:
            acc = acc + p.conjugate() * x[i]
    return acc


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def _dot(row: Vector, v: Vector) -> GaussScalar:
    acc = GS_ZERO
    for x, y in zip(row, v):
        if x and y:
            acc = acc + x * y
    return acc


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(_dot(row, v) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def outer_conj(x: Vector, b: Vector) -> Matrix:
    """x b* : entry (i, j) = x_i conj(b_j)."""
    bc = tuple(s.conjugate() for s in b)
    return tuple(tuple(xi * bj for bj in bc) for xi in x)


SparseRow = dict[int, GaussScalar]


def _sparse(rows: Sequence[Sequence[GaussScalar]]) -> list[SparseRow]:
    """Each row as {column: entry} of its nonzero entries."""
    return [{c: row[c] for c in nonzeros(row)} for row in rows]


def _dense(row: SparseRow, width: int) -> list[GaussScalar]:
    out = [GS_ZERO] * width
    for c, x in row.items():
        out[c] = x
    return out


def _eliminate(rows: list[SparseRow], ncols: int) -> tuple[int, int]:
    """In-place forward elimination; returns (rank, sign of row swaps).

    The pivot of each of the first ncols columns is its first nonzero entry
    at or below the current rank.  Rows keep only nonzero entries, so rows
    from the rank on are empty in the first ncols columns afterwards.
    """
    nrows = len(rows)
    sign = 1
    rank = 0
    for col in range(ncols):
        hits = list(compress(
            range(rank, nrows),
            map(contains, islice(rows, rank, None), repeat(col)),
        ))
        if not hits:
            continue
        pivot = hits[0]
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        prow = rows[rank]
        pv = prow[col]
        rest = [(c, x) for c, x in prow.items() if c != col]
        for r in hits[1:]:
            row = rows[r]
            f = row.pop(col) / pv
            for c, x in rest:
                y = row.get(c, GS_ZERO) - f * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
        rank += 1
        if rank == nrows:
            break
    return rank, sign


def row_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Echelon basis of the span of the vectors (empty for zero span)."""
    if not vectors:
        return []
    width = len(vectors[0])
    rows = _sparse(vectors)
    r, _ = _eliminate(rows, width)
    return [tuple(_dense(row, width)) for row in rows[:r]]


def det(a: Matrix) -> GaussScalar:
    n = len(a)
    rows = _sparse(a)
    r, sign = _eliminate(rows, n)
    if r < n:
        return GS_ZERO
    out = GS_ONE if sign > 0 else -GS_ONE
    for i in range(n):
        out = out * rows[i][i]
    return out


def _solve(a: Matrix, rhs: Sequence[Vector]) -> list[list[GaussScalar]]:
    """Rows of X with a X = rhs, for invertible square a and rhs by rows."""
    n = len(a)
    width = n + len(rhs[0])
    rows = _sparse([tuple(r) + tuple(s) for r, s in zip(a, rhs)])
    r, _ = _eliminate(rows, n)
    if r < n:
        raise SingularMatrix("matrix is singular")
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = _dense(row, width)[n:]
        for j in sorted(c for c in row if i < c < n):
            f = row[j]
            acc = [p - f * q if q else p for p, q in zip(acc, x[j])]
        x[i] = [p / row[i] if p else p for p in acc]
    return x


def solve(a: Matrix, v: Vector) -> Vector:
    """Solve a x = v for invertible square a."""
    return tuple(row[0] for row in _solve(a, [(s,) for s in v]))


def inverse(a: Matrix) -> Matrix:
    """a^{-1} for invertible square a."""
    return as_matrix(_solve(a, identity(len(a))))
