"""Exact dense linear algebra over GaussScalar.

Matrices are tuples of row tuples, vectors are tuples.  Everything here is
plain Gaussian elimination over an exact field; sizes are desk-scale so no
attempt is made at fraction-free cleverness.  Products, eliminations and
conj_dot skip zero entries, which Jordan matrices and their similarities are
full of.
"""
from __future__ import annotations

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

def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s: GaussScalar, v: Vector) -> Vector:
    return tuple(s * x for x in v)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


def conj_dot(b: Vector, x: Vector) -> GaussScalar:
    """b* x = sum conj(b_i) x_i."""
    acc = GS_ZERO
    for p, q in zip(b, x):
        if p and q:
            acc = acc + p.conjugate() * q
    return acc


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_scale(s: GaussScalar, a: Matrix) -> Matrix:
    return tuple(vec_scale(s, r) for r in a)


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


def _eliminate(rows: list[list[GaussScalar]], ncols: int) -> tuple[int, int]:
    """In-place forward elimination; returns (rank, sign of row swaps).

    Rows from the rank on are zero in the first ncols columns afterwards.
    """
    nrows = len(rows)
    sign = 1
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        prow = rows[rank]
        pv = prow[col]
        nonzero = [c for c in range(col + 1, len(prow)) if prow[c]]
        for r in range(rank + 1, nrows):
            row = rows[r]
            if row[col]:
                f = row[col] / pv
                row[col] = GS_ZERO
                for c in nonzero:
                    row[c] = row[c] - f * prow[c]
        rank += 1
        if rank == nrows:
            break
    return rank, sign


def row_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Echelon basis of the span of the vectors (empty for zero span)."""
    if not vectors:
        return []
    rows = [list(v) for v in vectors]
    r, _ = _eliminate(rows, len(rows[0]))
    return [tuple(row) for row in rows[:r]]


def det(a: Matrix) -> GaussScalar:
    n = len(a)
    rows = [list(r) for r in a]
    r, sign = _eliminate(rows, n)
    if r < n:
        return GS_ZERO
    out = GS_ONE if sign > 0 else -GS_ONE
    for i in range(n):
        out = out * rows[i][i]
    return out


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    if not a:
        return a, ()
    rows = [list(r) for r in a]
    ncols = len(a[0])
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot = None
        for r in range(lead, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [c / pv for c in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col]:
                f = rows[r][col]
                rows[r] = [c - f * p for c, p in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return as_matrix(rows), tuple(pivots)


def nullspace(a: Matrix) -> list[Vector]:
    """Exact basis of the kernel; empty list for full column rank."""
    if not a:
        return []
    ncols = len(a[0])
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [GS_ZERO] * ncols
        v[fc] = GS_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, v: Vector) -> Vector:
    """Solve a x = v for invertible square a."""
    n = len(a)
    rows = [list(r) + [v[i]] for i, r in enumerate(a)]
    r, _ = _eliminate(rows, n)
    if r < n:
        raise SingularMatrix("matrix is singular")
    x = [GS_ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = rows[i][n]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    rows = [list(r) + [GS_ONE if i == j else GS_ZERO for j in range(n)]
            for i, r in enumerate(a)]
    reduced, pivots = rref(as_matrix(rows))
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrix("matrix is singular")
    return tuple(r[n:] for r in reduced)
