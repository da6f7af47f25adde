"""Gauss-Jordan references for the tests.

These are deliberately a second, independent elimination: full reduction
to reduced row echelon form, with no zero-skipping, so that the package's
`linalg._eliminate` and its back-substitution are checked against code they
do not share.
"""
from __future__ import annotations

from geu.errors import SingularMatrix
from geu.linalg import Matrix, Vector, as_matrix, vec_scale
from geu.scalars import GS_ONE, GS_ZERO, GaussScalar


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_scale(s: GaussScalar, a: Matrix) -> Matrix:
    return tuple(vec_scale(s, r) for r in a)


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


def gauss_jordan_inverse(a: Matrix) -> Matrix:
    """a^{-1} from the rref of [a | I]; raises SingularMatrix."""
    n = len(a)
    rows = [list(r) + [GS_ONE if i == j else GS_ZERO for j in range(n)]
            for i, r in enumerate(a)]
    reduced, pivots = rref(as_matrix(rows))
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrix("matrix is singular")
    return tuple(r[n:] for r in reduced)
