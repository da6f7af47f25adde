"""References and helpers that only the tests use.

The Gauss-Jordan routines are deliberately a second, independent
elimination: full reduction to reduced row echelon form, with no
zero-skipping, so that the package's `linalg._eliminate` and its
back-substitution are checked against code they do not share.
"""
from __future__ import annotations

from geu.errors import SingularMatrix
from geu.linalg import Matrix, Vector, as_matrix, vec_scale
from geu.oracle import JordanStructure, chain_ranks
from geu.poly import Poly, _squarefree_part
from geu.scalars import GS_ONE, GS_ZERO, GaussScalar


def generalized_rank(
    m: Matrix, eigenvalue: GaussScalar, v: Vector
) -> int | None:
    """Smallest k <= n with (M - eig I)^k v = 0, or None."""
    return chain_ranks(m, eigenvalue, [v])[0]


def block_multiset(
    structure: JordanStructure,
) -> list[tuple[GaussScalar, int]]:
    """Every (eigenvalue, block size) of a structure, in one sorted list."""
    out = []
    for eig, sizes in structure.entries:
        out.extend((eig, s) for s in sizes)
    return sorted(out, key=lambda p: (p[0].re, p[0].im, -p[1]))


def distinct_root_count(p: Poly) -> int:
    """Number of distinct complex roots, via deg p - deg gcd(p, p')."""
    return _squarefree_part(p).degree


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
