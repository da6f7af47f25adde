"""Independent brute-force verification over exact arithmetic.

Nothing here reuses the closed-form route: the updated matrix is assembled
directly, chains are checked by matrix-vector products, the characteristic
polynomial comes from an exact Hessenberg reduction and its recurrence, and
Jordan structure is recovered from the rank sequence of powers of
M - eig I, each rank the dimension of N range(N^{k-1}).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import IncompleteSpectrum, ZeroVector
from .linalg import Matrix, Vector
from .perturb import PerturbationProblem
from .poly import Poly
from .scalars import GS_ONE, GS_ZERO, GaussScalar


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    failed_index: int | None = None
    message: str = ""


@dataclass(frozen=True)
class JordanStructure:
    entries: tuple[tuple[GaussScalar, tuple[int, ...]], ...]


def apply_update(problem: PerturbationProblem) -> Matrix:
    """A + x_m b*, assembled entrywise."""
    return linalg.mat_add(
        problem.matrix, linalg.outer_conj(problem.x_m, problem.b)
    )


def verify_chain(
    m: Matrix, eigenvalue: GaussScalar, vectors: list[Vector]
) -> ChainVerdict:
    """Check M v_t = eig v_t + v_{t-1} for all t (v_0 = 0) and v_1 != 0."""
    if not vectors:
        return ChainVerdict(False, None, "empty chain")
    if linalg.vec_is_zero(vectors[0]):
        return ChainVerdict(False, 1, "v_1 is the zero vector")
    prev = linalg.zero_vector(len(vectors[0]))
    for t, v in enumerate(vectors, start=1):
        lhs = linalg.mat_vec(m, v)
        rhs = linalg.vec_add(linalg.vec_scale(eigenvalue, v), prev)
        if lhs != rhs:
            return ChainVerdict(
                False, t, f"chain relation fails at rank {t}"
            )
        prev = v
    return ChainVerdict(True)


def chain_ranks(
    m: Matrix, eigenvalue: GaussScalar, vectors: list[Vector]
) -> list[int | None]:
    """The generalized rank of each vector v: the smallest k <= n with
    N^k v = 0, or None, with N = M - eig I built once.

    When N v_t equals v_{t-1} (nonzero) of rank k < n, then N^j v_t =
    N^{j-1} v_{t-1} gives rank(v_t) = k + 1 without walking; every other
    vector walks N^k v in full.
    """
    n = len(m)
    shifted = _shifted(m, eigenvalue)
    ranks = []
    prev = prev_rank = None
    for v in vectors:
        if linalg.vec_is_zero(v):
            raise ZeroVector("generalized rank of the zero vector is undefined")
        w = linalg.mat_vec(shifted, v)
        if prev_rank is not None and prev_rank < n and w == prev:
            rank = prev_rank + 1
        else:
            rank = None
            for k in range(1, n + 1):
                if linalg.vec_is_zero(w):
                    rank = k
                    break
                w = linalg.mat_vec(shifted, w)
        ranks.append(rank)
        prev, prev_rank = v, rank
    return ranks


def _shifted(m: Matrix, s: GaussScalar) -> Matrix:
    """M - s I."""
    return tuple(
        tuple(x - s if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def char_poly_direct(m: Matrix) -> Poly:
    """det(tI - M) by exact Hessenberg reduction and its recurrence.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9.
    Each step is a similarity: swap row and column p with a later pair to
    bring a nonzero entry under the diagonal, then subtract u times row p
    from row i and add u times column i to column p.  det(tI - H) of the
    upper Hessenberg H then follows from the leading principal minors.
    """
    n = len(m)
    h = [list(row) for row in m]
    for c in range(n - 2):
        p = c + 1
        pivot = next((i for i in range(p, n) if h[i][c]), None)
        if pivot is None:
            continue
        if pivot != p:
            h[p], h[pivot] = h[pivot], h[p]
            for row in h:
                row[p], row[pivot] = row[pivot], row[p]
        hp = h[p]
        t = hp[c]
        for i in range(p + 1, n):
            hi = h[i]
            if not hi[c]:
                continue
            u = hi[c] / t
            hi[c] = GS_ZERO
            for j in range(c + 1, n):
                if hp[j]:
                    hi[j] = hi[j] - u * hp[j]
            for row in h:
                if row[i]:
                    row[p] = row[p] + u * row[i]
    # minors[k] = det(tI - H[:k, :k]), coefficients low degree first
    minors = [[GS_ONE]]
    for k in range(1, n + 1):
        prev = minors[k - 1]
        d = h[k - 1][k - 1]
        q = [GS_ZERO] + prev
        if d:
            for j, c in enumerate(prev):
                q[j] = q[j] - d * c
        sub = GS_ONE  # product of the subdiagonal h[i][i-1] .. h[k-1][k-2]
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1]
            if not sub:
                break
            coef = h[i - 1][k - 1] * sub
            if coef:
                for j, c in enumerate(minors[i - 1]):
                    q[j] = q[j] - coef * c
        minors.append(q)
    return Poly(tuple(minors[n]))


def jordan_structure(
    m: Matrix, eigenvalues: list[GaussScalar]
) -> JordanStructure:
    """Block sizes per eigenvalue from the rank-drop (Weyr) sequence.

    The drop sequence of ranks of N^k, N = M - eig I, is a partition whose
    conjugate is the block-size multiset.  rank(N^k) is the dimension of
    N range(N^{k-1}), so only a row basis of the previous images is kept.
    Requires the eigenvalue list to cover the whole spectrum.
    """
    n = len(m)
    entries = []
    total = 0
    seen = []
    for eig in eigenvalues:
        if eig in seen:
            continue
        seen.append(eig)
        shifted = _shifted(m, eig)
        ranks = [n]
        images = list(zip(*shifted))  # N e_j spans range(N)
        while True:
            basis = linalg.row_basis(images)
            ranks.append(len(basis))
            if ranks[-1] == ranks[-2]:
                break
            images = [linalg.mat_vec(shifted, v) for v in basis]
        drops = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        if not drops or drops[0] == 0:
            continue
        sizes = []
        for k, d in enumerate(drops, start=1):
            nxt = drops[k] if k < len(drops) else 0
            sizes.extend([k] * (d - nxt))
        sizes.sort(reverse=True)
        entries.append((eig, tuple(sizes)))
        total += sum(sizes)
    if total != n:
        raise IncompleteSpectrum(
            f"algebraic multiplicities cover {total} of {n} dimensions"
        )
    return JordanStructure(tuple(entries))
