"""Independent brute-force verification over exact arithmetic.

Nothing here reuses the closed-form route: the updated matrix is assembled
directly, chains are checked by matrix-vector products, the characteristic
polynomial comes from Faddeev-LeVerrier, and Jordan structure is recovered
from rank sequences of powers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def block_multiset(self) -> list[tuple[GaussScalar, int]]:
        out = []
        for eig, sizes in self.entries:
            out.extend((eig, s) for s in sizes)
        return sorted(out, key=lambda p: (p[0].re, p[0].im, -p[1]))


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


def generalized_rank(
    m: Matrix, eigenvalue: GaussScalar, v: Vector
) -> int | None:
    """Smallest k <= n with (M - eig I)^k v = 0, or None."""
    if linalg.vec_is_zero(v):
        raise ZeroVector("generalized rank of the zero vector is undefined")
    n = len(m)
    shifted = linalg.mat_sub(m, _scalar_matrix(eigenvalue, n))
    w = v
    for k in range(1, n + 1):
        w = linalg.mat_vec(shifted, w)
        if linalg.vec_is_zero(w):
            return k
    return None


def _scalar_matrix(s: GaussScalar, n: int) -> Matrix:
    return tuple(
        tuple(s if i == j else GS_ZERO for j in range(n)) for i in range(n)
    )


def char_poly_direct(m: Matrix) -> Poly:
    """det(tI - M) via the Faddeev-LeVerrier recursion (exact divisions)."""
    n = len(m)
    coeffs = [GS_ZERO] * (n + 1)
    coeffs[n] = GS_ONE
    aux = linalg.identity(n)
    for k in range(1, n + 1):
        mk = linalg.mat_mul(m, aux)
        c = -linalg.trace(mk) / GaussScalar.from_rational(k)
        coeffs[n - k] = c
        aux = linalg.mat_add(mk, _scalar_matrix(c, n))
    return Poly(tuple(coeffs))


def jordan_structure(
    m: Matrix, eigenvalues: list[GaussScalar]
) -> JordanStructure:
    """Block sizes per eigenvalue from the rank-drop (Weyr) sequence.

    The drop sequence of ranks of (M - eig I)^k is a partition whose
    conjugate is the block-size multiset.  Requires the eigenvalue list to
    cover the whole spectrum.
    """
    n = len(m)
    entries = []
    total = 0
    seen = []
    for eig in eigenvalues:
        if eig in seen:
            continue
        seen.append(eig)
        shifted = linalg.mat_sub(m, _scalar_matrix(eig, n))
        ranks = [n]
        power = linalg.identity(n)
        while True:
            power = linalg.mat_mul(power, shifted)
            r = linalg.rank(power)
            ranks.append(r)
            if r == ranks[-2]:
                break
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
