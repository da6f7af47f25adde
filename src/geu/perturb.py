"""Spectrum-level results for the rank-one update A + x_m b*.

Covers the determinant identity, the resolvent expansion along a Jordan
chain, the degree-m update factor f whose roots are the possibly-changed
eigenvalues, the changed-eigenvalue bound, and the full updated
characteristic polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg, model
from .errors import SingularMatrix, SpectrumCollision
from .linalg import Matrix, Vector
from .model import ChainLocator, JordanSpec
from .poly import Poly, poly_divide_linear, poly_from_shifted, poly_roots
from .scalars import GS_ONE, GS_ZERO, GaussScalar


class PerturbationProblem:
    """A Jordan spec, a source chain position (lambda, rank m), and b."""

    zero = GS_ZERO
    one = GS_ONE

    def __init__(self, spec: JordanSpec, source: ChainLocator, b: Vector):
        if not (0 <= source.block_index < len(spec.blocks)):
            raise ValueError(f"source block {source.block_index} out of range")
        block = spec.blocks[source.block_index]
        if not (1 <= source.rank <= block.size):
            raise ValueError(
                f"source rank {source.rank} exceeds block size {block.size}"
            )
        if len(b) != spec.n:
            raise ValueError(f"b has length {len(b)}, expected {spec.n}")
        self.spec = spec
        self.source = source
        self.b = tuple(b)

    @property
    def lam(self) -> GaussScalar:
        return self.spec.blocks[self.source.block_index].eigenvalue

    @property
    def m(self) -> int:
        return self.source.rank

    @property
    def r(self) -> int:
        return self.spec.blocks[self.source.block_index].size

    @cached_property
    def matrix(self) -> Matrix:
        return model.assemble_matrix(self.spec)

    @staticmethod
    def negligible(x: GaussScalar) -> bool:
        return not x

    def eigenvalue(self, block_index: int) -> GaussScalar:
        return self.spec.blocks[block_index].eigenvalue

    def block_moment(self, block_index: int, rank: int) -> GaussScalar:
        """b* x for the rank-`rank` chain vector of a block."""
        if block_index == self.source.block_index:
            return self.moment(rank)
        loc = ChainLocator(block_index, rank)
        return linalg.conj_dot(self.b, model.chain_vector(self.spec, loc))

    def vector(self, terms) -> Vector:
        """Sum of c x_k over the (c, k) terms, x_k = S e_k (e_k when S is None)."""
        out = [GS_ZERO] * self.spec.n
        s = self.spec.similarity
        for c, k in terms:
            if s is None:
                out[k] = out[k] + c
                continue
            for i, row in enumerate(s):
                if row[k]:
                    out[i] = out[i] + c * row[k]
        return tuple(out)

    def source_chain(self, j: int) -> Vector:
        """x_j of the source block (x_0 is the zero vector)."""
        if j == 0:
            return linalg.zero_vector(self.spec.n)
        loc = ChainLocator(self.source.block_index, j)
        return model.chain_vector(self.spec, loc)

    @cached_property
    def x_m(self) -> Vector:
        return self.source_chain(self.m)

    def moment(self, j: int) -> GaussScalar:
        """b* x_j, with the rank-0 convention b* x_0 = 0."""
        if j == 0:
            return GS_ZERO
        return self._moments[j - 1]

    @cached_property
    def _moments(self) -> tuple[GaussScalar, ...]:
        return tuple(
            linalg.conj_dot(self.b, self.source_chain(j))
            for j in range(1, self.r + 1)
        )


@dataclass(frozen=True)
class UpdateFactor:
    f: Poly
    moments: tuple[GaussScalar, ...]


def det_rank1_update(a: Matrix, x: Vector, b: Vector) -> GaussScalar:
    """(b* A^{-1} x + 1) det A, which equals det(A + x b*) for invertible A."""
    d = linalg.det(a)
    if not d:
        raise SingularMatrix("A must be invertible")
    y = linalg.solve(a, x)
    return (linalg.conj_dot(b, y) + GS_ONE) * d


def resolvent_action(
    problem: PerturbationProblem, t_value: GaussScalar
) -> Vector:
    """(t I - A)^{-1} x_m = sum_{i=0}^{m-1} x_{i+1} / (t - lambda)^{m-i}."""
    for block in problem.spec.blocks:
        if block.eigenvalue == t_value:
            raise SpectrumCollision(f"{t_value!r} is an eigenvalue of A")
    lam, m = problem.lam, problem.m
    out = linalg.zero_vector(problem.spec.n)
    for i in range(m):
        coeff = GS_ONE / (t_value - lam) ** (m - i)
        out = linalg.vec_add(out, linalg.vec_scale(coeff, problem.source_chain(i + 1)))
    return out


def update_char_factor(problem: PerturbationProblem) -> UpdateFactor:
    """The monic degree-m factor carrying every possibly-changed eigenvalue.

    In the basis shifted to lambda, the coefficient of (t-lambda)^i is
    -b*x_{i+1} for i < m and 1 at i = m.
    """
    m = problem.m
    moments = tuple(problem.moment(j) for j in range(1, m + 1))
    shifted = [-mu for mu in moments] + [GS_ONE]
    return UpdateFactor(poly_from_shifted(problem.lam, shifted), moments)


def changed_eigenvalue_bound(problem: PerturbationProblem) -> int:
    """m - k, where the first k moments b*x_1..b*x_k vanish."""
    m = problem.m
    k = 0
    while k < m and not problem.moment(k + 1):
        k += 1
    return m - k


def new_eigenvalues(problem: PerturbationProblem, mode: str = "exact"):
    """Roots of the update factor; roots equal to lambda are kept as-is."""
    return poly_roots(update_char_factor(problem).f, mode)


def updated_char_poly(problem: PerturbationProblem) -> Poly:
    """det(tI - (A + x_m b*)) = f(t) charpoly(A) / (t-lambda)^m."""
    base = model.spec_char_poly(problem.spec)
    quotient = poly_divide_linear(base, problem.lam, problem.m)
    return update_char_factor(problem).f * quotient
