"""Floating-point evaluation path for larger problems.

FloatProblem gives the chains module a complex128 view of a problem, so the
same constructions run in both modes; residuals are checked numerically
instead of exactly.  NumPy is imported inside the functions that compute in
floats: `report`, and so every `geu` command, imports this module, and a
command that never computes in floats should not pay for loading NumPy.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from . import linalg
from .perturb import PerturbationProblem, update_char_factor

if TYPE_CHECKING:
    import numpy as np


def spec_matrices(problem: PerturbationProblem):
    """(A, chain columns per block) as complex arrays."""
    import numpy as np

    spec = problem.spec
    n = spec.n
    j = np.zeros((n, n), dtype=complex)
    off = 0
    for block in spec.blocks:
        lam = complex(block.eigenvalue)
        for i in range(block.size):
            j[off + i, off + i] = lam
            if i + 1 < block.size:
                j[off + i, off + i + 1] = 1.0
        off += block.size
    if spec.similarity is None:
        return j, np.eye(n, dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(spec.similarity):
        for k in linalg.nonzeros(row):
            s[i, k] = complex(row[k])
    return s @ j @ np.linalg.inv(s), s


class FloatProblem:
    """Complex-float view of a PerturbationProblem, run by the chains module."""

    zero = 0j
    one = 1 + 0j

    def __init__(self, problem: PerturbationProblem):
        import numpy as np

        self.spec = problem.spec
        self.source = problem.source
        self.a, self.s = spec_matrices(problem)
        self.b = np.array([complex(v) for v in problem.b])
        self.lam = complex(problem.lam)
        self.m = problem.m
        self.r = problem.r
        self.n = problem.spec.n
        # b* x_k for every column k of S
        self.moments = self.b.conj() @ self.s
        k = self.spec.block_offset(self.source.block_index) + self.m - 1
        self.x_m = self.s[:, k]
        self.updated = self.a + np.outer(self.x_m, self.b.conj())
        # degeneracy threshold relative to the data scale
        self.eps = 1e-12 * max(
            1.0, np.linalg.norm(self.a), np.linalg.norm(self.b)
        )

    def negligible(self, x: complex) -> bool:
        return abs(x) <= self.eps

    def eigenvalue(self, block_index: int) -> complex:
        return complex(self.spec.blocks[block_index].eigenvalue)

    def block_moment(self, block_index: int, rank: int) -> complex:
        return self.moments[self.spec.block_offset(block_index) + rank - 1]

    def vector(self, terms) -> np.ndarray:
        """Sum of c x_k over the (c, k) terms, x_k the k-th column of S."""
        import numpy as np

        coeffs, cols = zip(*terms)
        return self.s[:, list(cols)] @ np.array(coeffs, dtype=complex)

    def residual_scale(self) -> float:
        import numpy as np

        return (np.linalg.norm(self.a)
                + np.linalg.norm(self.x_m) * np.linalg.norm(self.b))


def chain_residual(fp: FloatProblem, eigenvalue: complex,
                   vectors: list[np.ndarray]) -> float:
    """max_t ||M v_t - eig v_t - v_{t-1}|| / ||v_t||, M the updated matrix."""
    import numpy as np

    worst = 0.0
    prev = np.zeros(fp.n, dtype=complex)
    for v in vectors:
        res = np.linalg.norm(fp.updated @ v - eigenvalue * v - prev)
        worst = max(worst, res / max(np.linalg.norm(v), 1e-300))
        prev = v
    return worst


def float_new_eigenvalues(problem: PerturbationProblem):
    import numpy as np

    f = update_char_factor(problem).f
    coeffs = np.array([complex(c) for c in reversed(f.coeffs)])
    return sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
