"""Generalized-eigenvector chains of A + x_m b* for preserved eigenvalues.

Three cases are covered: the eigenvalue staying in the source block, the same
eigenvalue sitting in a different block, and a different eigenvalue entirely.
Each produces a coefficient table beta[(target_rank, chain_index)] filled by
recurrence.  Everything here stays in Jordan coordinates: with x_k = S e_k,
the chain vector of rank t is the base block's x_t, plus the table's row t
over the source block's x_j, plus beta x_{m+t} in the same-block case.  The
problem turns that row of terms into a vector, so each reported vector is S
times its reported coefficient row.

Everything here runs unchanged in exact mode (a PerturbationProblem over
GaussScalar) and float mode (a floatmode.FloatProblem over complex128).
Besides lam, m, r, spec and source, a problem provides zero, one,
negligible(x) (a vanishing denominator), eigenvalue(i), block_moment(i, t) =
b* x for the rank-t chain vector of block i, and vector(terms) = sum c x_k
over (c, k) terms, k a column of J.  Case hypotheses compare the spec's
exact eigenvalues in both modes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .errors import (
    DegenerateDenominator,
    EigenvalueMismatch,
    RankOutOfRange,
)
from .linalg import Vector
from .scalars import GS_ZERO, GaussScalar

SAME_BLOCK = "same_block"
OTHER_BLOCK = "other_block"
DISTINCT_EIGENVALUE = "distinct_eigenvalue"


@dataclass(frozen=True)
class ChainCoefficients:
    case_tag: str
    beta: GaussScalar | None
    table: Mapping[tuple[int, int], GaussScalar]

    def coeff(self, t: int, j: int):
        """beta_j^{(t)}, with the zero-subscript convention built in."""
        if t <= 0 or j <= 0:
            return GS_ZERO
        return self.table.get((t, j), GS_ZERO)


@dataclass(frozen=True)
class UpdatedChainVector:
    rank: int
    eigenvalue: GaussScalar
    vector: Vector
    coefficients: ChainCoefficients


# -- scalar recurrences (generic over the scalar type) ---------------------


def same_block_table(mom: Callable, beta, m: int, t_max: int, zero):
    """beta_j^{(t)} for the source-block case; mom(j) = b*x_j."""
    table = {}

    def get(t, j):
        return table.get((t, j), zero)

    for t in range(2, t_max + 1):
        s = zero
        for j in range(2, min(t - 1, m) + 1):
            table[(t, j)] = get(t - 1, j - 1)
            s = s + table[(t, j)] * mom(j)
        # row t-1 reaches index m only once t > m + 1; before that get is zero
        num = get(t - 1, m) - mom(t) - s - beta * mom(m + t)
        table[(t, 1)] = num / mom(1)
    return table


def other_block_table(mom: Callable, ymom: Callable, m: int, t_max: int, zero):
    """beta_j^{(t)} for a second block of the same eigenvalue; ymom(t) = b*y_t."""
    table = {}

    def get(t, j):
        return table.get((t, j), zero)

    for t in range(1, t_max + 1):
        s = zero
        for j in range(2, min(t, m) + 1):
            table[(t, j)] = get(t - 1, j - 1)
            s = s + table[(t, j)] * mom(j)
        # row t-1 reaches index m only once t > m; before that get is zero
        table[(t, 1)] = (get(t - 1, m) - ymom(t) - s) / mom(1)
    return table


def distinct_eig_table(
    mom: Callable, zmom: Callable, d, denom, m: int, t_max: int, zero
):
    """beta_j^{(t)} for an eigenvalue mu != lambda; d = mu - lambda.

    Per target rank, the index-m entry comes first, then j = m-1 .. 1 by
    back-substitution; denom is d^{m+1} - sum_j d^j b*x_j.
    """
    table = {}

    def get(t, j):
        return table.get((t, j), zero)

    for t in range(1, t_max + 1):
        s = zero
        for j in range(1, m + 1):
            inner = zero
            for i in range(0, m - j):
                inner = inner + d ** (i + j) * get(t - 1, m - 1 - i)
            s = s + mom(j) * inner
        bm = (d**m * (zmom(t) - get(t - 1, m)) - s) / denom
        table[(t, m)] = bm
        for j in range(m - 1, 0, -1):
            inner = zero
            for i in range(0, m - j):
                inner = inner + d**i * get(t - 1, m - 1 - i)
            table[(t, j)] = d ** (j - m) * (bm - inner)
    return table


# -- chain construction (exact and float alike) ----------------------------


def _has_lambda(problem, block_index: int) -> bool:
    """Whether a block carries the source eigenvalue, compared exactly."""
    blocks = problem.spec.blocks
    return blocks[block_index].eigenvalue == blocks[problem.source.block_index].eigenvalue


def _source_moment(problem) -> Callable:
    """mom(j) = b* x_j over the source block."""
    return partial(problem.block_moment, problem.source.block_index)


def _chain(problem, case: str, block_index: int, t_max: int, table,
           beta=None) -> list[UpdatedChainVector]:
    """Vectors of ranks 1..t_max from their Jordan-coordinate terms.

    Rank t takes x_t of block `block_index` with coefficient one, table row t
    over the source block's x_j, and beta x_{m+t} when beta is given.
    """
    m = problem.m
    src = problem.spec.block_offset(problem.source.block_index) - 1
    base = problem.spec.block_offset(block_index) - 1
    eigenvalue = problem.eigenvalue(block_index)
    coeffs = ChainCoefficients(case, beta, table)
    out = []
    for t in range(1, t_max + 1):
        terms = [(problem.one, base + t)]
        terms += [(table[t, j], src + j) for j in range(1, m + 1) if (t, j) in table]
        if beta is not None:
            terms.append((beta, src + m + t))
        out.append(UpdatedChainVector(t, eigenvalue, problem.vector(terms), coeffs))
    return out


def same_block_beta(problem) -> GaussScalar:
    """-b*x_1 / (1 + b*x_{m+1}); the coefficient on the rank-shifted tail."""
    if problem.m + 1 > problem.r:
        raise RankOutOfRange(
            f"need rank m+1={problem.m + 1} in a block of size {problem.r}"
        )
    mom = _source_moment(problem)
    den = mom(problem.m + 1) + 1
    if problem.negligible(den):
        raise DegenerateDenominator(
            "1 + b*x_{m+1} = 0: same-block formulas do not apply", den
        )
    return -mom(1) / den


def same_block_chain(problem, t_max: int | None = None) -> list[UpdatedChainVector]:
    """u_1..u_t_max associated with lambda in the source block."""
    m = problem.m
    if t_max is None:
        t_max = problem.r - m
    if m + t_max > problem.r:
        raise RankOutOfRange(
            f"m + t_max = {m + t_max} exceeds source block size {problem.r}"
        )
    if t_max < 1:
        return []
    beta = same_block_beta(problem)
    mom = _source_moment(problem)
    if t_max >= 2 and problem.negligible(mom(1)):
        raise DegenerateDenominator(
            "b*x_1 = 0: same-block recurrence undefined for rank >= 2", mom(1)
        )
    table = same_block_table(mom, beta, m, t_max, problem.zero)
    return _chain(problem, SAME_BLOCK, problem.source.block_index, t_max,
                  table, beta)


def other_block_chain(
    problem, other_block: int, t_max: int | None = None
) -> list[UpdatedChainVector]:
    """v_1..v_t_max associated with lambda sitting in another block."""
    if other_block == problem.source.block_index:
        raise EigenvalueMismatch("other_block must differ from the source block")
    block = problem.spec.blocks[other_block]
    if not _has_lambda(problem, other_block):
        lam = problem.spec.blocks[problem.source.block_index].eigenvalue
        raise EigenvalueMismatch(
            f"block {other_block} has eigenvalue {block.eigenvalue!r}, "
            f"expected {lam!r}"
        )
    if t_max is None:
        t_max = block.size
    if t_max > block.size:
        raise RankOutOfRange(
            f"t_max = {t_max} exceeds block size {block.size}"
        )
    if t_max < 1:
        return []
    mom = _source_moment(problem)
    if problem.negligible(mom(1)):
        raise DegenerateDenominator(
            "b*x_1 = 0: other-block recurrence undefined", mom(1)
        )
    table = other_block_table(
        mom, partial(problem.block_moment, other_block),
        problem.m, t_max, problem.zero,
    )
    return _chain(problem, OTHER_BLOCK, other_block, t_max, table)


def distinct_eig_denominator(problem, mu):
    """(mu-lambda)^{m+1} - sum_{j=1}^m (mu-lambda)^j b*x_j."""
    mom = _source_moment(problem)
    d = mu - problem.lam
    out = d ** (problem.m + 1)
    for j in range(1, problem.m + 1):
        out = out - d**j * mom(j)
    return out


def distinct_eig_chain(
    problem, mu_block: int, t_max: int | None = None
) -> list[UpdatedChainVector]:
    """w_1..w_t_max associated with an eigenvalue mu != lambda."""
    block = problem.spec.blocks[mu_block]
    if _has_lambda(problem, mu_block):
        raise EigenvalueMismatch(
            f"block {mu_block} carries lambda itself; use the same-eigenvalue cases"
        )
    if t_max is None:
        t_max = block.size
    if t_max > block.size:
        raise RankOutOfRange(f"t_max = {t_max} exceeds block size {block.size}")
    if t_max < 1:
        return []
    mu = problem.eigenvalue(mu_block)
    denom = distinct_eig_denominator(problem, mu)
    if problem.negligible(denom):
        raise DegenerateDenominator(
            "update factor vanishes at mu: distinct-eigenvalue formulas do not apply",
            denom,
        )
    table = distinct_eig_table(
        _source_moment(problem), partial(problem.block_moment, mu_block),
        mu - problem.lam, denom, problem.m, t_max, problem.zero,
    )
    return _chain(problem, DISTINCT_EIGENVALUE, mu_block, t_max, table)


def chain_cases(problem, which: str = "all"):
    """Yield (case, block index) for every applicable construction.

    which is "all", "same", "other" or "distinct".  Cases follow block order
    after the same-block case, and are chosen by exact eigenvalue equality.
    """
    src = problem.source.block_index
    if which in ("all", "same") and problem.r - problem.m >= 1:
        yield SAME_BLOCK, src
    for i in range(len(problem.spec.blocks)):
        if i == src:
            continue
        if _has_lambda(problem, i):
            if which in ("all", "other"):
                yield OTHER_BLOCK, i
        elif which in ("all", "distinct"):
            yield DISTINCT_EIGENVALUE, i


def build_chain(problem, case: str, block_index: int) -> list[UpdatedChainVector]:
    """Run the construction for one (case, block) from chain_cases."""
    if case == SAME_BLOCK:
        return same_block_chain(problem)
    if case == OTHER_BLOCK:
        return other_block_chain(problem, block_index)
    return distinct_eig_chain(problem, block_index)
