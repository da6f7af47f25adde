"""Jordan specifications: block lists, optional similarity, chain vectors."""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    LocatorOutOfRange,
    ParseError,
    SingularMatrix,
    SingularSimilarity,
)
from .linalg import Matrix, Vector
from .poly import Poly
from .scalars import GS_ONE, GS_ZERO, GaussScalar


@dataclass(frozen=True)
class JordanBlock:
    eigenvalue: GaussScalar
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be >= 1")


@dataclass(frozen=True)
class JordanSpec:
    blocks: tuple[JordanBlock, ...]
    similarity: Matrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.similarity is not None:
            object.__setattr__(
                self, "similarity", linalg.as_matrix(self.similarity)
            )

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

    def block_offset(self, index: int) -> int:
        return sum(b.size for b in self.blocks[:index])

    def distinct_eigenvalues(self) -> list[GaussScalar]:
        seen = []
        for b in self.blocks:
            if b.eigenvalue not in seen:
                seen.append(b.eigenvalue)
        return seen


@dataclass(frozen=True)
class ChainLocator:
    block_index: int
    rank: int


def jordan_matrix(spec: JordanSpec) -> Matrix:
    """Block-diagonal J without the similarity applied."""
    n = spec.n
    rows = [[GS_ZERO] * n for _ in range(n)]
    off = 0
    for block in spec.blocks:
        for i in range(block.size):
            rows[off + i][off + i] = block.eigenvalue
            if i + 1 < block.size:
                rows[off + i][off + i + 1] = GS_ONE
        off += block.size
    return linalg.as_matrix(rows)


def assemble_matrix(spec: JordanSpec) -> Matrix:
    """S J S^{-1}; raises SingularSimilarity when S is not invertible."""
    j = jordan_matrix(spec)
    s = spec.similarity
    if s is None:
        return j
    if len(s) != spec.n or any(len(r) != spec.n for r in s):
        raise SingularSimilarity(
            f"similarity must be {spec.n}x{spec.n}"
        )
    try:
        s_inv = linalg.inverse(s)
    except SingularMatrix:
        raise SingularSimilarity("similarity matrix is singular")
    return linalg.mat_mul(linalg.mat_mul(s, j), s_inv)


def chain_vector(spec: JordanSpec, loc: ChainLocator) -> Vector:
    """The rank-`loc.rank` generalized eigenvector of block `loc.block_index`.

    With similarity S this is S e_{offset+rank}: A (S e_k) = S J e_k pulls the
    Jordan chain of J through the similarity.
    """
    if not (0 <= loc.block_index < len(spec.blocks)):
        raise LocatorOutOfRange(f"block index {loc.block_index} out of range")
    block = spec.blocks[loc.block_index]
    if not (1 <= loc.rank <= block.size):
        raise LocatorOutOfRange(
            f"rank {loc.rank} exceeds block size {block.size}"
        )
    idx = spec.block_offset(loc.block_index) + loc.rank - 1
    e = linalg.unit_vector(spec.n, idx)
    if spec.similarity is None:
        return e
    return tuple(row[idx] for row in spec.similarity)


def validate_spec(spec: JordanSpec) -> None:
    """Raise ParseError on the first defect of a parsed spec."""
    if not spec.blocks:
        raise ParseError("blocks: spec has no Jordan blocks", field="blocks")
    s = spec.similarity
    if s is None:
        return
    if len(s) != spec.n or any(len(r) != spec.n for r in s):
        raise ParseError(
            f"similarity: similarity is {len(s)}x{len(s[0]) if s else 0}, "
            f"expected {spec.n}x{spec.n}",
            field="similarity",
        )
    if not linalg.det(s):
        raise ParseError(
            "similarity: similarity matrix is singular", field="similarity"
        )


def spec_char_poly(spec: JordanSpec) -> Poly:
    """prod over blocks of (t - eigenvalue)^size."""
    out = Poly.one()
    for b in spec.blocks:
        out = out * Poly.linear(b.eigenvalue) ** b.size
    return out


def chain_basis_similarity(spec: JordanSpec) -> Matrix:
    """Per-block upper-triangular all-ones similarity.

    Its columns are the partial sums e_off+1 + ... + e_off+j, so the chain
    vectors become cumulative sums of standard basis vectors.  It is a
    polynomial in each block's nilpotent part, hence commutes with J and
    leaves the assembled matrix equal to J itself.
    """
    n = spec.n
    rows = [[GS_ZERO] * n for _ in range(n)]
    off = 0
    for block in spec.blocks:
        for i in range(block.size):
            for j in range(i, block.size):
                rows[off + i][off + j] = GS_ONE
        off += block.size
    return linalg.as_matrix(rows)
