import pytest

from geu import linalg
from geu.errors import LocatorOutOfRange, ParseError, SingularSimilarity
from geu.model import (
    ChainLocator,
    JordanBlock,
    JordanSpec,
    assemble_matrix,
    chain_basis_similarity,
    chain_vector,
    jordan_matrix,
    spec_char_poly,
    validate_spec,
)
from geu.poly import Poly
from geu.scalars import GS_ONE, GS_ZERO, gs


def test_single_block_assembly():
    spec = JordanSpec((JordanBlock(gs(2), 2),))
    assert assemble_matrix(spec) == linalg.as_matrix(
        [[gs(2), gs(1)], [gs(0), gs(2)]]
    )


def test_worked_spec_block_diagonal(worked):
    a = assemble_matrix(JordanSpec(worked.spec.blocks))
    assert len(a) == 11
    assert a[0][0] == gs(2) and a[0][1] == GS_ONE
    assert a[5][6] == GS_ZERO  # no coupling across blocks
    assert a[6][6] == gs(2) and a[9][9] == gs(1) and a[9][10] == GS_ONE
    # the cumulative-sum similarity commutes with J, so A is unchanged
    assert worked.matrix == a


def test_similarity_on_scalar():
    spec = JordanSpec((JordanBlock(gs(0), 1),), ((gs(2),),))
    assert assemble_matrix(spec) == ((GS_ZERO,),)


def test_singular_similarity_rejected():
    zero = tuple((GS_ZERO,) * 2 for _ in range(2))
    spec = JordanSpec((JordanBlock(gs(1), 2),), zero)
    with pytest.raises(SingularSimilarity):
        assemble_matrix(spec)


def test_chain_vectors_worked(worked):
    spec = worked.spec
    for j in range(1, 7):
        x = chain_vector(spec, ChainLocator(0, j))
        assert x == tuple(
            GS_ONE if i < j else GS_ZERO for i in range(11)
        )
    y1 = chain_vector(spec, ChainLocator(1, 1))
    assert y1 == linalg.unit_vector(11, 6)
    z2 = chain_vector(spec, ChainLocator(2, 2))
    assert z2 == linalg.vec_add(
        linalg.unit_vector(11, 9), linalg.unit_vector(11, 10)
    )


@pytest.mark.parametrize("block,size", [(0, 6), (1, 3), (2, 2)])
def test_chain_relation_and_rank(worked, block, size):
    spec = worked.spec
    a = assemble_matrix(spec)
    lam = spec.blocks[block].eigenvalue
    n = spec.n
    shifted = linalg.mat_sub(
        a, tuple(tuple(lam if i == j else GS_ZERO for j in range(n))
                 for i in range(n))
    )
    prev = linalg.zero_vector(n)
    for j in range(1, size + 1):
        x = chain_vector(spec, ChainLocator(block, j))
        assert linalg.mat_vec(a, x) == linalg.vec_add(
            linalg.vec_scale(lam, x), prev
        )
        # rank condition: (A - lam I)^j x = 0, (A - lam I)^{j-1} x != 0
        w = x
        for _ in range(j - 1):
            w = linalg.mat_vec(shifted, w)
        assert not linalg.vec_is_zero(w)
        assert linalg.vec_is_zero(linalg.mat_vec(shifted, w))
        prev = x


def test_rank1_is_eigenvector():
    spec = JordanSpec((JordanBlock(gs(3, 1), 4),))
    a = assemble_matrix(spec)
    x1 = chain_vector(spec, ChainLocator(0, 1))
    assert linalg.mat_vec(a, x1) == linalg.vec_scale(gs(3, 1), x1)


def test_locator_bounds(worked):
    with pytest.raises(LocatorOutOfRange):
        chain_vector(worked.spec, ChainLocator(3, 1))
    with pytest.raises(LocatorOutOfRange):
        chain_vector(worked.spec, ChainLocator(1, 4))


def test_char_poly_of_spec(worked):
    want = Poly.linear(gs(2)) ** 9 * Poly.linear(gs(1)) ** 2
    assert spec_char_poly(worked.spec) == want


def test_validate_spec(worked):
    validate_spec(worked.spec)
    with pytest.raises(ParseError, match="no Jordan blocks"):
        validate_spec(JordanSpec(()))
    wrong_dim = JordanSpec(
        (JordanBlock(gs(1), 2),), ((GS_ONE,),)
    )
    with pytest.raises(ParseError, match="1x1, expected 2x2") as exc:
        validate_spec(wrong_dim)
    assert exc.value.field == "similarity"
    singular = JordanSpec(
        (JordanBlock(gs(1), 2),),
        tuple((GS_ZERO, GS_ZERO) for _ in range(2)),
    )
    with pytest.raises(ParseError, match="singular") as exc:
        validate_spec(singular)
    assert exc.value.field == "similarity"


def test_chain_basis_similarity_columns(worked):
    s = chain_basis_similarity(JordanSpec(worked.spec.blocks))
    # column j within a block is e_off+1 + ... + e_off+j
    assert tuple(row[2] for row in s) == tuple(
        GS_ONE if i <= 2 else GS_ZERO for i in range(11)
    )
    assert tuple(row[7] for row in s) == tuple(
        GS_ONE if i in (6, 7) else GS_ZERO for i in range(11)
    )
