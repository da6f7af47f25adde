import pytest

from geu import linalg
from geu.errors import IncompleteSpectrum, ZeroVector
from geu.fuzz import random_problem
from geu.model import (
    ChainLocator,
    JordanBlock,
    JordanSpec,
    assemble_matrix,
    chain_vector,
    spec_char_poly,
)
from geu.oracle import (
    apply_update,
    char_poly_direct,
    generalized_rank,
    jordan_structure,
    verify_chain,
)
from geu.perturb import PerturbationProblem
from geu.poly import Poly
from geu.scalars import GS_ONE, GS_ZERO, gs


def test_apply_update_trivial(worked):
    zero_b = PerturbationProblem(
        worked.spec, worked.source, linalg.zero_vector(11)
    )
    assert apply_update(zero_b) == worked.matrix
    scalar = PerturbationProblem(
        JordanSpec((JordanBlock(gs(4), 1),)), ChainLocator(0, 1), (gs(3),)
    )
    assert apply_update(scalar) == ((gs(7),),)


def test_apply_update_conjugates_b():
    spec = JordanSpec((JordanBlock(gs(0), 1),))
    p = PerturbationProblem(spec, ChainLocator(0, 1), (gs(0, 1),))
    # x = e_1, b = i: A + x b* has entry conj(i) = -i
    assert apply_update(p) == ((gs(0, -1),),)


def test_apply_update_worked_char_poly(worked):
    want = (
        Poly.linear(gs(3))
        * Poly.linear(gs(-1))
        * Poly.linear(gs(2)) ** 7
        * Poly.linear(gs(1)) ** 2
    )
    assert char_poly_direct(apply_update(worked)) == want


def test_verify_chain_definitional(worked):
    a = worked.matrix
    xs = [chain_vector(worked.spec, ChainLocator(0, j)) for j in range(1, 7)]
    assert verify_chain(a, gs(2), xs).ok
    # a lone x_2 has no predecessor
    verdict = verify_chain(a, gs(2), [xs[1]])
    assert not verdict.ok and verdict.failed_index == 1
    reordered = [xs[1], xs[0]]
    assert not verify_chain(a, gs(2), reordered).ok
    assert not verify_chain(a, gs(7), [xs[0]]).ok
    assert not verify_chain(a, gs(2), [linalg.zero_vector(11)]).ok


def test_generalized_rank(worked):
    a = worked.matrix
    x3 = chain_vector(worked.spec, ChainLocator(0, 3))
    assert generalized_rank(a, gs(2), x3) == 3
    x1 = chain_vector(worked.spec, ChainLocator(0, 1))
    assert generalized_rank(a, gs(1), x1) is None
    with pytest.raises(ZeroVector):
        generalized_rank(a, gs(2), linalg.zero_vector(11))


def test_char_poly_small():
    j2 = assemble_matrix(JordanSpec((JordanBlock(gs(5), 2),)))
    assert char_poly_direct(j2) == Poly.linear(gs(5)) ** 2
    diag = assemble_matrix(
        JordanSpec(tuple(JordanBlock(gs(k), 1) for k in (1, 2, 3)))
    )
    want = Poly.linear(gs(1)) * Poly.linear(gs(2)) * Poly.linear(gs(3))
    assert char_poly_direct(diag) == want


def test_char_poly_matches_spec_product(rng):
    for _ in range(25):
        problem = random_problem(rng, 7)
        assert char_poly_direct(problem.matrix) == spec_char_poly(problem.spec)


def test_char_poly_integer_inputs_integer_coeffs(rng):
    for _ in range(10):
        n = rng.randint(1, 5)
        m = tuple(
            tuple(gs(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)
        )
        p = char_poly_direct(m)
        assert all(
            c.re.denominator == 1 and c.im.denominator == 1 for c in p.coeffs
        )
        for eig, _ in _try_roots(p):
            assert p.eval(eig) == GS_ZERO


def _try_roots(p):
    from geu.errors import ExactModeUnavailable
    from geu.poly import poly_roots

    try:
        return poly_roots(p)
    except ExactModeUnavailable:
        return []


def test_nullspace():
    zero3 = tuple((GS_ZERO,) * 3 for _ in range(3))
    assert len(linalg.nullspace(zero3)) == 3
    assert linalg.nullspace(linalg.identity(4)) == []
    j20 = assemble_matrix(JordanSpec((JordanBlock(gs(0), 2),)))
    basis = linalg.nullspace(j20)
    assert len(basis) == 1
    assert basis[0][1] == GS_ZERO and basis[0][0]


def test_nullspace_properties(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        m = tuple(
            tuple(gs(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
        )
        basis = linalg.nullspace(m)
        assert len(basis) == n - linalg.rank(m)
        for v in basis:
            assert linalg.vec_is_zero(linalg.mat_vec(m, v))
        if basis:
            stacked = tuple(basis)
            assert linalg.rank(stacked) == len(basis)


def test_jordan_structure_worked(worked):
    updated = apply_update(worked)
    structure = jordan_structure(
        updated, [gs(2), gs(1), gs(3), gs(-1)]
    )
    assert structure.block_multiset() == sorted(
        [(gs(-1), 1), (gs(1), 2), (gs(2), 4), (gs(2), 3), (gs(3), 1)],
        key=lambda p: (p[0].re, p[0].im, -p[1]),
    )


def test_jordan_structure_round_trip(rng):
    for _ in range(20):
        problem = random_problem(rng, 8)
        spec = problem.spec
        structure = jordan_structure(
            problem.matrix, spec.distinct_eigenvalues()
        )
        want = sorted(
            ((b.eigenvalue, b.size) for b in spec.blocks),
            key=lambda p: (p[0].re, p[0].im, -p[1]),
        )
        assert structure.block_multiset() == want


def test_jordan_structure_diagonal():
    diag = assemble_matrix(
        JordanSpec(tuple(JordanBlock(gs(k), 1) for k in (1, 2, 3)))
    )
    structure = jordan_structure(diag, [gs(1), gs(2), gs(3)])
    assert structure.block_multiset() == [
        (gs(1), 1), (gs(2), 1), (gs(3), 1)
    ]


def test_jordan_structure_incomplete():
    diag = assemble_matrix(
        JordanSpec(tuple(JordanBlock(gs(k), 1) for k in (1, 2, 3)))
    )
    with pytest.raises(IncompleteSpectrum):
        jordan_structure(diag, [gs(1), gs(2)])
