from fractions import Fraction

import pytest

from geu import linalg, oracle
from geu.errors import SingularMatrix, SpectrumCollision
from geu.fuzz import random_problem
from geu.model import ChainLocator, JordanBlock, JordanSpec
from geu.perturb import (
    PerturbationProblem,
    changed_eigenvalue_bound,
    det_rank1_update,
    new_eigenvalues,
    resolvent_action,
    update_char_factor,
    updated_char_poly,
)
from geu.poly import Poly, poly_from_shifted
from geu.scalars import GS_ONE, GS_ZERO, gs

from reference import mat_sub


def simple_problem(eig=2, size=3, rank=2, b=None, extra=()):
    blocks = (JordanBlock(gs(eig), size),) + tuple(
        JordanBlock(gs(e), s) for e, s in extra
    )
    spec = JordanSpec(blocks)
    if b is None:
        b = [gs(0)] * spec.n
    return PerturbationProblem(spec, ChainLocator(0, rank), tuple(b))


def test_det_rank1_update_examples():
    i2 = linalg.identity(2)
    e1, e2 = linalg.unit_vector(2, 0), linalg.unit_vector(2, 1)
    assert det_rank1_update(i2, e1, e1) == gs(2)
    assert det_rank1_update(i2, (gs(5), gs(-7)), linalg.zero_vector(2)) == GS_ONE
    a = linalg.as_matrix([[gs(2), gs(1)], [gs(0), gs(2)]])
    assert det_rank1_update(a, e1, e2) == gs(4)


def test_det_rank1_update_singular():
    zero = tuple((GS_ZERO, GS_ZERO) for _ in range(2))
    with pytest.raises(SingularMatrix):
        det_rank1_update(zero, linalg.unit_vector(2, 0), linalg.unit_vector(2, 0))


def test_det_rank1_update_random(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        a = tuple(
            tuple(gs(rng.randint(-3, 3), rng.choice([0, 0, 1, -1]))
                  for _ in range(n))
            for _ in range(n)
        )
        if not linalg.det(a):
            continue
        x = tuple(gs(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n))
        b = tuple(gs(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n))
        direct = linalg.det(linalg.mat_add(a, linalg.outer_conj(x, b)))
        assert det_rank1_update(a, x, b) == direct


def test_resolvent_examples():
    p1 = simple_problem(eig=2, size=2, rank=1)
    assert resolvent_action(p1, gs(3)) == p1.source_chain(1)
    p2 = simple_problem(eig=2, size=3, rank=2)
    x1, x2 = p2.source_chain(1), p2.source_chain(2)
    assert resolvent_action(p2, gs(3)) == linalg.vec_add(x1, x2)
    want = linalg.vec_add(
        linalg.vec_scale(gs("1/4"), x1), linalg.vec_scale(gs("1/2"), x2)
    )
    assert resolvent_action(p2, gs(4)) == want


def test_resolvent_identity_random(rng):
    for _ in range(40):
        problem = random_problem(rng, 7)
        t = gs(rng.randint(4, 9))  # off the small-eigenvalue spectrum
        if any(b.eigenvalue == t for b in problem.spec.blocks):
            continue
        v = resolvent_action(problem, t)
        n = problem.spec.n
        ti = tuple(
            tuple(t if i == j else GS_ZERO for j in range(n)) for i in range(n)
        )
        lhs = linalg.mat_vec(mat_sub(ti, problem.matrix), v)
        assert lhs == problem.x_m


def test_resolvent_collision():
    with pytest.raises(SpectrumCollision):
        resolvent_action(simple_problem(), gs(2))


def test_update_char_factor_worked(worked):
    factor = update_char_factor(worked)
    assert factor.moments == (gs(3), gs(-2))
    assert factor.f == poly_from_shifted(gs(2), [gs(-3), gs(2), gs(1)])
    assert factor.f.coeffs == (gs(-3), gs(-2), gs(1))


def test_update_char_factor_m1_and_zero_b():
    p = simple_problem(eig=5, size=2, rank=1,
                       b=[gs(2), gs(0)])
    factor = update_char_factor(p)
    assert factor.f == Poly.of([gs(-7), gs(1)])
    pb0 = simple_problem(eig=3, size=3, rank=2)
    assert update_char_factor(pb0).f == Poly.linear(gs(3)) ** 2


def test_shifted_basis_invariant(rng):
    # re-expanding f about lambda recovers -moments as coefficients
    for _ in range(25):
        problem = random_problem(rng, 7)
        factor = update_char_factor(problem)
        shifted = [-mu for mu in factor.moments] + [GS_ONE]
        assert poly_from_shifted(problem.lam, shifted) == factor.f
        assert factor.f.degree == problem.m
        assert factor.f.leading() == GS_ONE


def test_changed_eigenvalue_bound(worked):
    assert changed_eigenvalue_bound(worked) == 2
    p = simple_problem(eig=1, size=4, rank=3)
    assert changed_eigenvalue_bound(p) == 0  # b = 0
    p2 = simple_problem(eig=1, size=4, rank=2,
                        b=[gs(0), gs(1), gs(0), gs(0)])
    # b*x_1 = 0, b*x_2 = 1
    assert changed_eigenvalue_bound(p2) == 1


def test_new_eigenvalues(worked):
    assert new_eigenvalues(worked) == [(gs(-1), 1), (gs(3), 1)]
    p = simple_problem(eig=5, size=2, rank=1, b=[gs(2), gs(0)])
    assert new_eigenvalues(p) == [(gs(7), 1)]
    p2 = simple_problem(eig=1, size=4, rank=2,
                        b=[gs(0), gs(3), gs(0), gs(0)])
    # f = (t-1)((t-1) - 3)
    assert new_eigenvalues(p2) == [(gs(1), 1), (gs(4), 1)]


def test_updated_char_poly_worked(worked):
    want = (
        Poly.linear(gs(3))
        * Poly.linear(gs(-1))
        * Poly.linear(gs(2)) ** 7
        * Poly.linear(gs(1)) ** 2
    )
    got = updated_char_poly(worked)
    assert got == want
    assert got == oracle.char_poly_direct(oracle.apply_update(worked))


def test_updated_char_poly_trivial_cases():
    p = simple_problem(eig=2, size=3, rank=2, extra=((1, 2),))
    assert updated_char_poly(p) == (
        Poly.linear(gs(2)) ** 3 * Poly.linear(gs(1)) ** 2
    )
    scalar = PerturbationProblem(
        JordanSpec((JordanBlock(gs(4), 1),)), ChainLocator(0, 1), (gs(3),)
    )
    assert updated_char_poly(scalar) == Poly.linear(gs(7))


def test_updated_char_poly_random(rng):
    for _ in range(30):
        problem = random_problem(rng, 7)
        direct = oracle.char_poly_direct(oracle.apply_update(problem))
        assert updated_char_poly(problem) == direct
