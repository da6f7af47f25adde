from fractions import Fraction

import pytest

from geu import linalg, oracle
from geu.chains import (
    build_chain,
    chain_cases,
    distinct_eig_chain,
    distinct_eig_denominator,
    other_block_chain,
    same_block_beta,
    same_block_chain,
)
from geu.errors import (
    DegenerateDenominator,
    EigenvalueMismatch,
    RankOutOfRange,
)
from geu.fuzz import random_problem
from geu.model import ChainLocator, JordanBlock, JordanSpec, chain_vector
from geu.perturb import PerturbationProblem, update_char_factor
from geu.scalars import GS_ZERO, gs

from reference import generalized_rank


def combo(parts):
    out = None
    for c, v in parts:
        sv = linalg.vec_scale(c, v)
        out = sv if out is None else linalg.vec_add(out, sv)
    return out


def test_beta_worked(worked):
    assert same_block_beta(worked) == gs(3)


def test_beta_zero_numerator():
    spec = JordanSpec((JordanBlock(gs(2), 3),))
    b = (gs(0), gs(1), gs(0))  # b*x_1 = 0
    p = PerturbationProblem(spec, ChainLocator(0, 1), b)
    assert same_block_beta(p) == GS_ZERO


def test_beta_m1_matches_eigenvector_formula(rng):
    # u_1 = x_1 - (b*x_1 / (1 + b*x_2)) x_2 for rank-1 sources
    for _ in range(20):
        spec = JordanSpec((JordanBlock(gs(rng.randint(-2, 2)), 3),))
        b = tuple(gs(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                  for _ in range(3))
        p = PerturbationProblem(spec, ChainLocator(0, 1), b)
        if p.moment(2) == gs(-1):
            continue
        beta = same_block_beta(p)
        assert beta == -p.moment(1) / (1 + p.moment(2))
        u1 = same_block_chain(p, 1)[0]
        want = linalg.vec_add(
            p.source_chain(1), linalg.vec_scale(beta, p.source_chain(2))
        )
        assert u1.vector == want


def test_same_block_worked_golden(worked):
    u = same_block_chain(worked, 4)
    coeffs = u[0].coefficients
    assert coeffs.beta == gs(3)
    assert coeffs.coeff(2, 1) == gs(Fraction(8, 3))
    assert coeffs.coeff(3, 2) == gs(Fraction(8, 3))
    assert coeffs.coeff(3, 1) == gs(Fraction(40, 9))
    assert coeffs.coeff(4, 2) == gs(Fraction(40, 9))
    assert coeffs.coeff(4, 1) == gs(Fraction(176, 27))

    x = worked.source_chain
    assert u[2].vector == combo(
        [(gs(1), x(3)), (gs(Fraction(40, 9)), x(1)),
         (gs(Fraction(8, 3)), x(2)), (gs(3), x(5))]
    )
    assert u[3].vector == combo(
        [(gs(1), x(4)), (gs(Fraction(176, 27)), x(1)),
         (gs(Fraction(40, 9)), x(2)), (gs(3), x(6))]
    )


def test_same_block_zero_b():
    spec = JordanSpec((JordanBlock(gs(2), 3),))
    p = PerturbationProblem(spec, ChainLocator(0, 2), linalg.zero_vector(3))
    u = same_block_chain(p, 1)
    assert u[0].vector == p.source_chain(1)
    assert u[0].coefficients.beta == GS_ZERO
    with pytest.raises(DegenerateDenominator):
        # b*x_1 = 0 blocks ranks >= 2
        same_block_chain(
            PerturbationProblem(
                JordanSpec((JordanBlock(gs(2), 5),)),
                ChainLocator(0, 2),
                (gs(0), gs(0), gs(1), gs(0), gs(0)),
            ),
            2,
        )


def test_same_block_rank_bounds(worked):
    with pytest.raises(RankOutOfRange):
        same_block_chain(worked, 5)  # m + t = 7 > r = 6
    full = same_block_chain(worked)  # default t_max = r - m = 4
    assert [cv.rank for cv in full] == [1, 2, 3, 4]


def test_same_block_degenerate_denominator():
    spec = JordanSpec((JordanBlock(gs(0), 3),))
    b = (gs(1), gs(0), gs(-1))  # 1 + b*x_3 = 0
    p = PerturbationProblem(spec, ChainLocator(0, 2), b)
    with pytest.raises(DegenerateDenominator):
        same_block_beta(p)


def test_other_block_worked_golden(worked):
    v = other_block_chain(worked, 1)
    coeffs = v[0].coefficients
    assert coeffs.coeff(1, 1) == gs(Fraction(-1, 3))
    assert coeffs.coeff(2, 2) == gs(Fraction(-1, 3))
    assert coeffs.coeff(2, 1) == gs(Fraction(-5, 9))
    assert coeffs.coeff(3, 2) == gs(Fraction(-5, 9))
    assert coeffs.coeff(3, 1) == gs(Fraction(-22, 27))

    x = worked.source_chain
    y = lambda t: chain_vector(worked.spec, ChainLocator(1, t))
    assert v[1].vector == combo(
        [(gs(1), y(2)), (gs(Fraction(-5, 9)), x(1)),
         (gs(Fraction(-1, 3)), x(2))]
    )
    assert v[2].vector == combo(
        [(gs(1), y(3)), (gs(Fraction(-22, 27)), x(1)),
         (gs(Fraction(-5, 9)), x(2))]
    )
    # shared-eigenvector fast path: v_1 = y_1 - (b*y_1 / b*x_1) x_1
    bym = linalg.conj_dot(worked.b, y(1))
    want = linalg.vec_add(
        y(1), linalg.vec_scale(-bym / worked.moment(1), x(1))
    )
    assert v[0].vector == want
    updated = oracle.apply_update(worked)
    assert linalg.mat_vec(updated, v[0].vector) == linalg.vec_scale(
        gs(2), v[0].vector
    )


def test_other_block_errors(worked):
    with pytest.raises(EigenvalueMismatch):
        other_block_chain(worked, 2)  # eigenvalue 1 != 2
    with pytest.raises(EigenvalueMismatch):
        other_block_chain(worked, 0)
    with pytest.raises(RankOutOfRange):
        other_block_chain(worked, 1, 4)
    degenerate = PerturbationProblem(
        worked.spec, worked.source,
        tuple(gs(1 if i == 6 else 0) for i in range(11)),
    )
    with pytest.raises(DegenerateDenominator):
        other_block_chain(degenerate, 1)


def test_distinct_worked_golden(worked):
    w = distinct_eig_chain(worked, 2)
    coeffs = w[0].coefficients
    # coefficient order from the recurrence: 1/4, -1/4, 0, -1/4
    assert coeffs.coeff(1, 2) == gs(Fraction(1, 4))
    assert coeffs.coeff(1, 1) == gs(Fraction(-1, 4))
    assert coeffs.coeff(2, 2) == GS_ZERO
    assert coeffs.coeff(2, 1) == gs(Fraction(-1, 4))

    x = worked.source_chain
    z = lambda t: chain_vector(worked.spec, ChainLocator(2, t))
    assert w[1].vector == combo(
        [(gs(1), z(2)), (gs(Fraction(-1, 4)), x(1))]
    )
    # w_1 = z_1 - (1/4) x_1 + (1/4) x_2, an eigenvector for eigenvalue 1
    assert w[0].vector == combo(
        [(gs(1), z(1)), (gs(Fraction(-1, 4)), x(1)),
         (gs(Fraction(1, 4)), x(2))]
    )
    updated = oracle.apply_update(worked)
    assert linalg.mat_vec(updated, w[0].vector) == w[0].vector


def test_distinct_denominator_value(worked):
    assert distinct_eig_denominator(worked, gs(1)) == gs(4)


def test_distinct_zero_b():
    spec = JordanSpec((JordanBlock(gs(2), 2), JordanBlock(gs(5), 3)))
    p = PerturbationProblem(spec, ChainLocator(0, 2), linalg.zero_vector(5))
    w = distinct_eig_chain(p, 1)
    for t, cv in enumerate(w, start=1):
        assert cv.vector == chain_vector(spec, ChainLocator(1, t))


def test_distinct_errors(worked):
    with pytest.raises(EigenvalueMismatch):
        distinct_eig_chain(worked, 1)  # same eigenvalue block
    with pytest.raises(RankOutOfRange):
        distinct_eig_chain(worked, 2, 3)
    # drive the denominator to zero: mu a root of f
    spec = JordanSpec((JordanBlock(gs(0), 1), JordanBlock(gs(3), 1)))
    p = PerturbationProblem(
        spec, ChainLocator(0, 1), (gs(3), gs(0))
    )  # f = t - 3 vanishes at mu = 3
    with pytest.raises(DegenerateDenominator):
        distinct_eig_chain(p, 1)


def _chains_for(problem):
    for case, block in chain_cases(problem):
        try:
            yield build_chain(problem, case, block)
        except DegenerateDenominator:
            pass


def test_chain_relation_random(rng):
    for _ in range(40):
        problem = random_problem(rng, 7)
        updated = oracle.apply_update(problem)
        for produced in _chains_for(problem):
            if not produced:
                continue
            verdict = oracle.verify_chain(
                updated, produced[0].eigenvalue,
                [cv.vector for cv in produced],
            )
            assert verdict.ok, verdict
            for cv in produced:
                got = generalized_rank(updated, cv.eigenvalue, cv.vector)
                assert got == cv.rank


def test_shift_recurrence_consistency(rng):
    for _ in range(30):
        problem = random_problem(rng, 7)
        for produced in _chains_for(problem):
            if not produced:
                continue
            coeffs = produced[0].coefficients
            if coeffs.case_tag == "distinct_eigenvalue":
                continue
            for (t, j) in list(coeffs.table):
                if j >= 2:
                    assert coeffs.coeff(t, j) == coeffs.coeff(t - 1, j - 1)


def test_distinct_internal_identities(rng):
    # the two balance identities the back-substitution must satisfy
    count = 0
    for _ in range(60):
        problem = random_problem(rng, 7)
        lam, m = problem.lam, problem.m
        src = problem.source.block_index
        for i, block in enumerate(problem.spec.blocks):
            if i == src or block.eigenvalue == lam:
                continue
            mu = block.eigenvalue
            try:
                produced = distinct_eig_chain(problem, i)
            except DegenerateDenominator:
                continue
            if not produced:
                continue
            count += 1
            coeffs = produced[0].coefficients

            def zmom(t):
                return linalg.conj_dot(
                    problem.b, chain_vector(problem.spec, ChainLocator(i, t))
                )

            for t in range(1, len(produced) + 1):
                for j in range(1, m):
                    assert (
                        coeffs.coeff(t, j) * lam + coeffs.coeff(t, j + 1)
                        == coeffs.coeff(t, j) * mu + coeffs.coeff(t - 1, j)
                    )
                lhs = zmom(t) + coeffs.coeff(t, m) * lam + sum(
                    (coeffs.coeff(t, j) * problem.moment(j)
                     for j in range(1, m + 1)),
                    GS_ZERO,
                )
                assert lhs == coeffs.coeff(t, m) * mu + coeffs.coeff(t - 1, m)
    assert count > 5


def test_denominator_is_shifted_update_factor(rng):
    # D = (mu - lambda) f(mu)
    for _ in range(40):
        problem = random_problem(rng, 7)
        f = update_char_factor(problem).f
        for block in problem.spec.blocks:
            mu = block.eigenvalue
            if mu == problem.lam:
                continue
            want = (mu - problem.lam) * f.eval(mu)
            assert distinct_eig_denominator(problem, mu) == want


def test_chain_cases_worked(worked):
    same, other, distinct = (
        ("same_block", 0), ("other_block", 1), ("distinct_eigenvalue", 2)
    )
    assert list(chain_cases(worked)) == [same, other, distinct]
    assert list(chain_cases(worked, "all")) == [same, other, distinct]
    assert list(chain_cases(worked, "same")) == [same]
    assert list(chain_cases(worked, "other")) == [other]
    assert list(chain_cases(worked, "distinct")) == [distinct]
    # no same-block case once the source rank fills its block
    full = PerturbationProblem(worked.spec, ChainLocator(0, 6), worked.b)
    assert list(chain_cases(full)) == [other, distinct]
