"""Acceptance suite: one criterion per test, one pass/fail line each.

Criteria 3, 4 and 7 share a single seeded 1000-problem sweep.
"""
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from geu import chains, linalg, oracle, perturb
from geu.errors import DegenerateDenominator
from geu.fuzz import random_problem
from geu.model import ChainLocator
from geu.perturb import PerturbationProblem
from geu.poly import poly_roots
from geu.report import run_problem_float
from geu.scalars import GS_ZERO, gs
from geu.worked import GOLDEN, worked_problem

from reference import (
    block_multiset,
    distinct_root_count,
    generalized_rank,
    nullspace,
)

SWEEP_SEED = 1309
SWEEP_COUNT = 1000


def _announce(number: int, label: str, ok: bool):
    print(f"\nACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


@dataclass
class SweepResult:
    identity_failures: int = 0
    chain_failures: int = 0
    chains_checked: int = 0
    degenerate: int = 0
    bound_violations: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    result = SweepResult()
    start = time.monotonic()
    for _ in range(SWEEP_COUNT):
        problem = random_problem(rng, 8)
        updated = oracle.apply_update(problem)

        # characteristic-polynomial identity (criterion 3)
        direct = oracle.char_poly_direct(updated)
        if perturb.updated_char_poly(problem) != direct:
            result.identity_failures += 1

        # chain constructions against the oracle (criterion 4)
        for case, block in chains.chain_cases(problem):
            try:
                produced = chains.build_chain(problem, case, block)
            except DegenerateDenominator:
                result.degenerate += 1
                continue
            if not produced:
                continue
            result.chains_checked += 1
            verdict = oracle.verify_chain(
                updated, produced[0].eigenvalue,
                [cv.vector for cv in produced],
            )
            ranks_ok = all(
                generalized_rank(updated, cv.eigenvalue, cv.vector)
                == cv.rank
                for cv in produced
            )
            if not (verdict.ok and ranks_ok):
                result.chain_failures += 1

        # changed-eigenvalue bound (criterion 7): distinct roots of the
        # update factor outside the spectrum, counted exactly via gcd
        f = perturb.update_char_factor(problem).f
        distinct_f = distinct_root_count(f)
        absorbed = sum(
            1
            for eig in problem.spec.distinct_eigenvalues()
            if f.eval(eig) == GS_ZERO
        )
        if distinct_f - absorbed > perturb.changed_eigenvalue_bound(problem):
            result.bound_violations += 1
    result.elapsed = time.monotonic() - start
    return result


def test_criterion_1_worked_example_golden():
    start = time.monotonic()
    problem = worked_problem()
    factor = perturb.update_char_factor(problem)
    ok = factor.f.coeffs == tuple(GOLDEN["f_monomial"])
    ok &= perturb.new_eigenvalues(problem) == [(gs(-1), 1), (gs(3), 1)]
    ok &= chains.same_block_beta(problem) == gs(3)

    u = chains.same_block_chain(problem, 4)
    cs = u[0].coefficients
    for (t, j), want in GOLDEN["same_block"].items():
        ok &= cs.coeff(t, j) == want
    x = problem.source_chain
    ok &= u[2].vector == _combo(
        [(gs(1), x(3)), (gs(Fraction(40, 9)), x(1)),
         (gs(Fraction(8, 3)), x(2)), (gs(3), x(5))]
    )
    ok &= u[3].vector == _combo(
        [(gs(1), x(4)), (gs(Fraction(176, 27)), x(1)),
         (gs(Fraction(40, 9)), x(2)), (gs(3), x(6))]
    )

    v = chains.other_block_chain(problem, 1)
    cs = v[0].coefficients
    for (t, j), want in GOLDEN["other_block"].items():
        ok &= cs.coeff(t, j) == want

    w = chains.distinct_eig_chain(problem, 2)
    cs = w[0].coefficients
    for (t, j), want in GOLDEN["distinct"].items():
        ok &= cs.coeff(t, j) == want

    elapsed = time.monotonic() - start
    _announce(1, f"worked-example golden values, {elapsed:.2f}s", ok and elapsed < 1.0)


def _combo(parts):
    out = None
    for c, v in parts:
        sv = linalg.vec_scale(c, v)
        out = sv if out is None else linalg.vec_add(out, sv)
    return out


def test_criterion_2_worked_example_structure():
    start = time.monotonic()
    problem = worked_problem()
    updated = oracle.apply_update(problem)
    structure = oracle.jordan_structure(
        updated, [gs(2), gs(1), gs(3), gs(-1)]
    )
    want = sorted(GOLDEN["structure"], key=lambda p: (p[0].re, p[0].im, -p[1]))
    elapsed = time.monotonic() - start
    _announce(
        2,
        f"updated Jordan structure, {elapsed:.2f}s",
        block_multiset(structure) == want and elapsed < 5.0,
    )


def test_criterion_3_char_poly_identity(sweep):
    _announce(
        3,
        f"char-poly identity, {SWEEP_COUNT} problems, {sweep.elapsed:.1f}s",
        sweep.identity_failures == 0 and sweep.elapsed < 120.0,
    )


def test_criterion_4_chain_relation_suite(sweep):
    label = (
        f"chain relations+ranks, {sweep.chains_checked} chains, "
        f"{sweep.degenerate} degenerate"
    )
    _announce(4, label, sweep.chain_failures == 0 and sweep.chains_checked > 500)


def test_criterion_5_rank_one_special_case():
    rng = random.Random(512)
    ok = True
    for _ in range(100):
        base = random_problem(rng, 8)
        problem = PerturbationProblem(
            base.spec,
            ChainLocator(base.source.block_index, 1),
            base.b,
        )
        want = problem.lam + problem.moment(1)
        ok &= perturb.new_eigenvalues(problem) == [(want, 1)]
    _announce(5, "rank-1 update moves one eigenvalue to lambda + b*x_1", ok)


def test_criterion_6_orthogonal_preservation():
    rng = random.Random(613)
    ok = True
    checked = 0
    for _ in range(100):
        base = random_problem(rng, 8)
        # b with b*x_j = 0 for j <= m: conj(b) in the kernel of rows x_j
        rows = tuple(base.source_chain(j) for j in range(1, base.m + 1))
        kernel = nullspace(rows)
        b = linalg.zero_vector(base.spec.n)
        for k, v in enumerate(kernel):
            b = linalg.vec_add(b, linalg.vec_scale(gs(k + 1), v))
        b = tuple(s.conjugate() for s in b)
        problem = PerturbationProblem(base.spec, base.source, b)
        assert all(not problem.moment(j) for j in range(1, problem.m + 1))
        from geu.model import spec_char_poly

        ok &= perturb.updated_char_poly(problem) == spec_char_poly(problem.spec)
        updated = oracle.apply_update(problem)
        verdict = oracle.verify_chain(
            updated, problem.lam,
            [problem.source_chain(j) for j in range(1, problem.m + 1)],
        )
        ok &= verdict.ok
        checked += 1
    _announce(6, f"orthogonal b preserves spectrum and chains ({checked})", ok)


def test_criterion_7_changed_eigenvalue_bound(sweep):
    _announce(
        7, "distinct new eigenvalues never exceed m-k",
        sweep.bound_violations == 0,
    )


def test_criterion_8_determinant_lemma():
    rng = random.Random(811)
    ok = True
    checked = 0
    while checked < 500:
        n = rng.randint(1, 6)
        a = tuple(
            tuple(gs(rng.randint(-4, 4), rng.choice([0, 0, 0, 1, -1]))
                  for _ in range(n))
            for _ in range(n)
        )
        if not linalg.det(a):
            continue
        x = tuple(gs(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(n))
        b = tuple(gs(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(n))
        direct = linalg.det(linalg.mat_add(a, linalg.outer_conj(x, b)))
        ok &= perturb.det_rank1_update(a, x, b) == direct
        checked += 1
    _announce(8, "determinant lemma on 500 random invertible matrices", ok)


def test_criterion_9_float_mode_residuals():
    rng = random.Random(917)
    ok = True
    for _ in range(20):
        problem = random_problem(rng, 50)
        rep = run_problem_float(problem, tolerance=1e-9)
        scale = rep["residual_scale"]
        ok &= rep["max_residual"] <= 1e-9 * scale
    _announce(9, "float-mode chain residuals within 1e-9 scale", ok)
