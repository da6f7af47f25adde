import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geu import chains, floatmode
from geu.errors import DegenerateDenominator
from geu.fuzz import random_problem
from geu.model import ChainLocator, JordanBlock, JordanSpec, jordan_matrix
from geu.perturb import PerturbationProblem
from geu.report import run_problem
from geu.scalars import gs


def _assert_float_matches_exact(problem):
    """Same cases, degeneracies and ranks; vectors within 1e-12 relative."""
    fp = floatmode.FloatProblem(problem)
    for case, block in chains.chain_cases(problem):
        try:
            exact = chains.build_chain(problem, case, block)
        except DegenerateDenominator:
            with pytest.raises(DegenerateDenominator):
                chains.build_chain(fp, case, block)
            continue
        produced = chains.build_chain(fp, case, block)
        assert [cv.rank for cv in produced] == [cv.rank for cv in exact]
        for cv, want in zip(produced, exact):
            assert cv.eigenvalue == complex(want.eigenvalue)
            vec = np.array([complex(x) for x in want.vector])
            err = np.linalg.norm(cv.vector - vec)
            assert err <= 1e-12 * max(np.linalg.norm(vec), 1.0)


def test_float_matches_exact_worked(worked):
    _assert_float_matches_exact(worked)


def test_float_matches_exact_random():
    rng = random.Random(1309)
    checked = 0
    for i in range(300):
        problem = random_problem(rng, 8, allow_complex=i % 3 == 0)
        if problem.spec.similarity is not None:
            _assert_float_matches_exact(problem)
            checked += 1
    assert checked > 100


def test_float_report_worked(worked):
    rep = run_problem(worked, mode="float")
    assert rep["status"] == "PASS"
    eigs = sorted(z[0] for z in rep["new_eigenvalues"])
    assert abs(eigs[0] + 1) < 1e-9 and abs(eigs[-1] - 3) < 1e-9


def test_float_residuals_random(rng):
    for _ in range(15):
        problem = random_problem(rng, 20)
        rep = run_problem(problem, mode="float", tolerance=1e-9)
        assert rep["status"] == "PASS", rep


def test_residual_scale_definition(worked):
    fp = floatmode.FloatProblem(worked)
    x = fp.s[:, worked.spec.block_offset(worked.source.block_index) + worked.m - 1]
    want = np.linalg.norm(fp.a) + np.linalg.norm(x) * np.linalg.norm(fp.b)
    assert fp.residual_scale() == want


_eigenvalues = st.builds(gs, st.sampled_from([0, 1, -2, "1/3"]),
                         st.sampled_from([0, 0, 1]))
_nonzero = st.builds(gs, st.sampled_from([1, -1, 2, "-3/2", "1e-3"]),
                     st.sampled_from([0, 0, 0, "1/5"]))
_sparse = st.one_of(st.just(gs(0)), st.just(gs(0)), st.just(gs(0)), _nonzero)


@st.composite
def _similar_problems(draw):
    """A Jordan spec whose similarity is a row permutation of an upper
    triangular matrix with a nonzero diagonal and mostly zeros above it."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    blocks = tuple(JordanBlock(draw(_eigenvalues), k) for k in sizes)
    upper = [
        [draw(_nonzero) if i == j else draw(_sparse) if j > i else gs(0)
         for j in range(n)]
        for i in range(n)
    ]
    order = draw(st.permutations(range(n)))
    similarity = tuple(tuple(upper[i]) for i in order)
    spec = JordanSpec(blocks, similarity)
    return PerturbationProblem(spec, ChainLocator(0, 1), (gs(1),) * n)


def _dense(m):
    return np.array([[complex(v) for v in row] for row in m])


@settings(max_examples=60, deadline=None)
@given(_similar_problems())
def test_spec_matrices_match_dense_conversion(problem):
    a, s = floatmode.spec_matrices(problem)
    want_s = _dense(problem.spec.similarity)
    want_a = want_s @ _dense(jordan_matrix(problem.spec)) @ np.linalg.inv(
        want_s)
    assert s.dtype == want_s.dtype and np.array_equal(s, want_s)
    assert np.array_equal(a, want_a)
