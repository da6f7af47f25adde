import numpy as np

from geu import chains, floatmode
from geu.fuzz import random_problem
from geu.report import run_problem


def test_float_matches_exact_worked(worked):
    fp = floatmode.FloatProblem(worked)
    for case, block in chains.chain_cases(worked):
        produced = chains.build_chain(fp, case, block)
        exact = chains.build_chain(worked, case, block)
        assert [cv.rank for cv in produced] == [cv.rank for cv in exact]
        for cv, want in zip(produced, exact):
            assert cv.eigenvalue == complex(want.eigenvalue)
            vec = np.array([complex(x) for x in want.vector])
            assert np.allclose(cv.vector, vec, atol=1e-12)


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
    x = fp.source_chain(worked.m)
    want = np.linalg.norm(fp.a) + np.linalg.norm(x) * np.linalg.norm(fp.b)
    assert fp.residual_scale() == want
