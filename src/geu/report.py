"""Compute-and-verify driver producing serializable reports.

A report gathers the update factor, new eigenvalues, the changed-eigenvalue
bound, every applicable chain construction, and oracle verdicts for each.
The overall status is PASS only when every verdict passes.
"""
from __future__ import annotations

from . import chains, floatmode, oracle, perturb
from .chains import UpdatedChainVector
from .errors import DegenerateDenominator, ExactModeUnavailable, GeuError
from .perturb import PerturbationProblem
from .poly import poly_roots
from .scalars import encode_scalar


def _encode_chain_vector(cv: UpdatedChainVector) -> dict:
    coeffs = cv.coefficients
    return {
        "rank": cv.rank,
        "eigenvalue": encode_scalar(cv.eigenvalue),
        "vector": [encode_scalar(v) for v in cv.vector],
        "coefficients": {
            f"{t},{j}": encode_scalar(val)
            for (t, j), val in sorted(coeffs.table.items())
        },
    }


def _chain_length(problem: PerturbationProblem, case: str, block_index: int) -> int:
    """The number of vectors a case promises: r - m in the source block,
    otherwise the block size."""
    if case == chains.SAME_BLOCK:
        return problem.r - problem.m
    return problem.spec.blocks[block_index].size


def run_problem(
    problem: PerturbationProblem,
    mode: str = "exact",
    which_chains: str = "all",
    tolerance: float = 1e-9,
) -> dict:
    if mode == "float":
        return run_problem_float(problem, which_chains, tolerance)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    factor = perturb.update_char_factor(problem)
    report = {
        "mode": "exact",
        "n": problem.spec.n,
        "lambda": encode_scalar(problem.lam),
        "m": problem.m,
        "f": {
            "monomial": [encode_scalar(c) for c in factor.f.coeffs],
            "moments": [encode_scalar(c) for c in factor.moments],
        },
        "bound": perturb.changed_eigenvalue_bound(problem),
    }
    try:
        roots = poly_roots(factor.f, "exact")
        report["new_eigenvalues"] = [
            {"value": encode_scalar(r), "multiplicity": k} for r, k in roots
        ]
        exact_roots = [r for r, _ in roots]
    except ExactModeUnavailable:
        roots = poly_roots(factor.f, "numeric")
        report["new_eigenvalues"] = [
            {"value": [z.real, z.imag], "multiplicity": k, "numeric": True}
            for z, k in roots
        ]
        exact_roots = None

    updated = oracle.apply_update(problem)
    all_ok = True
    chain_reports = []
    verdicts = []
    for case, block_index in chains.chain_cases(problem, which_chains):
        entry = {"case": case, "block": block_index}
        chain_reports.append(entry)
        try:
            vectors = chains.build_chain(problem, case, block_index)
        except DegenerateDenominator as exc:
            entry["degenerate"] = str(exc)
            if exc.value is not None:
                entry["denominator"] = encode_scalar(exc.value)
            continue
        entry["vectors"] = [_encode_chain_vector(cv) for cv in vectors]
        eig = problem.eigenvalue(block_index)
        chain = [cv.vector for cv in vectors]
        verdict = oracle.verify_chain(updated, eig, chain)
        ranks_ok = oracle.chain_ranks(updated, eig, chain) == list(
            range(1, _chain_length(problem, case, block_index) + 1)
        )
        ok = verdict.ok and ranks_ok
        all_ok = all_ok and ok
        verdicts.append(
            {
                "case": case,
                "block": block_index,
                "chain_relation": verdict.ok,
                "failed_index": verdict.failed_index,
                "ranks": ranks_ok,
                "ok": ok,
            }
        )
    report["chains"] = chain_reports

    identity_ok = (
        perturb.updated_char_poly(problem) == oracle.char_poly_direct(updated)
    )
    all_ok = all_ok and identity_ok
    oracle_report = {
        "char_poly_identity": identity_ok,
        "chain_verdicts": verdicts,
    }
    if exact_roots is not None:
        candidates = problem.spec.distinct_eigenvalues() + exact_roots
        try:
            structure = oracle.jordan_structure(updated, candidates)
            oracle_report["jordan_structure"] = [
                {
                    "eigenvalue": encode_scalar(eig),
                    "block_sizes": list(sizes),
                }
                for eig, sizes in structure.entries
            ]
        except GeuError as exc:
            oracle_report["jordan_structure"] = None
            oracle_report["structure_error"] = str(exc)
    else:
        oracle_report["jordan_structure"] = None
        oracle_report["structure_error"] = "spectrum not Gaussian-rational"
    report["oracle"] = oracle_report
    report["status"] = "PASS" if all_ok else "FAILED"
    return report


def run_problem_float(
    problem: PerturbationProblem,
    which_chains: str = "all",
    tolerance: float = 1e-9,
) -> dict:
    fp = floatmode.FloatProblem(problem)
    scale = fp.residual_scale()
    report = {
        "mode": "float",
        "n": problem.spec.n,
        "m": problem.m,
        "tolerance": tolerance,
        "new_eigenvalues": [
            [z.real, z.imag] for z in floatmode.float_new_eigenvalues(problem)
        ],
        "bound": perturb.changed_eigenvalue_bound(problem),
    }
    max_residual = 0.0
    lengths_ok = True
    chain_reports = []
    for case, block_index in chains.chain_cases(problem, which_chains):
        entry = {"case": case, "block": block_index}
        chain_reports.append(entry)
        try:
            produced = chains.build_chain(fp, case, block_index)
        except DegenerateDenominator as exc:
            entry["degenerate"] = str(exc)
            continue
        residual = floatmode.chain_residual(
            fp, fp.eigenvalue(block_index), [cv.vector for cv in produced]
        )
        entry["ranks"] = [cv.rank for cv in produced]
        entry["residual"] = residual
        max_residual = max(max_residual, residual)
        lengths_ok = lengths_ok and (
            len(produced) == _chain_length(problem, case, block_index)
        )
    report["chains"] = chain_reports
    report["max_residual"] = max_residual
    report["residual_scale"] = scale
    residual_ok = max_residual <= tolerance * max(scale, 1.0)
    report["status"] = "PASS" if residual_ok and lengths_ok else "FAILED"
    return report
