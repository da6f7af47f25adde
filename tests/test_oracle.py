import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geu import linalg
from geu.errors import ExactModeUnavailable, IncompleteSpectrum, ZeroVector
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
    chain_ranks,
    char_poly_direct,
    generalized_rank,
    jordan_structure,
    verify_chain,
)
from geu.perturb import PerturbationProblem, update_char_factor
from geu.poly import Poly, poly_roots
from geu.scalars import GS_ONE, GS_ZERO, gs

from reference import mat_scale, mat_sub, nullspace


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
    try:
        return poly_roots(p)
    except ExactModeUnavailable:
        return []


def test_nullspace():
    zero3 = tuple((GS_ZERO,) * 3 for _ in range(3))
    assert len(nullspace(zero3)) == 3
    assert nullspace(linalg.identity(4)) == []
    j20 = assemble_matrix(JordanSpec((JordanBlock(gs(0), 2),)))
    basis = nullspace(j20)
    assert len(basis) == 1
    assert basis[0][1] == GS_ZERO and basis[0][0]


def test_nullspace_properties(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        m = tuple(
            tuple(gs(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
        )
        basis = nullspace(m)
        assert len(basis) == n - len(linalg.row_basis(m))
        for v in basis:
            assert linalg.vec_is_zero(linalg.mat_vec(m, v))
        if basis:
            stacked = tuple(basis)
            assert len(linalg.row_basis(stacked)) == len(basis)


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


# -- references for the O(n^3) oracles ---------------------------------------


def _minus_scalar(m, s):
    """M - s I."""
    return mat_sub(m, mat_scale(s, linalg.identity(len(m))))


def _faddeev_leverrier(m):
    """det(tI - M) by the O(n^4) Faddeev-LeVerrier recursion."""
    n = len(m)
    coeffs = [GS_ZERO] * n + [GS_ONE]
    aux = linalg.identity(n)
    for k in range(1, n + 1):
        mk = linalg.mat_mul(m, aux)
        c = -sum((mk[i][i] for i in range(n)), GS_ZERO) / gs(k)
        coeffs[n - k] = c
        aux = _minus_scalar(mk, -c)
    return Poly(tuple(coeffs))


def _dense_power_structure(m, eigenvalues):
    """Block sizes from ranks of dense powers (M - eig I)^k, or None when
    the eigenvalues miss part of the spectrum."""
    n = len(m)
    out = []
    for eig in dict.fromkeys(eigenvalues):
        shifted = _minus_scalar(m, eig)
        ranks = [n]
        power = linalg.identity(n)
        while True:
            power = linalg.mat_mul(power, shifted)
            ranks.append(n - len(nullspace(power)))
            if ranks[-1] == ranks[-2]:
                break
        drops = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
        sizes = []
        for k in range(1, len(drops)):
            sizes.extend([k] * (drops[k - 1] - drops[k]))
        out.extend((eig, s) for s in sizes)
    if sum(s for _, s in out) != n:
        return None
    return sorted(out, key=lambda p: (p[0].re, p[0].im, -p[1]))


def _walked_rank(m, eig, v):
    """Smallest k <= n with (M - eig I)^k v = 0, or None."""
    n = len(m)
    shifted = _minus_scalar(m, eig)
    for k in range(1, n + 1):
        v = linalg.mat_vec(shifted, v)
        if linalg.vec_is_zero(v):
            return k
    return None


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, "1/2", "-3/2"])
_gauss = st.builds(gs, _entries, st.sampled_from([0, 0, 0, 1, "-1/3"]))


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 7))
    return tuple(
        tuple(draw(_gauss) for _ in range(n)) for _ in range(n)
    )


def _matrix(rows):
    return tuple(tuple(gs(x) for x in row) for row in rows)


@settings(max_examples=80, deadline=None)
@given(_square_matrices())
# the first column is zero under the diagonal except its last entry, so the
# reduction must swap row and column 1 with row and column 3
@example(_matrix([[1, 2, 0, 1], [0, 3, 1, 0], [0, 1, 0, 2], [5, 0, 1, 1]]))
# every subdiagonal pivot is missing: a cyclic permutation
@example(_matrix([[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]))
# a column with nothing to eliminate, then an elimination in the next one
@example(_matrix([[2, 1, 1, 0], [0, 2, 0, 1], [0, 1, 2, 0], [0, 3, 1, 2]]))
def test_char_poly_matches_faddeev_leverrier(m):
    assert char_poly_direct(m) == _faddeev_leverrier(m)


def test_jordan_structure_matches_dense_powers():
    rng = random.Random(4711)
    for _ in range(40):
        problem = random_problem(rng, 7, allow_complex=rng.random() < 0.3)
        eigs = problem.spec.distinct_eigenvalues()
        # one candidate that is not an eigenvalue contributes nothing
        cases = [(problem.matrix, eigs + [gs(7, 1)])]
        updated = apply_update(problem)
        try:
            f = update_char_factor(problem).f
            roots = [r for r, _ in poly_roots(f, "exact")]
            cases.append((updated, eigs + roots))
        except ExactModeUnavailable:
            pass
        # a spectrum missing an eigenvalue raises IncompleteSpectrum
        cases.append((problem.matrix, eigs[1:]))
        for m, candidates in cases:
            want = _dense_power_structure(m, candidates)
            if want is None:
                with pytest.raises(IncompleteSpectrum):
                    jordan_structure(m, candidates)
            else:
                assert jordan_structure(m, candidates).block_multiset() == want


_sparse_gauss = st.one_of(st.just(GS_ZERO), _gauss)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_sparse_gauss, _sparse_gauss), max_size=12))
def test_conj_dot_matches_dense_sum(pairs):
    dense = GS_ZERO
    for p, q in pairs:
        dense = dense + p.conjugate() * q
    b = tuple(p for p, _ in pairs)
    x = tuple(q for _, q in pairs)
    assert linalg.conj_dot(b, x) == dense


def test_chain_ranks_match_single_vectors_on_broken_chains(worked):
    a = apply_update(worked)
    m = worked.matrix
    x1, x2, x3, x4 = (
        chain_vector(worked.spec, ChainLocator(0, j)) for j in range(1, 5)
    )
    y = chain_vector(worked.spec, ChainLocator(2, 1))  # eigenvalue 1
    minus_y = linalg.vec_scale(gs(-1), y)  # (M - 2I)(-y) = y, rank None
    chains = {
        "intact": [x1, x2, x3, x4],
        "scaled": [x1, x2, linalg.vec_scale(gs(2), x3), x4],
        "swapped": [x1, x3, x2, x4],
        "outside the eigenspace": [x1, y, minus_y, x2],
        "two chains": [x1, x2, x1, x2, x3],
    }
    want = {
        "intact": [1, 2, 3, 4],
        "scaled": [1, 2, 3, 4],
        "swapped": [1, 3, 2, 4],
        "outside the eigenspace": [1, None, None, 2],
        "two chains": [1, 2, 1, 2, 3],
    }
    for name, vectors in chains.items():
        got = chain_ranks(m, gs(2), vectors)
        assert got == want[name], name
        assert got == [generalized_rank(m, gs(2), v) for v in vectors]
        assert got == [_walked_rank(m, gs(2), v) for v in vectors]
        # the updated matrix breaks the source chain's relation
        got = chain_ranks(a, gs(2), vectors)
        assert got == [generalized_rank(a, gs(2), v) for v in vectors]
        assert got == [_walked_rank(a, gs(2), v) for v in vectors]
    with pytest.raises(ZeroVector):
        chain_ranks(m, gs(2), [x1, linalg.zero_vector(11), x2])


def test_chain_ranks_match_single_vectors_random(rng):
    for _ in range(30):
        problem = random_problem(rng, 7)
        m = problem.matrix
        chain = [problem.source_chain(j) for j in range(1, problem.r + 1)]
        vectors = list(chain)
        i = rng.randrange(len(vectors))
        k = rng.randrange(len(vectors))
        vectors[i], vectors[k] = vectors[k], vectors[i]
        vectors.append(linalg.vec_scale(gs(3), chain[-1]))
        vectors.append(linalg.vec_add(chain[0], problem.b))
        for eig in (problem.lam, problem.lam + gs(1)):
            got = chain_ranks(m, eig, vectors)
            assert got == [_walked_rank(m, eig, v) for v in vectors]
