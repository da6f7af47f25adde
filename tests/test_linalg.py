import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geu import linalg
from geu.errors import SingularMatrix
from geu.scalars import GS_ZERO, gs

from reference import gauss_jordan_inverse

_entries = st.sampled_from([1, -1, 2, -3, "1/2", "-3/2", "5/3"])
_dense = st.builds(gs, _entries, st.sampled_from([0, 1, "-1/3", "2/5"]))
_sparse = st.one_of(st.just(GS_ZERO), st.just(GS_ZERO), _dense)


@st.composite
def _systems(draw):
    """A square matrix up to 8x8, sparse or dense, and a right-hand side.

    About half of them are made singular by replacing one row with a
    combination of two others (possibly zero).
    """
    n = draw(st.integers(1, 8))
    entry = draw(st.sampled_from([_sparse, _dense]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        others = st.sampled_from([r for r in range(n) if r != k])
        i, j = draw(others), draw(others)
        c, d = draw(_sparse), draw(_sparse)
        rows[k] = [c * x + d * y for x, y in zip(rows[i], rows[j])]
    v = tuple(draw(_sparse) for _ in range(n))
    return linalg.as_matrix(rows), v


def _matrix(rows):
    return tuple(tuple(gs(x) for x in row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(_systems())
# every pivot needs a row swap
@example((_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _matrix([[1, 2, 3]])[0]))
# singular with a nonzero pivot in every column but the last
@example((_matrix([[1, 2, 3], [2, 4, 7], [3, 6, 10]]),
          _matrix([[1, 0, 0]])[0]))
@example((_matrix([[0, 0], [0, 0]]), _matrix([[1, 1]])[0]))
def test_solve_and_inverse_match_gauss_jordan(system):
    a, v = system
    n = len(a)
    try:
        want = gauss_jordan_inverse(a)
    except SingularMatrix:
        assert not linalg.det(a)
        with pytest.raises(SingularMatrix):
            linalg.inverse(a)
        with pytest.raises(SingularMatrix):
            linalg.solve(a, v)
        return
    inv = linalg.inverse(a)
    assert inv == want
    assert linalg.mat_mul(a, inv) == linalg.identity(n)
    assert linalg.mat_vec(a, linalg.solve(a, v)) == v
