from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geu.errors import (
    ExactModeUnavailable,
    FloatOverflow,
    NotDivisible,
    ZeroPolynomial,
)
from geu.poly import (
    Poly,
    poly_divide_linear,
    poly_from_shifted,
    poly_gcd,
    poly_roots,
)
from geu.scalars import GS_ONE, GS_ZERO, gs

from reference import distinct_root_count

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
scalars = st.builds(gs, fractions, fractions)
polys = st.lists(scalars, min_size=0, max_size=6).map(Poly.of)


def shifted_example():
    # (t-2)^2 + 2(t-2) - 3, expanded: t^2 - 2t - 3
    return poly_from_shifted(gs(2), [gs(-3), gs(2), gs(1)])


def test_poly_eval_examples():
    p = Poly.of([gs(-1), gs(0), gs(1)])  # t^2 - 1
    assert p.eval(gs(1)) == GS_ZERO
    q = shifted_example()
    assert q.coeffs == (gs(-3), gs(-2), gs(1))
    assert q.eval(gs(3)) == GS_ZERO
    # by-hand expansion to t^2 - 2t - 3 gives -3 at t = 0
    assert q.eval(GS_ZERO) == gs(-3)


def test_degree_and_trim():
    assert Poly.of([1, 2, 0, 0]).degree == 1
    assert Poly.zero().is_zero
    assert Poly.of([0]).is_zero


@given(polys, polys)
def test_degree_multiplicative(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys, scalars)
def test_ring_identities(p, q, v):
    assert (p + q).eval(v) == p.eval(v) + q.eval(v)
    assert (p * q).eval(v) == p.eval(v) * q.eval(v)


def test_roots_exact_examples():
    assert poly_roots(shifted_example()) == [(gs(-1), 1), (gs(3), 1)]
    # (t - 5) - 2
    assert poly_roots(Poly.of([gs(-7), gs(1)])) == [(gs(7), 1)]
    assert poly_roots(Poly.of([0, 0, 1])) == [(GS_ZERO, 2)]


def test_roots_multiplicity_and_complex():
    p = Poly.linear(gs(2)) ** 3 * Poly.linear(gs(0, 1))
    got = poly_roots(p)
    assert (gs(2), 3) in got and (gs(0, 1), 1) in got
    assert sum(k for _, k in got) == p.degree


def test_roots_rational_search_high_degree():
    p = Poly.one()
    for root in [gs("1/2"), gs(-3), gs(-3), gs(2), gs(7)]:
        p = p * Poly.linear(root)
    got = dict(poly_roots(p))
    assert got == {gs("1/2"): 1, gs(-3): 2, gs(2): 1, gs(7): 1}


def test_roots_unavailable():
    with pytest.raises(ZeroPolynomial):
        poly_roots(Poly.zero())
    # t^3 - 2 has no rational roots
    with pytest.raises(ExactModeUnavailable):
        poly_roots(Poly.of([-2, 0, 0, 1]))
    # t^2 - 2 has the irrational roots +-sqrt(2)
    with pytest.raises(ExactModeUnavailable):
        poly_roots(Poly.of([-2, 0, 1]))


small_fractions = st.fractions(min_value=-20, max_value=20,
                               max_denominator=12)
root_multisets = st.dictionaries(
    st.builds(gs, small_fractions, small_fractions),
    st.integers(1, 3),
    min_size=1,
    max_size=4,
)


@given(root_multisets)
@example({gs("1/1000"): 1, gs("1/1001"): 1})
@example({gs("1/1000"): 2, gs("1/1001"): 3, gs(0): 1})
def test_roots_round_trip(roots):
    p = Poly.one()
    for root, mult in roots.items():
        p = p * Poly.linear(root) ** mult
    want = sorted(roots.items(), key=lambda kv: (kv[0].re, kv[0].im))
    assert poly_roots(p) == want
    assert poly_roots(p.scale(gs("7/3", -2))) == want


def test_roots_large_gaussian():
    # constant term of norm ~1e19 and a leading coefficient of norm ~1e9
    roots = [gs(98765, -43210), gs("12345/7", "-6789/11"), gs(-3, 1)]
    p = Poly.one()
    for root in roots:
        p = p * Poly.linear(root)
    p = p.scale(gs(20011, 30011))
    assert poly_roots(p) == sorted(
        ((r, 1) for r in roots), key=lambda kv: (kv[0].re, kv[0].im)
    )


def test_roots_beyond_float_range():
    # a coefficient too large for a float, then 10^300 + 10^-300 t^2, whose
    # companion matrix entry 10^600 overflows
    for p in (Poly.of([10**400, 3, 1]),
              Poly.of([10**300, 0, Fraction(1, 10**300)])):
        with pytest.raises(ExactModeUnavailable):
            poly_roots(p)
        with pytest.raises(FloatOverflow):
            poly_roots(p, mode="numeric")


def test_roots_numeric():
    got = poly_roots(Poly.of([-2, 0, 1]), mode="numeric")
    roots = sorted(z.real for z, _ in got)
    assert roots == pytest.approx([-(2**0.5), 2**0.5])


def _float_residual(p, root):
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * root + complex(c)
    return abs(acc)


@given(st.integers(2, 12), st.data())
def test_numeric_residual_bound(degree, data):
    coeffs = [
        gs(data.draw(st.integers(-1000, 1000))) for _ in range(degree)
    ] + [GS_ONE]
    p = Poly.of(coeffs)
    top = float(max(max(abs(c.re), abs(c.im)) for c in p.coeffs))
    for root, _ in poly_roots(p, mode="numeric"):
        bound = 1e-8 * max(top, 1.0) * max(1.0, abs(root)) ** p.degree
        assert _float_residual(p, root) <= bound


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=8))
def test_numeric_residual_small_roots(roots):
    # with moderate roots the plain 1e-8 * max|c_i| bound holds directly
    p = Poly.one()
    for r in roots:
        p = p * Poly.linear(gs(r))
    top = float(max(max(abs(c.re), abs(c.im)) for c in p.coeffs))
    for root, _ in poly_roots(p, mode="numeric"):
        assert _float_residual(p, root) <= 1e-8 * max(top, 1.0)


def test_divide_linear_examples():
    p = Poly.linear(gs(2)) ** 3
    assert poly_divide_linear(p, gs(2), 2) == Poly.linear(gs(2))
    p = Poly.linear(gs(2)) ** 9 * Poly.linear(gs(1)) ** 2
    want = Poly.linear(gs(2)) ** 7 * Poly.linear(gs(1)) ** 2
    assert poly_divide_linear(p, gs(2), 2) == want
    with pytest.raises(NotDivisible):
        poly_divide_linear(Poly.of([1, 0, 1]), gs(1), 1)


@given(polys, scalars, st.integers(1, 3))
def test_divide_round_trip(p, root, k):
    padded = p * Poly.linear(root) ** k
    if padded.is_zero:
        return
    assert poly_divide_linear(padded, root, k) == p
    quotient = poly_divide_linear(padded, root, k)
    assert quotient * Poly.linear(root) ** k == padded


def test_exact_roots_round_trip():
    p = shifted_example() * Poly.linear(gs("1/3")) ** 2
    for root, mult in poly_roots(p):
        assert p.eval(root) == GS_ZERO
        assert mult >= 1


def test_gcd_and_distinct_count():
    p = Poly.linear(gs(1)) ** 3 * Poly.linear(gs(4))
    q = Poly.linear(gs(1)) * Poly.linear(gs(5))
    assert poly_gcd(p, q) == Poly.linear(gs(1))
    assert distinct_root_count(p) == 2
    assert distinct_root_count(Poly.linear(gs(2)) ** 5) == 1
