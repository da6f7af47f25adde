"""Dense univariate polynomials over the Gaussian rationals.

Coefficients are stored low-degree first; the leading coefficient is nonzero
(the zero polynomial has an empty coefficient tuple).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import ExactModeUnavailable, NotDivisible, ZeroPolynomial
from .scalars import GS_ONE, GS_ZERO, GaussScalar, gauss_sqrt, gs

# Rational-root search bails out beyond this constant-term magnitude rather
# than grinding through divisor enumeration.
_FACTOR_SEARCH_LIMIT = 10**12


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[GaussScalar, ...]

    @classmethod
    def of(cls, coeffs: Iterable) -> "Poly":
        cs = [c if isinstance(c, GaussScalar) else gs(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((GS_ONE,))

    @classmethod
    def linear(cls, root: GaussScalar) -> "Poly":
        """t - root."""
        return cls((-root, GS_ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussScalar:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval(self, v: GaussScalar) -> GaussScalar:
        acc = GS_ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly.of(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [GS_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(tuple(out))

    def scale(self, s: GaussScalar) -> "Poly":
        return Poly.of(c * s for c in self.coeffs)

    def __pow__(self, k: int) -> "Poly":
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monic(self) -> "Poly":
        lead = self.leading()
        if lead == GS_ONE:
            return self
        return self.scale(GS_ONE / lead)


def poly_divide_linear(p: Poly, root: GaussScalar, k: int = 1) -> Poly:
    """Divide p by (t-root)^k, verifying a zero remainder at every step."""
    cur = p
    for step in range(k):
        if cur.is_zero:
            raise NotDivisible(f"(t-{root!r}) does not divide the zero polynomial")
        out = []
        acc = GS_ZERO
        for c in reversed(cur.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        if rem:
            raise NotDivisible(
                f"(t-{root!r})^{step + 1} leaves remainder {rem!r}"
            )
        cur = Poly.of(reversed(out))
    return cur


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, _poly_mod(a, b)
    if a.is_zero:
        return a
    return a.monic()


def _poly_mod(a: Poly, b: Poly) -> Poly:
    rem = list(a.coeffs)
    db, lead = b.degree, b.leading()
    while len(rem) - 1 >= db and rem:
        q = rem[-1] / lead
        off = len(rem) - 1 - db
        for i, c in enumerate(b.coeffs):
            rem[off + i] = rem[off + i] - q * c
        while rem and not rem[-1]:
            rem.pop()
    return Poly(tuple(rem))


def distinct_root_count(p: Poly) -> int:
    """Number of distinct complex roots, via deg p - deg gcd(p, p')."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial")
    deriv = Poly.of(
        (c * gs(i) for i, c in enumerate(p.coeffs) if i >= 1)
    )
    if deriv.is_zero:
        return 0
    return p.degree - poly_gcd(p, deriv).degree


# -- root extraction -------------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def _norm_candidates(norm: int) -> list[GaussScalar]:
    """Gaussian integers (up to units) whose norm divides the given norm."""
    out = []
    for d in _divisors(norm):
        for a in range(isqrt(d) + 1):
            b2 = d - a * a
            b = isqrt(b2)
            if b * b == b2:
                out.append((a, b))
    seen = set()
    result = []
    for a, b in out:
        for re, im in ((a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a),
                       (-b, a), (-b, -a)):
            if (re, im) != (0, 0) and (re, im) not in seen:
                seen.add((re, im))
                result.append(gs(re, im))
    return result


def _gaussian_root_candidates(p: Poly) -> Iterable[GaussScalar]:
    denom_lcm = 1
    for c in p.coeffs:
        for q in (c.re.denominator, c.im.denominator):
            denom_lcm = denom_lcm * q // gcd(denom_lcm, q)
    scaled = [c * denom_lcm for c in p.coeffs]
    const, lead = scaled[0], scaled[-1]
    n_const = int(const.re * const.re + const.im * const.im)
    n_lead = int(lead.re * lead.re + lead.im * lead.im)
    if n_const > 10**8 or n_lead > 10**8:
        raise ExactModeUnavailable(
            "coefficients too large for Gaussian-integer root search"
        )
    denoms = _norm_candidates(n_lead)
    for num in _norm_candidates(n_const):
        for den in denoms:
            yield num / den


def _rational_root_candidates(p: Poly) -> Iterable[GaussScalar]:
    if any(c.im for c in p.coeffs):
        yield from _gaussian_root_candidates(p)
        return
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.re.denominator // gcd(denom_lcm, c.re.denominator)
    ints = [int(c.re * denom_lcm) for c in p.coeffs]
    const, lead = ints[0], ints[-1]
    if abs(const) > _FACTOR_SEARCH_LIMIT or abs(lead) > _FACTOR_SEARCH_LIMIT:
        raise ExactModeUnavailable(
            "coefficients too large for rational-root search"
        )
    for num in _divisors(const):
        for den in _divisors(lead):
            yield gs(Fraction(num, den))
            yield gs(Fraction(-num, den))


def _quadratic_roots(p: Poly) -> list[GaussScalar] | None:
    c0, c1, c2 = p.coeffs
    disc = c1 * c1 - gs(4) * c2 * c0
    s = gauss_sqrt(disc)
    if s is None:
        return None
    two_a = gs(2) * c2
    return [(-c1 + s) / two_a, (-c1 - s) / two_a]


def poly_roots(p: Poly, mode: str = "exact"):
    """All roots of p with multiplicities.

    Exact mode returns GaussScalar roots whose multiplicities sum to the
    degree, or raises ExactModeUnavailable when the polynomial does not split
    over the Gaussian rationals within the search (degree <= 2 closed forms
    plus rational-root candidates).  Numeric mode returns complex floats from
    companion-matrix eigenvalues with Newton polishing, clustered into
    multiplicities; each returned root satisfies the residual bound
    |p(root)| <= 1e-8 * max|c_i| * max(1, |root|)^degree.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if mode == "numeric":
        return _numeric_roots(p)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    counts: dict[GaussScalar, int] = {}

    def record(root: GaussScalar, mult: int = 1):
        counts[root] = counts.get(root, 0) + mult

    work = p
    while work.degree > 0:
        if not work.coeffs[0]:
            work = poly_divide_linear(work, GS_ZERO, 1)
            record(GS_ZERO)
            continue
        if work.degree == 1:
            record(-work.coeffs[0] / work.coeffs[1])
            break
        if work.degree == 2:
            pair = _quadratic_roots(work)
            if pair is None:
                raise ExactModeUnavailable(
                    "quadratic factor has no Gaussian-rational roots"
                )
            for r in pair:
                record(r)
            break
        found = None
        for cand in _rational_root_candidates(work):
            if not work.eval(cand):
                found = cand
                break
        if found is None:
            raise ExactModeUnavailable(
                f"no rational root found at degree {work.degree}"
            )
        while not work.eval(found):
            work = poly_divide_linear(work, found, 1)
            record(found)
            if work.degree == 0:
                break
    return sorted(counts.items(), key=lambda kv: (kv[0].re, kv[0].im))


def _numeric_roots(p: Poly) -> list[tuple[complex, int]]:
    coeffs = np.array([complex(c) for c in reversed(p.coeffs)])
    deriv = np.polyder(coeffs)
    polished = []
    for z in np.roots(coeffs):
        # Newton steps tighten companion-matrix output; keep the smallest
        # residual seen, since iterates near multiple roots sink below the
        # evaluation-noise floor and then wander
        best, best_res = z, abs(np.polyval(coeffs, z))
        for _ in range(20):
            pv = np.polyval(coeffs, z)
            dv = np.polyval(deriv, z)
            if not pv or abs(dv) < 1e-300:
                break
            step = pv / dv
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
            z = z - step
            res = abs(np.polyval(coeffs, z))
            if res < best_res:
                best, best_res = z, res
        polished.append(best)
    raw = sorted(polished, key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in raw)) if len(raw) else 1.0
    tol = 1e-6 * scale
    clusters: list[list[complex]] = []
    for z in raw:
        if clusters and abs(z - clusters[-1][-1]) <= tol:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def poly_from_shifted(lam: GaussScalar, shifted: Sequence[GaussScalar]) -> Poly:
    """Build sum_i shifted[i] * (t-lam)^i in the monomial basis."""
    base = Poly.linear(lam)
    out = Poly.zero()
    power = Poly.one()
    for c in shifted:
        out = out + power.scale(c if isinstance(c, GaussScalar) else gs(c))
        power = power * base
    return out
