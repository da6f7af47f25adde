"""Dense univariate polynomials over the Gaussian rationals.

Coefficients are stored low-degree first; the leading coefficient is nonzero
(the zero polynomial has an empty coefficient tuple).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ExactModeUnavailable,
    FloatOverflow,
    NotDivisible,
    ZeroPolynomial,
)
from .scalars import GS_ONE, GS_ZERO, GaussScalar, gs


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
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


def _poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    rem = list(a.coeffs)
    db, lead = b.degree, b.leading()
    quot = [GS_ZERO] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        q = rem[-1] / lead
        off = len(rem) - 1 - db
        quot[off] = q
        for i, c in enumerate(b.coeffs):
            rem[off + i] = rem[off + i] - q * c
        while rem and not rem[-1]:
            rem.pop()
    return Poly.of(quot), Poly(tuple(rem))


def _squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'): the distinct roots of p, each once."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial")
    deriv = Poly.of(c * gs(i) for i, c in enumerate(p.coeffs) if i >= 1)
    quot, rem = _poly_divmod(p, poly_gcd(p, deriv))
    if not rem.is_zero:
        raise NotDivisible(f"gcd(p, p') leaves remainder {rem!r}")
    return quot


def distinct_root_count(p: Poly) -> int:
    """Number of distinct complex roots, via deg p - deg gcd(p, p')."""
    return _squarefree_part(p).degree


# -- root extraction -------------------------------------------------------


def poly_roots(p: Poly, mode: str = "exact"):
    """All roots of p with multiplicities.

    Exact mode returns GaussScalar roots whose multiplicities sum to the
    degree, or raises ExactModeUnavailable when p does not split over the
    Gaussian rationals.  Past degree 1 it takes the squarefree part s of p
    and scales it to Gaussian-integer coefficients with leading coefficient
    L; by Gauss's lemma over Z[i], L*r is a Gaussian integer for every
    Gaussian-rational root r.  Each Newton-polished float root z of s
    gives the candidate round(L*z)/L, which is kept only if it is an exact
    root, and divided out of p as often as it stays one.  When a root of p
    is left over, or s has a coefficient or a scaled root beyond float
    range, exact mode is unavailable.

    Numeric mode returns complex floats from companion-matrix eigenvalues
    with Newton polishing, clustered into multiplicities; each returned root
    satisfies the residual bound
    |p(root)| <= 1e-8 * max|c_i| * max(1, |root|)^degree.  It raises
    FloatOverflow when a coefficient or a coefficient ratio is beyond float
    range.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if mode == "numeric":
        return _numeric_roots(p)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if p.degree < 1:
        return []
    if p.degree == 1:
        return [(-p.coeffs[0] / p.coeffs[1], 1)]

    counts: dict[GaussScalar, int] = {}
    work = p
    for root in _rounded_roots(_squarefree_part(p)):
        while work.degree > 0 and not work.eval(root):
            work = poly_divide_linear(work, root)
            counts[root] = counts.get(root, 0) + 1
    if work.degree > 0:
        raise ExactModeUnavailable(
            f"{work.degree} roots are not Gaussian-rational"
        )
    return sorted(counts.items(), key=lambda kv: (kv[0].re, kv[0].im))


def _rounded_roots(s: Poly) -> list[GaussScalar]:
    """round(L*z)/L for every polished float root z of s (see poly_roots)."""
    denom = lcm(*(q for c in s.coeffs for q in (c.re.denominator,
                                                 c.im.denominator)))
    lead = s.leading() * denom
    try:
        scaled = [complex(lead) * z for z in _polished_roots(s)]
    except FloatOverflow as exc:
        raise ExactModeUnavailable(f"cannot locate roots in floats ({exc})")
    if not all(cmath.isfinite(w) for w in scaled):
        raise ExactModeUnavailable("a scaled root is beyond float range")
    return [gs(round(w.real), round(w.imag)) / lead for w in scaled]


def _polished_roots(p: Poly) -> list[complex]:
    """Companion-matrix roots of p, each tightened by Newton steps."""
    coeffs = np.array([complex(c) for c in reversed(p.coeffs)])
    deriv = np.polyder(coeffs)
    try:
        with np.errstate(over="ignore"):  # the overflow is caught below
            found = np.roots(coeffs)
    except np.linalg.LinAlgError:  # a coefficient ratio overflowed
        found = ()
    if len(found) != p.degree:  # or the leading coefficient underflowed
        raise FloatOverflow(
            "coefficient ratios are beyond the range of a complex float"
        )
    polished = []
    for z in found:
        # keep the smallest residual seen, since iterates near multiple
        # roots sink below the evaluation-noise floor and then wander
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
        polished.append(complex(best))
    return polished


def _numeric_roots(p: Poly) -> list[tuple[complex, int]]:
    raw = sorted(_polished_roots(p), key=lambda z: (z.real, z.imag))
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
