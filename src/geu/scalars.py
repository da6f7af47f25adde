"""Exact complex scalars with rational real and imaginary parts.

Rationals are ``fractions.Fraction`` (always canonical: positive denominator,
gcd(|num|, den) = 1).  ``GaussScalar`` wraps a pair of them and supports full
field arithmetic, so every computation downstream is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FloatOverflow, ParseError

_FractionLike = (int, Fraction)


@dataclass(frozen=True)
class GaussScalar:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "GaussScalar":
        return cls(Fraction(q), Fraction(0))

    def _coerce(self, other):
        if isinstance(other, GaussScalar):
            return other
        if isinstance(other, _FractionLike):
            return GaussScalar.from_rational(other)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussScalar(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussScalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero GaussScalar")
        return GaussScalar(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return (GS_ONE / self) ** (-k)
        out = GS_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussScalar":
        return GaussScalar(self.re, -self.im)

    def __complex__(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise FloatOverflow(
                "a scalar is beyond the range of a complex float"
            ) from None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


GS_ZERO = GaussScalar(Fraction(0), Fraction(0))
GS_ONE = GaussScalar(Fraction(1), Fraction(0))


def gs(re=0, im=0) -> GaussScalar:
    """Shorthand constructor; accepts ints, Fractions, or 'p/q' strings."""
    return GaussScalar(Fraction(re), Fraction(im))


# -- text encoding (CLI file formats) -------------------------------------


def parse_scalar(obj, field: str = "value") -> GaussScalar:
    """Parse 'p/q', an int, or {'re': 'p/q', 'im': 'p/q'} into a GaussScalar.

    JSON floats and booleans are rejected, also as the parts of an object.
    """
    re, im = obj, 0
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise ParseError(
                f"{field}: unexpected keys {sorted(extra)}", field=field
            )
        re, im = obj.get("re", "0"), obj.get("im", "0")
    for part in (re, im):
        if type(part) not in (str, int):  # bool is a subclass of int
            raise ParseError(
                f"{field}: expected 'p/q' string or {{re, im}} object, "
                f"got {type(part).__name__}",
                field=field,
            )
    try:
        return GaussScalar(Fraction(re), Fraction(im))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: not a rational scalar ({exc})", field=field)


def encode_scalar(z: GaussScalar):
    """Inverse of parse_scalar; real values encode as a bare 'p/q' string."""
    if not z.im:
        return str(z.re)
    return {"re": str(z.re), "im": str(z.im)}
