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

    def _coerce(self, other):
        if isinstance(other, GaussScalar):
            return other
        if isinstance(other, _FractionLike):
            return _make(Fraction(other), _Q0)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        # the numerators directly: Fraction.__bool__ is a Python-level call
        return bool(self.re._numerator or self.im._numerator)

    # -- arithmetic --------------------------------------------------------
    # Fraction arithmetic is canonical already, so results skip the
    # coercion in __post_init__.

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _make(
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
        return _make(
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
        return _make(self.re, -self.im)

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
        # equal values hash equally: a real scalar equals its Fraction (and
        # an integer one its int), so it hashes as that Fraction
        if not self.im._numerator:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


_Q0 = Fraction(0)


def _make(re: Fraction, im: Fraction) -> GaussScalar:
    """A GaussScalar from two parts that are canonical Fractions already."""
    z = object.__new__(GaussScalar)
    z.__dict__.update(re=re, im=im)
    return z


GS_ZERO = GaussScalar(Fraction(0), Fraction(0))
GS_ONE = GaussScalar(Fraction(1), Fraction(0))


def gs(re=0, im=0) -> GaussScalar:
    """Shorthand constructor; accepts ints, Fractions, or 'p/q' strings."""
    return GaussScalar(Fraction(re), Fraction(im))


# -- text encoding (CLI file formats) -------------------------------------


def parse_scalar(obj, field: str = "value") -> GaussScalar:
    """Parse 'p/q', an int, or {'re': 'p/q', 'im': 'p/q'} into a GaussScalar.

    JSON floats and booleans are rejected, also as the parts of an object.
    A text part holds only ASCII digits, '+', '-', '/', '.', 'e' and 'E', in
    a form that Fraction reads: '-3', '3/4', '1.25' or '-2.5e3'.  Spaces,
    underscores and non-ASCII digits are rejected.
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
        if type(part) is str:
            # strip leaves text only when a character is outside the set
            if part.strip(_SCALAR_CHARS):
                raise ParseError(
                    f"{field}: {part!r} has a character other than ASCII "
                    f"digits and '+-/.eE'",
                    field=field,
                )
            if "e" in part or "E" in part:
                _check_exponent(part, field)
    try:
        return GaussScalar(Fraction(re), Fraction(im))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: not a rational scalar ({exc})", field=field)


_SCALAR_CHARS = "0123456789+-/.eE"

# Fraction("1e<exp>") builds 10**|exp| before any check; CPython already
# refuses int strings longer than this many digits (sys.int_info).
_MAX_EXPONENT = 4300


def _check_exponent(text: str, field: str) -> None:
    """ParseError for a decimal exponent beyond +-_MAX_EXPONENT."""
    try:
        exponent = int(text.replace("E", "e").rpartition("e")[2])
    except ValueError:
        return  # not a plain exponent; Fraction decides
    if abs(exponent) > _MAX_EXPONENT:
        raise ParseError(
            f"{field}: decimal exponent {exponent} is beyond "
            f"+-{_MAX_EXPONENT}",
            field=field,
        )


def encode_scalar(z: GaussScalar):
    """Inverse of parse_scalar; real values encode as a bare 'p/q' string."""
    if not z.im:
        return str(z.re)
    return {"re": str(z.re), "im": str(z.im)}
