"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored in ascending degree order: ``coeffs[k]`` multiplies
``x**k``.  The canonical form is either the empty tuple (the zero polynomial)
or a tuple whose last entry is nonzero.  Rational numbers only ever appear as
evaluation points and interval endpoints; they are ``fractions.Fraction``
throughout.

The text format used by the CLI and all file I/O is comma-separated ascending
coefficients: ``"0,1,1"`` is x + x**2 and ``"0"`` is the zero polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BothZeroError, PolyFormatError

Rational = Fraction

# degree of the zero polynomial
NEG_INFINITY_DEGREE = -math.inf


def _canonical(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial over the integers."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = _canonical(self.coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_string(text: str) -> "Poly":
        """Parse the comma-separated ascending coefficient format."""
        parts = [p.strip() for p in text.strip().split(",")]
        if not parts or any(p == "" for p in parts):
            raise PolyFormatError(f"cannot parse polynomial from {text!r}")
        try:
            return Poly(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise PolyFormatError(f"cannot parse polynomial from {text!r}") from exc

    @staticmethod
    def monomial(k: int, c: int = 1) -> "Poly":
        return Poly((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, with NEG_INFINITY_DEGREE for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY_DEGREE

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "Poly":
        """Divide out the (positive) content; every sign is kept."""
        if self.is_zero:
            return self
        c = self.content()
        return Poly(tuple(a // c for a in self.coeffs))

    def primitive_positive(self) -> "Poly":
        """Divide out the content and normalize the leading coefficient to be positive."""
        p = self.primitive()
        return -p if p.leading_coefficient < 0 else p

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(tuple(out))

    __rmul__ = __mul__

    def shift_up(self, k: int = 1) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Poly((0,) * k + self.coeffs)

    def __call__(self, t):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def sign_at(self, t) -> int:
        """Sign (-1, 0 or 1) of the value at a rational t, in integer arithmetic.

        With t = num/den and den > 0, Horner's rule on the homogenised form,
        ``acc = acc*num + c*den**j``, gives den**deg * p(t), which has the sign
        of p(t) and needs no rational intermediate.
        """
        cs = self.coeffs
        if not cs:
            return 0
        num, den = t.numerator, t.denominator
        acc = cs[-1]
        den_pow = 1
        for c in reversed(cs[:-1]):
            den_pow *= den
            acc = acc * num + c * den_pow
        return (acc > 0) - (acc < 0)

    # -- rendering ---------------------------------------------------------

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.to_string()


ZERO = Poly(())
ONE = Poly((1,))
X = Poly((0, 1))


# -- module-level operations ---------------------------------------------------


def poly_add(a: Poly, b: Poly) -> Poly:
    return a + b


def poly_mul(a: Poly, b: Poly) -> Poly:
    return a * b


def poly_derivative(a: Poly) -> Poly:
    return Poly(tuple(k * c for k, c in enumerate(a.coeffs) if k >= 1))


def eval_rational(a: Poly, t) -> Fraction:
    return Fraction(a(t))


def pseudo_divmod(a: Poly, b: Poly) -> tuple[int, Poly, Poly]:
    """Integer pseudo-division: ``(s, q, r)`` with ``s*a == q*b + r``, ``s >= 1``
    and ``deg r < deg b``.

    Each step scales the running remainder by ``|lead(b)| / gcd(lead(r), lead(b))``,
    the least positive factor that keeps the step in Z[x].  So ``r`` is a positive
    multiple of the Euclidean remainder of a by b (every sign evaluation agrees),
    and ``s == 1`` exactly when the quotient over the rationals is integral.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    lb = bc[-1]
    s = 1
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db and r:
        lr = r[-1]
        shift = len(r) - 1 - db
        g = math.gcd(lr, lb)
        scale, factor = abs(lb) // g, (lr // g if lb > 0 else -lr // g)
        if scale != 1:
            s *= scale
            r = [scale * c for c in r]
            q = [scale * c for c in q]
        q[shift] = factor
        for i, c in enumerate(bc):
            r[shift + i] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return s, Poly(tuple(q)), Poly(tuple(r))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient, by a primitive
    pseudo-remainder sequence (no rational intermediates)."""
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.primitive_positive()
    if b.is_zero:
        return a.primitive_positive()
    f, g = a.primitive_positive(), b.primitive_positive()
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        f, g = g, pseudo_divmod(f, g)[2].primitive_positive()
    return f


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact division in Z[x]; raises ValueError if b does not divide a there."""
    s, q, r = pseudo_divmod(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    if s != 1:
        raise ValueError("quotient is not integral")
    return q


def divides(d: Poly, a: Poly) -> bool:
    """True if d divides a over the rationals (zero remainder)."""
    if d.is_zero:
        return a.is_zero
    return pseudo_divmod(a, d)[2].is_zero


def parse_poly_list(text: str, sep: str = ";") -> list[Poly]:
    """Parse a separator-joined list of polynomials in the text format."""
    items = [p for p in (chunk.strip() for chunk in text.split(sep)) if p != ""]
    if not items:
        raise PolyFormatError(f"no polynomials in {text!r}")
    return [Poly.from_string(p) for p in items]
