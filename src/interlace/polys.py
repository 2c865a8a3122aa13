"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored in ascending degree order: ``coeffs[k]`` multiplies
``x**k``.  The canonical form is either the empty tuple (the zero polynomial)
or a tuple whose last entry is nonzero.  Rational numbers only ever appear as
evaluation points, interval endpoints and weights; they are
``fractions.Fraction`` throughout, except at ``Poly._value_at`` and
``Poly._sign_at``, which take a point as an integer pair (num, den) so that
bisections can keep their endpoints on an integer grid, and ``_on_grid``
puts rationals on such a grid.  ``_rational`` is the one parser of the
rationals a caller passes in, and ``_rational_text`` the one printer of
their JSON text.

The text format used by the CLI and all file I/O is comma-separated ascending
coefficients: ``"0,1,1"`` is x + x**2 and ``"0"`` is the zero polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParametersError, BothZeroError, PolyFormatError, ZeroPolynomialError

# degree of the zero polynomial
NEG_INFINITY_DEGREE = -math.inf


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial over the integers.

    Every coefficient must be an int, checked before anything else.  A
    canonical tuple is stored as given, so the exact routines that build one
    pay no copy; any other iterable is copied into a tuple with its trailing
    zeros stripped.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = self.coeffs
        if type(cs) is not tuple:
            try:
                cs = tuple(cs)
            except TypeError:
                raise BadParametersError(
                    f"integer coefficients required, got {cs!r}") from None
        for c in cs:
            if not isinstance(c, int):
                raise BadParametersError(f"integer coefficients required, got {c!r}")
        while cs and not cs[-1]:  # the canonical form
            cs = cs[:-1]
        if cs is not self.coeffs:
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
        """c x^k for an int k >= 0; any other k raises BadParametersError."""
        if _typed(k, "k", int) < 0:
            raise BadParametersError(f"k must be nonnegative, got {k}")
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
        out = [0] * (len(a) + len(b) - 1)  # no entry when a or b is 0
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(tuple(out))

    __rmul__ = __mul__

    def shift_up(self) -> "Poly":
        """Multiply by x."""
        return Poly((0,) + self.coeffs)

    def __call__(self, t):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def sign_at(self, t) -> int:
        """Sign (-1, 0 or 1) of the value at a rational t, in integer arithmetic.

        A thin wrapper over ``_sign_at(t.numerator, t.denominator)``, which
        reads the sign off ``_value_at``, the one evaluation loop that the
        integer-grid bisections of ``realroots`` call directly with unreduced
        (num, den) pairs.
        """
        return self._sign_at(t.numerator, t.denominator)

    def _sign_at(self, num: int, den: int) -> int:
        """Sign of the value at num/den for integers num and den > 0, which
        need not be coprime: the sign of ``_value_at(num, den)``."""
        v = self._value_at(num, den)
        return (v > 0) - (v < 0)

    def _value_at(self, num: int, den: int) -> int:
        """den**deg * p(num/den) for integers num and den > 0, which need not
        be coprime: the one evaluation loop.

        Horner's rule on the homogenised form, ``acc = acc*num + c*den**j``,
        needs no rational intermediate; the value has the sign of p(num/den),
        and at one den the values at two points are in the ratio of p's.
        With den = 1 it is plain Horner, and with den = 2^t, the denominator
        of every grid point of a bisection, c*den**j is a shift by t j.
        """
        cs = self.coeffs
        if not cs:
            return 0
        acc = cs[-1]
        if den == 1:
            for c in reversed(cs[:-1]):
                acc = acc * num + c
            return acc
        if not den & (den - 1):
            t = shift = den.bit_length() - 1
            for c in reversed(cs[:-1]):
                acc = acc * num + (c << shift)
                shift += t
            return acc
        den_pow = 1
        for c in reversed(cs[:-1]):
            den_pow *= den
            acc = acc * num + c * den_pow
        return acc

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


def poly_derivative(a: Poly) -> Poly:
    return Poly(tuple(k * c for k, c in enumerate(_typed(a, "a").coeffs) if k >= 1))


def _reduce(r: list[int], b: tuple[int, ...], q: list[int] | None = None
            ) -> tuple[int, list[int]]:
    """The one division loop: (s, r') with s*r == q*b + r' over the
    coefficient lists of r and a nonzero b, s >= 1 and deg r' < deg b, r'
    canonical.  It fills q in place when given (zeros, one entry per degree
    of the quotient) and otherwise builds no quotient at all.

    Each step scales the running remainder by ``|lead(b)| / gcd(lead(r), lead(b))``,
    the least positive factor that keeps the step in Z[x], and cancels its
    leading entry.  So r' is a positive multiple of the Euclidean remainder
    of r by b (every sign evaluation agrees), and s == 1 exactly when the
    quotient over the rationals is integral.
    """
    db, lb, lower, s = len(b) - 1, b[-1], b[:-1], 1
    while len(r) > db:
        lr = r.pop()  # scale * lr - factor * lb == 0
        g = math.gcd(lr, lb)
        scale, factor = abs(lb) // g, (lr // g if lb > 0 else -lr // g)
        if scale != 1:
            s *= scale
            r = [scale * c for c in r]
            if q is not None:
                q[:] = [scale * c for c in q]
        shift = len(r) - db
        if q is not None:
            q[shift] = factor
        for i, c in enumerate(lower, shift):
            r[i] -= factor * c
        while r and not r[-1]:
            r.pop()
    return s, r


def pseudo_divmod(a: Poly, b: Poly) -> tuple[int, Poly, Poly]:
    """Integer pseudo-division: ``(s, q, r)`` with ``s*a == q*b + r``, ``s >= 1``
    and ``deg r < deg b``: the one division loop ``_reduce``, run with a
    quotient."""
    if _typed(b, "b").is_zero:
        raise ZeroPolynomialError("polynomial division by zero")
    _typed(a, "a")
    q = [0] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    s, r = _reduce(list(a.coeffs), b.coeffs, q)
    return s, Poly(tuple(q)), Poly(tuple(r))


def _remainder_step(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The term after a, b in a remainder sequence, for coefficient tuples
    with deg b >= 1: minus the primitive part of a positive multiple of the
    Euclidean remainder of a by b, canonical (empty for a zero remainder).
    Every step of ``_remainder_sequence`` runs through it.

    A normal step, n = deg a = deg b + 1, is written out in one pass: with
    la = lead(a), lb = lead(b) and c = lb a[n-1] - la b[n-2],
    lb^2 a - (la lb x + c) b cancels the entries of degree n and n - 1, so
    it is lb^2 > 0 times the remainder.  Any other step runs the one
    division loop ``_reduce``, also a positive multiple of the remainder, so
    both give the same primitive part.
    """
    n = len(a) - 1
    if n == len(b):
        la, lb = a[-1], b[-1]
        lb2, lab, c = lb * lb, la * lb, lb * a[-2] - la * b[-2]
        r = [lb2 * a[0] - c * b[0]]
        r += [lb2 * x - lab * y - c * z for x, y, z in zip(a[1:n - 1], b, b[1:])]
        while r and not r[-1]:
            r.pop()
    else:
        r = _reduce(list(a), b)[1]
    g = -math.gcd(*r)  # no division when r is empty
    return tuple([x // g for x in r])


def _remainder_sequence(a: Poly, b: Poly):
    """Yield a, b and the negated primitive pseudo-remainders after them, up
    to the last nonzero term, a multiple of gcd(a, b); lazily, so a caller can
    stop early.

    Each term is a positive multiple of the matching term of the signed
    remainder sequence a, b, -rem(a, b), ...: the pseudo-remainder scales by
    a positive factor and the primitive part divides by the positive content,
    so every sign, and every count of sign variations, agrees with it.  Each
    step is one ``_remainder_step`` and builds one ``Poly``.
    """
    yield a
    while b.coeffs:
        yield b
        if len(b.coeffs) == 1:  # the remainder of a division by a constant is 0
            return
        a, b = b, Poly(_remainder_step(a.coeffs, b.coeffs))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient: the primitive part of
    the last term of the remainder sequence (no rational intermediates)."""
    a, b = _typed(a, "a"), _typed(b, "b")
    if a.is_zero and b.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    for last in _remainder_sequence(a, b):
        pass
    return last.primitive_positive()


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact division in Z[x]: BadParametersError if b does not divide a
    there, and ZeroPolynomialError for b = 0, as ``pseudo_divmod`` raises."""
    s, q, r = pseudo_divmod(a, b)
    if not r.is_zero:
        raise BadParametersError("division is not exact")
    if s != 1:
        raise BadParametersError("quotient is not integral")
    return q


def _rational(value, what: str) -> Fraction:
    """value as a Fraction: an int, a Fraction, a finite float or a string such
    as "1/3"; anything else (NaN, infinities, None, malformed strings) raises
    BadParametersError.  The one parser of rationals at the public boundary:
    interval ends and widths, weights and numeric matrix entries."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise BadParametersError(
            f"{what} must be a finite rational number, got {value!r}") from exc


def _listed(values, what: str, kind: type = object) -> list:
    """list(values), or BadParametersError when values is not iterable, is a
    str or bytes (whose characters are no members) or holds a member that is
    not a kind: the one shape check of the sequences a caller passes in, of
    polynomials (kind Poly) or of values that _rational reads next."""
    if isinstance(values, (str, bytes)):
        raise BadParametersError(f"{what} must be a sequence, not the string {values!r}")
    try:
        out = list(values)
    except TypeError:
        raise BadParametersError(f"{what} must be iterable, got {values!r}") from None
    for v in out:
        if not isinstance(v, kind):
            raise BadParametersError(f"{what} must hold {kind.__name__}s, got {v!r}")
    return out


def _typed(value, what: str, kind: type = Poly):
    """value, or BadParametersError when it is not a kind (a Poly unless
    said otherwise): the one type check of a single value a caller passes
    in, as ``_listed`` is of a sequence."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "aeiou" else "a"
        raise BadParametersError(f"{what} must be {article} {kind.__name__}, got {value!r}")
    return value


def _rational_text(q: Fraction) -> str:
    """The JSON text "n/d" of a rational, "0/1" and "3/1" included: the one
    printer of the interval ends of certificates and the weights of witnesses."""
    return f"{q.numerator}/{q.denominator}"


def _on_grid(*points) -> tuple[tuple[int, ...], int]:
    """(nums, den) with points[i] = nums[i] / den over the least common
    denominator den of the rational points (1 for none): the one place that
    clears denominators, for interval ends and for weights alike."""
    den = math.lcm(*(t.denominator for t in points))
    return tuple(t.numerator * (den // t.denominator) for t in points), den


def parse_poly_list(text: str) -> list[Poly]:
    """Parse a semicolon-joined list of polynomials in the text format."""
    items = [p for p in (chunk.strip() for chunk in text.split(";")) if p != ""]
    if not items:
        raise PolyFormatError(f"no polynomials in {text!r}")
    return [Poly.from_string(p) for p in items]
