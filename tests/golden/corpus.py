"""The golden corpus of the root layer: a fixed list of inputs, and one
digest per input of everything ``interlace.realroots`` answers on it.

The inputs are
- ``local_h(r, n)`` for r 3-12 and n 4, 7, ..., 40;
- the boundary family, ``local_h(r, n)`` at (8, 49), (9, 49), (10, 46),
  (11, 46) and (12, 46), where the geometric means of the fold's root
  moduli from its Newton polygon do not separate its roots and the guesses
  of Laguerre's method do, and at (12, 43), where those means do: on every
  cell of the grid above they do, so these cells hold Laguerre's proof in
  the corpus;
- every nonzero component of ``e_vector(r, n)`` for r 3-8 and n 1-16;
- 200 inputs from a seeded generator: products of rational linear factors
  with multiplicities and a power of x, with complex quadratic factors,
  with either sign of the leading coefficient, polynomials whose
  coefficients lie near 2^200, and clustered pairs x^d - 2(ax - 1)^2;
- palindromes whose fold has complex roots, ``local_h(r, n)`` times
  x^4 + 3x^2 + 1 or x^4 + x^3 + 3x^2 + x + 1, whose folds gain the factors
  y^2 + 1 and y^2 + y + 1: their separators cannot be proven, so they are
  counted on the chain of the fold;
- palindromes whose fold has its roots above 2, so that its proof runs on the
  side s = +2: the stripped ``local_h(r, n)`` at -x, for every cell of the
  grid above whose stripped degree is even, and the same palindromes times
  x + 1, of odd degree;
- palindromes whose fold has the root y = 0, from the roots +-i: the same
  cells' ``local_h(r, n)`` and their stripped palindromes at -x, each times
  x^2 + 1, on either side s.

The families of the compatibility layer are
- ``e_vector(r, n)`` for r 2-6 and n 1-6, and the image of each under
  ``theorem_comp_transform``;
- seeded pairs of products of linear factors x + a with a >= 0, most of
  which do not interlace, and the incompatible pairs (x + a)^2, (x + b)^2;
- seeded families read with ``unchecked``: coefficient lists with negative
  entries, members with a negative leading coefficient, zeros and constants.

An input's digest covers its coefficients, ``is_real_rooted``,
``count_real_roots`` over the whole line, the JSON of ``isolate_roots`` and
the JSON of ``refine_certificate`` at width 2^-16; a pair's digest covers
``interleaves`` both ways round on two neighbouring nonzero components of
one E-vector; a family's digest covers the verdict JSON of
``compatible_family_sampled`` and of ``check_conditions_ab`` on it.  A typed error is digested by its class name, so a change
that makes the library raise shows as a difference too.

``digests.json`` beside this file holds the digests; ``regenerate.py``
rewrites it, and ``tests/test_golden.py`` recomputes every digest and names
the first input whose digest differs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from interlace.compat import check_conditions_ab, compatible_family_sampled, theorem_comp_transform
from interlace.edgewise import e_vector, local_h
from interlace.errors import InterlaceError
from interlace.polys import Poly
from interlace.realroots import (count_real_roots, interleaves, is_real_rooted,
                                 isolate_roots, refine_certificate)

DIGESTS = Path(__file__).resolve().with_name("digests.json")
WIDTH = Fraction(1, 2 ** 16)
SEED = 20161605
SEEDED = 200
# seeded pairs, incompatible square pairs and unchecked families of the compat layer
COMPAT_PAIRS, COMPAT_SQUARES, COMPAT_UNCHECKED = 30, 10, 40
# local_h cells where the fold's Newton polygon fails and Laguerre proves,
# and one where the polygon proves
BOUNDARY = ((8, 49), (9, 49), (10, 46), (11, 46), (12, 46), (12, 43))

# palindromic factors whose folds, y^2 + 1 and y^2 + y + 1, have complex roots
_COMPLEX_FOLDS = {"x^4+3x^2+1": Poly((1, 0, 3, 0, 1)), "x^4+x^3+3x^2+x+1": Poly((1, 1, 3, 1, 1))}
X_PLUS_1, X2_PLUS_1 = Poly((1, 1)), Poly((1, 0, 1))


def _product(factors) -> Poly:
    out = Poly((1,))
    for f in factors:
        out = out * f
    return out


def _seeded(rng: random.Random, i: int) -> tuple[str, Poly]:
    """The i-th seeded input, of the kind i picks, with that kind."""
    kind = i % 5
    if kind == 4:  # a clustered pair of roots near 1/a, Mignotte's shape
        d, a = rng.randint(4, 12), rng.randint(2, 300)
        return f"x^{d}-2({a}x-1)^2", Poly((0,) * d + (1,)) - 2 * Poly((-1, a)) * Poly((-1, a))
    if kind == 3:  # coefficients near 2^200, of either sign
        coeffs = [rng.choice((-1, 1)) * (2 ** 200 + rng.randint(-2 ** 20, 2 ** 20))
                  for _ in range(rng.randint(2, 7))]
        return "near 2^200", Poly(tuple(coeffs))
    factors = []
    for _ in range(rng.randint(1, 4)):  # rational linear factors (p x - q)^m
        p, q = rng.randint(1, 12), rng.randint(-30, 30)
        factors += [Poly((-q, p))] * rng.choice((1, 1, 1, 2, 3))
    if kind >= 1:  # complex quadratic factors x^2 + b x + c with b^2 < 4c
        for _ in range(rng.randint(1, 2 if kind == 1 else 1)):
            b = rng.randint(-6, 6)
            factors.append(Poly((b * b // 4 + rng.randint(1, 9), b, 1)))
    if kind == 2:  # a factor with a large leading coefficient
        factors.append(Poly((rng.randint(-99, 99) or 1, rng.randint(2, 10 ** 6))))
    f = _product(factors) * Poly((0,) * rng.randint(0, 3) + (1,))
    return ("complex factors" if kind else "linear factors"), -f if rng.random() < 0.3 else f


def inputs() -> list[tuple[str, Poly]]:
    """(name, polynomial) for every single-polynomial input, in order."""
    out = [(f"local_h({r},{n})", local_h(r, n)) for r in range(3, 13) for n in range(4, 41, 3)]
    out += [(f"boundary local_h({r},{n})", local_h(r, n)) for r, n in BOUNDARY]
    for r in range(3, 9):
        for n in range(1, 17):
            out += [(f"E({r},{n})[{i}]", p) for i, p in enumerate(e_vector(r, n).polys) if p.coeffs]
    rng = random.Random(SEED)
    for i in range(SEEDED):
        kind, f = _seeded(rng, i)
        out.append((f"seeded #{i}: {kind}", f))
    for r, n in ((3, 7), (4, 10), (6, 13), (9, 16)):
        h = local_h(r, n)
        out += [(f"local_h({r},{n})*({name})", h * g) for name, g in _COMPLEX_FOLDS.items()]
    for r, n, h in _even_cells():
        at_minus_x = Poly(tuple(-c if i % 2 else c for i, c in enumerate(_stripped(h).coeffs)))
        out += [(f"positive local_h({r},{n})(-x)", at_minus_x),
                (f"positive local_h({r},{n})(-x)*(x+1)", at_minus_x * X_PLUS_1),
                (f"root y=0 local_h({r},{n})*(x^2+1)", h * X2_PLUS_1),
                (f"root y=0 local_h({r},{n})(-x)*(x^2+1)", at_minus_x * X2_PLUS_1)]
    return out


def _stripped(f: Poly) -> Poly:
    """f with its factor x^k divided out."""
    return Poly(f.coeffs[next(i for i, c in enumerate(f.coeffs) if c):])


def _even_cells():
    """(r, n, local_h(r, n)) for the cells of the local_h grid whose
    stripped palindrome has an even degree of at least 2."""
    for r in range(3, 13):
        for n in range(4, 41, 3):
            h = local_h(r, n)
            if _stripped(h).degree % 2 == 0 and _stripped(h).degree >= 2:
                yield r, n, h


def pairs() -> list[tuple[str, Poly, Poly]]:
    """(name, f, g) for neighbouring nonzero components of the E-vectors."""
    out = []
    for r in range(3, 9):
        for n in range(1, 17):
            comps = [(i, p) for i, p in enumerate(e_vector(r, n).polys) if p.coeffs]
            out += [(f"interleaves E({r},{n})[{i},{j}]", f, g)
                    for (i, f), (j, g) in zip(comps, comps[1:])]
    return out


def _linear_product(rng: random.Random) -> Poly:
    """c (x + a_1) ... (x + a_k) with c >= 1 and a_i >= 0, some repeated."""
    p = Poly((rng.randint(1, 3),))
    for _ in range(rng.randint(0, 4)):
        p = p * Poly((rng.choice((0, 1, 1, 2, 3, 4, 5, 7)), 1))
    return p


def _unchecked_member(rng: random.Random) -> Poly:
    kind = rng.random()
    if kind < 0.3:  # a coefficient list with negative entries
        return Poly(tuple(rng.randint(-4, 6) for _ in range(rng.randint(1, 5))))
    if kind < 0.5:  # a product of linear factors, either sign of the lead
        return rng.choice((-1, 1)) * _linear_product(rng)
    if kind < 0.65:  # a product with a negative root
        return _linear_product(rng) * Poly((rng.randint(-5, -1), 1))
    if kind < 0.85:  # a constant of either sign
        return Poly((rng.choice((-3, -1, 1, 2, 5)),))
    return Poly(())


def families() -> list[tuple[str, list[Poly], bool]]:
    """(name, members, unchecked) for every family of the compat layer, in order."""
    out = []
    for r in range(2, 7):
        for n in range(1, 7):
            fs = list(e_vector(r, n).polys)
            out += [(f"compat E({r},{n})", fs, False),
                    (f"compat T(E({r},{n}))", theorem_comp_transform(fs), False)]
    rng = random.Random(SEED + 1)
    for i in range(COMPAT_PAIRS):
        out.append((f"compat seeded pair #{i}", [_linear_product(rng), _linear_product(rng)], False))
    for i in range(COMPAT_SQUARES):
        a, b = rng.sample(range(0, 40), 2)
        out.append((f"compat (x+{a})^2,(x+{b})^2", [Poly((a * a, 2 * a, 1)), Poly((b * b, 2 * b, 1))],
                    False))
    for i in range(COMPAT_UNCHECKED):
        fs = [_unchecked_member(rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            fs.append(rng.choice(fs))
        out.append((f"compat unchecked #{i}", fs, True))
    return out


def _answer(call):
    """call(), or the class name of the typed error it raises."""
    try:
        return call()
    except InterlaceError as exc:
        return f"error: {type(exc).__name__}"


def _root_digest(f: Poly) -> str:
    cert = _answer(lambda: isolate_roots(f))
    refined = (cert if isinstance(cert, str)
               else _answer(lambda: refine_certificate(f, cert, WIDTH).to_json_obj()))
    return _hash([f.to_string(), _answer(lambda: is_real_rooted(f)),
                  _answer(lambda: count_real_roots(f)),
                  cert if isinstance(cert, str) else cert.to_json_obj(), refined])


def _pair_digest(f: Poly, g: Poly) -> str:
    return _hash([f.to_string(), g.to_string(),
                  _answer(lambda: interleaves(f, g)), _answer(lambda: interleaves(g, f))])


def _verdict_json(verdict) -> list:
    return [verdict.status, verdict.witness and verdict.witness.to_json_obj()]


def _family_digest(fs: list[Poly], unchecked: bool) -> str:
    return _hash([[f.to_string() for f in fs], unchecked,
                  _answer(lambda: _verdict_json(compatible_family_sampled(fs, unchecked))),
                  _answer(lambda: _verdict_json(check_conditions_ab(fs, unchecked)))])


def _hash(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def cases():
    """(name, digest) for every input and pair, in corpus order, each digest
    a call that computes it."""
    for name, f in inputs():
        yield name, functools.partial(_root_digest, f)
    for name, f, g in pairs():
        yield name, functools.partial(_pair_digest, f, g)
    for name, fs, unchecked in families():
        yield name, functools.partial(_family_digest, fs, unchecked)


def digests() -> dict[str, str]:
    """The digest of every input and pair, by name, in corpus order."""
    return {name: digest() for name, digest in cases()}
