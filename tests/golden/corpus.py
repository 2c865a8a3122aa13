"""The golden corpus of the root layer: a fixed list of inputs, and one
digest per input of everything ``interlace.realroots`` answers on it.

The inputs are
- ``local_h(r, n)`` for r 3-12 and n 4, 7, ..., 40;
- every nonzero component of ``e_vector(r, n)`` for r 3-8 and n 1-16;
- 200 inputs from a seeded generator: products of rational linear factors
  with multiplicities and a power of x, with complex quadratic factors,
  with either sign of the leading coefficient, polynomials whose
  coefficients lie near 2^200, and clustered pairs x^d - 2(ax - 1)^2;
- palindromes whose fold has complex roots, ``local_h(r, n)`` times
  x^4 + 3x^2 + 1 or x^4 + x^3 + 3x^2 + x + 1, whose folds gain the factors
  y^2 + 1 and y^2 + y + 1: their separators cannot be proven, so they are
  counted on the chain of the fold.

An input's digest covers its coefficients, ``is_real_rooted``,
``count_real_roots`` over the whole line, the JSON of ``isolate_roots`` and
the JSON of ``refine_certificate`` at width 2^-16; a pair's digest covers
``interleaves`` both ways round on two neighbouring nonzero components of
one E-vector.  A typed error is digested by its class name, so a change
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

from interlace.edgewise import e_vector, local_h
from interlace.errors import InterlaceError
from interlace.polys import Poly
from interlace.realroots import (count_real_roots, interleaves, is_real_rooted,
                                 isolate_roots, refine_certificate)

DIGESTS = Path(__file__).resolve().with_name("digests.json")
WIDTH = Fraction(1, 2 ** 16)
SEED = 20161605
SEEDED = 200

# palindromic factors whose folds, y^2 + 1 and y^2 + y + 1, have complex roots
_COMPLEX_FOLDS = {"x^4+3x^2+1": Poly((1, 0, 3, 0, 1)), "x^4+x^3+3x^2+x+1": Poly((1, 1, 3, 1, 1))}


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
    return out


def pairs() -> list[tuple[str, Poly, Poly]]:
    """(name, f, g) for neighbouring nonzero components of the E-vectors."""
    out = []
    for r in range(3, 9):
        for n in range(1, 17):
            comps = [(i, p) for i, p in enumerate(e_vector(r, n).polys) if p.coeffs]
            out += [(f"interleaves E({r},{n})[{i},{j}]", f, g)
                    for (i, f), (j, g) in zip(comps, comps[1:])]
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


def _hash(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def cases():
    """(name, digest) for every input and pair, in corpus order, each digest
    a call that computes it."""
    for name, f in inputs():
        yield name, functools.partial(_root_digest, f)
    for name, f, g in pairs():
        yield name, functools.partial(_pair_digest, f, g)


def digests() -> dict[str, str]:
    """The digest of every input and pair, by name, in corpus order."""
    return {name: digest() for name, digest in cases()}
