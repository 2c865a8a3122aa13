"""Command-line interface.

One report path: each command returns one ``Report``, which ``main`` renders
once, as its text lines or under ``--json`` as one stable JSON object; an
internal error becomes an ERROR report on the same path.  Exit codes follow the
status: 0 PASS/OK, 1 FAIL, 3 ERROR; usage errors exit 2 with a message on stderr.
A reader that closes stdout early does not change the exit code.

Polynomials on the command line use the ascending-coefficient comma format
("0,1,1" is x + x^2); semicolons separate polynomials in sequence arguments.
The INTERLACE_BUDGET environment variable caps enumeration sizes
(default 10^8 words); the enumerations also cap n at words.MAX_N.

``main`` builds its argument parser on its first call and reuses that one
parser on every later call; ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from . import compat, edgewise, matrices, words
from .errors import InterlaceError
from .polys import Poly, parse_poly_list
from .realroots import _certificate, _roots, interleaves
from .words import DEFAULT_BUDGET, GammaVector

PASS, FAIL, OK, ERROR = "PASS", "FAIL", "OK", "ERROR"
_EXIT_CODES = {PASS: 0, OK: 0, FAIL: 1, ERROR: 3}


class UsageError(Exception):
    """Raised for bad inputs; reported on stderr with exit code 2."""


def _budget() -> int:
    raw = os.environ.get("INTERLACE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"INTERLACE_BUDGET must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError("INTERLACE_BUDGET must be positive")
    return value


def _parse_gamma(text: str) -> GammaVector:
    try:
        return GammaVector(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"cannot parse profile {text!r}") from exc


@dataclass(frozen=True)
class Report:
    """The outcome of one command: text ``lines``, or one JSON object."""

    command: str
    params: dict
    status: str
    result: object = None
    witness: object = None
    lines: Sequence[str] = ()

    def render(self, as_json: bool) -> int:
        """Print the report and return its exit code.

        A reader that closed stdout early (``| head``) took what it wanted, so
        a broken pipe keeps the report's exit code: fd 1 then points at
        os.devnull, where the interpreter's last flush of what is still
        buffered lands quietly."""
        try:
            if as_json:
                obj = {"command": self.command, "params": self.params, "status": self.status,
                       "result": self.result, "witness": self.witness}
                print(json.dumps({k: v for k, v in obj.items() if v is not None}))
            else:
                for line in self.lines:
                    print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return _EXIT_CODES[self.status]


# -- edgewise ------------------------------------------------------------------


def cmd_edgewise(args) -> Report:
    params = {"r": args.r, "n": args.n, "gamma": args.gamma, "component": args.component}
    if args.component is not None and not 0 <= args.component < args.r:
        raise UsageError(f"component must be in [0, {args.r - 1}]")
    gamma = _parse_gamma(args.gamma) if args.gamma is not None else None
    if args.verify:  # the oracle's budget, before the recurrence does any work
        budget = _budget()
        words.check_budget(args.n, args.r, budget)
    vec = edgewise.e_gamma(args.r, args.n, gamma)
    if args.verify:
        expected = words.oracle_E_gamma(args.n, args.r, gamma, budget=budget)
        for i, (got, want) in enumerate(zip(vec.polys, expected)):
            if got != want:
                witness = {"component": i, "recurrence": str(got), "enumeration": str(want)}
                return Report("edgewise", params, FAIL, witness=witness, lines=[
                    f"MISMATCH component {i}: recurrence {got}, enumeration {want}"])
    status = PASS if args.verify else OK
    if args.component is not None:
        out = str(vec.polys[args.component])
        return Report("edgewise", params, status, result=out, lines=[out])
    out = [str(p) for p in vec.polys]
    return Report("edgewise", params, status, result=out, lines=out)


def cmd_fh(args) -> Report:
    if (args.f is None) == (args.h is None):
        raise UsageError("exactly one of --f or --h is required")
    if args.f is not None:
        key, text, transform, vector = "f", args.f, edgewise.fh_transform, edgewise.FVector
    else:
        key, text, transform, vector = "h", args.h, edgewise.hf_transform, edgewise.HVector
    try:
        entries = tuple(int(v) for v in text.split(","))
        out = transform(vector(entries)).entries
    except ValueError as exc:
        raise UsageError(f"cannot parse vector: {exc}") from exc
    rendered = ",".join(str(v) for v in out)
    return Report("fh", {key: list(entries)}, OK, result=rendered, lines=[rendered])


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> Report:
    # the polynomials are argparse.REMAINDER (so that "-2,0,1" is not read as
    # an option), which also swallows a --unchecked written after the kind
    raw = [p for p in args.polys if p != "--unchecked"]
    unchecked = args.unchecked or len(raw) < len(args.polys)
    if not raw:
        raise UsageError("at least one polynomial is required")
    polys = [Poly.from_string(p) for p in raw]
    params = {"kind": args.kind, "polys": [str(p) for p in polys]}
    if args.kind == "realrooted":
        certificates = []
        for p in polys:
            # one root record decides and certifies; 0 is real-rooted with no record
            roots = p.is_zero or _roots(p, verdict=True)
            if roots is None:
                return Report("check", params, FAIL, witness={"poly": str(p)}, lines=["FAIL"])
            certificates.append(None if roots is True else _certificate(roots).to_json_obj())
        return Report("check", params, PASS, result={"certificates": certificates},
                      lines=["PASS"])
    if args.kind == "interleave":
        if len(polys) != 2:
            raise UsageError("interleave takes exactly two polynomials")
        ok = interleaves(polys[0], polys[1])
        return Report("check", params, PASS if ok else FAIL, lines=["PASS" if ok else "FAIL"],
                      witness=None if ok else {"f": str(polys[0]), "g": str(polys[1])})
    if args.kind == "compatible":
        if len(polys) < 2:
            raise UsageError("compatible takes at least two polynomials")
        verdict = compat.compatible_family_sampled(polys, unchecked=unchecked)
    else:  # conditions-ab
        verdict = compat.check_conditions_ab(polys, unchecked=unchecked)
    if verdict.is_pass:  # status PASS, but JSON names the sampled verdict
        return Report("check", params, PASS, result={"verdict": verdict.status},
                      lines=["PASS"])
    witness = verdict.witness.to_json_obj()
    return Report("check", params, FAIL, witness=witness, lines=["FAIL " + json.dumps(witness)])


# -- matrix --------------------------------------------------------------------


def _load_matrix(path: str) -> matrices.SymMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return matrices.SymMatrix.from_json(text)


def cmd_matrix(args) -> Report:
    if args.subcommand == "classify-all":
        cls = matrices.classify_all_2x2()
        counts = {"allowed": len(cls.allowed), "forbidden": len(cls.forbidden),
                  "disagreements": len(cls.disagreements)}
        lines = [", ".join(f"{name}: {count}" for name, count in counts.items())]
        lines += [f"disagreement: {M} rules={by_rules} samples={by_samples}"
                  for M, by_rules, by_samples in cls.disagreements]
        witness = [
            {"matrix": M.to_strings(), "rules": a, "samples": b}
            for M, a, b in cls.disagreements
        ]
        return Report("matrix classify-all", {}, FAIL if witness else PASS, result=counts,
                      witness=witness or None, lines=lines)
    if args.subcommand == "check":
        M = _load_matrix(args.file)
        preserves = matrices.preserves_check(M)
        ferrers = matrices.ferrers_check(M)
        return Report("matrix check", {"file": args.file}, PASS if preserves else FAIL,
                      result={"preserves": preserves, "ferrers": ferrers},
                      lines=[f"preserves: {'PASS' if preserves else 'FAIL'}, "
                             f"ferrers: {'PASS' if ferrers else 'FAIL'}"])
    if args.subcommand == "apply":
        M = _load_matrix(args.file)
        if args.polys is None:
            raise UsageError("matrix apply requires --polys")
        fs = parse_poly_list(args.polys)
        out = matrices.apply(M, fs)
        rendered = ";".join(str(p) for p in out)
        return Report("matrix apply", {"file": args.file, "polys": args.polys}, OK,
                      result=rendered, lines=[rendered])
    # closure, compared with the rule engine's allowed set (no sampled test)
    closure = matrices.generator_closure()
    allowed = {M for M in matrices.all_2x2_matrices() if matrices.forbidden_pattern(M).allowed}
    contained = closure <= allowed
    members = sorted(str(M) for M in closure)
    lines = [f"closure size: {len(closure)}",
             f"contained in allowed set: {'yes' if contained else 'NO'}",
             f"equals allowed set: {'yes' if closure == allowed else 'no'}"]
    if closure != allowed:
        missing = sorted(str(M) for M in allowed - closure)
        extra = sorted(str(M) for M in closure - allowed)
        lines.append(
            "note: the closure convention (keep only {0,1,x}-entry products) "
            f"differs from the allowed set; missing={missing} extra={extra}; "
            "the 81-case classification remains authoritative"
        )
    return Report("matrix closure", {}, PASS if contained else FAIL,
                  result={"size": len(closure), "contained": contained,
                          "equals_allowed": closure == allowed, "members": members},
                  lines=lines + members)


# -- words ---------------------------------------------------------------------


def cmd_words(args) -> Report:
    params = {"r": args.r, "n": args.n, "gamma": args.gamma, "closed": args.closed}
    budget = _budget()
    gamma = _parse_gamma(args.gamma) if args.gamma is not None else None
    if args.list:
        stream = words.enumerate_sw_gamma(args.n, args.r, gamma, args.closed, budget=budget)
        out = [str(w) for w in stream]
    elif args.closed:
        out = [str(words.oracle_local_h(args.n, args.r, budget=budget, gamma=gamma))]
    else:
        out = [str(p) for p in words.oracle_E_gamma(args.n, args.r, gamma, budget=budget)]
    return Report("words", params, OK, result=out, lines=out)


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlace",
        description="Exact ascent polynomials, root certification and "
        "interlacing-preserving matrix classification.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_edge = sub.add_parser("edgewise", help="ascent-polynomial vector by recurrence")
    p_edge.add_argument("--r", type=int, required=True)
    p_edge.add_argument("--n", type=int, required=True)
    p_edge.add_argument("--gamma", type=str, default=None,
                        help="comma-separated restriction profile")
    p_edge.add_argument("--component", type=int, default=None)
    p_edge.add_argument("--verify", action="store_true",
                        help="cross-check against the enumeration oracle")

    p_fh = sub.add_parser("fh", help="face-count / h-count transform")
    p_fh.add_argument("--f", type=str, default=None)
    p_fh.add_argument("--h", type=str, default=None)

    p_check = sub.add_parser("check", help="polynomial property checks")
    p_check.add_argument("--unchecked", action="store_true",
                         help="skip admissibility preconditions (exploration mode)")
    p_check.add_argument("kind",
                         choices=["realrooted", "interleave", "compatible", "conditions-ab"])
    p_check.add_argument("polys", nargs=argparse.REMAINDER,
                         help="polynomials in comma-coefficient format")

    p_mat = sub.add_parser("matrix", help="symbolic matrix tools")
    msub = p_mat.add_subparsers(dest="subcommand", required=True)
    msub.add_parser("classify-all")
    m_check = msub.add_parser("check")
    m_check.add_argument("file")
    m_apply = msub.add_parser("apply")
    m_apply.add_argument("file")
    m_apply.add_argument("--polys", type=str, default=None,
                         help="semicolon-separated polynomials")
    msub.add_parser("closure")

    p_words = sub.add_parser("words", help="enumeration oracles")
    p_words.add_argument("--r", type=int, required=True)
    p_words.add_argument("--n", type=int, required=True)
    p_words.add_argument("--gamma", type=str, default=None)
    p_words.add_argument("--closed", action="store_true")
    p_words.add_argument("--list", action="store_true", help="list the words themselves")

    return parser


_HANDLERS = {
    "edgewise": cmd_edgewise,
    "fh": cmd_fh,
    "check": cmd_check,
    "matrix": cmd_matrix,
    "words": cmd_words,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import; parse_args keeps no
    # state between calls, so every later call reuses it
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args).render(args.json)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterlaceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of interlace itself, not of the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "subcommand", "json")}
        return Report(command, params, ERROR).render(args.json)


if __name__ == "__main__":
    raise SystemExit(main())
