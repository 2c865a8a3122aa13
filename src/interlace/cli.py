"""Command-line interface.

One binary with subcommands; every verdict is printable as stable JSON with
``--json``.  Exit codes: 0 success/PASS, 1 property failure (machine-readable
witness on stdout), 2 usage or parse error (message on stderr), 3 internal
error (message on stderr; status ERROR under ``--json``).

Polynomials on the command line use the ascending-coefficient comma format
("0,1,1" is x + x^2); semicolons separate polynomials in sequence arguments.
The INTERLACE_BUDGET environment variable caps enumeration sizes
(default 10^8 words).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import compat, edgewise, matrices, words
from .errors import InterlaceError
from .polys import Poly, parse_poly_list
from .realroots import interleaves, is_real_rooted, isolate_roots
from .words import DEFAULT_BUDGET, GammaVector

PASS, FAIL, OK, ERROR = "PASS", "FAIL", "OK", "ERROR"


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


def _emit(args, command: str, params: dict, status: str, result=None, witness=None) -> int:
    if args.json:
        obj = {"command": command, "params": params, "status": status}
        if result is not None:
            obj["result"] = result
        if witness is not None:
            obj["witness"] = witness
        print(json.dumps(obj))
    return 0 if status in (PASS, OK) else 1


# -- edgewise ------------------------------------------------------------------


def cmd_edgewise(args) -> int:
    params = {"r": args.r, "n": args.n, "gamma": args.gamma, "component": args.component}
    if args.component is not None and not 0 <= args.component < args.r:
        raise UsageError(f"component must be in [0, {args.r - 1}]")
    if args.gamma is not None:
        gamma = _parse_gamma(args.gamma)
        vec = edgewise.e_gamma(args.r, args.n, gamma)
        oracle = lambda: words.oracle_E_gamma(args.n, args.r, gamma, budget=_budget())
    else:
        vec = edgewise.e_vector(args.r, args.n)
        oracle = lambda: words.oracle_E(args.n, args.r, budget=_budget())
    if args.verify:
        expected = oracle()
        for i, (got, want) in enumerate(zip(vec.polys, expected)):
            if got != want:
                witness = {"component": i, "recurrence": str(got), "enumeration": str(want)}
                if not args.json:
                    print(f"MISMATCH component {i}: recurrence {got}, enumeration {want}")
                return _emit(args, "edgewise", params, FAIL, witness=witness)
    if args.component is not None:
        out = str(vec.polys[args.component])
        if not args.json:
            print(out)
        return _emit(args, "edgewise", params, PASS if args.verify else OK, result=out)
    out = [str(p) for p in vec.polys]
    if not args.json:
        for line in out:
            print(line)
    return _emit(args, "edgewise", params, PASS if args.verify else OK, result=out)


def cmd_fh(args) -> int:
    if (args.f is None) == (args.h is None):
        raise UsageError("exactly one of --f or --h is required")
    try:
        if args.f is not None:
            entries = tuple(int(v) for v in args.f.split(","))
            out = edgewise.fh_transform(edgewise.FVector(entries)).entries
            params = {"f": list(entries)}
        else:
            entries = tuple(int(v) for v in args.h.split(","))
            out = edgewise.hf_transform(edgewise.HVector(entries)).entries
            params = {"h": list(entries)}
    except ValueError as exc:
        raise UsageError(f"cannot parse vector: {exc}") from exc
    rendered = ",".join(str(v) for v in out)
    if not args.json:
        print(rendered)
    return _emit(args, "fh", params, OK, result=rendered)


# -- check ---------------------------------------------------------------------


def _parse_check_polys(raw: list[str]) -> list[Poly]:
    if not raw:
        raise UsageError("at least one polynomial is required")
    return [Poly.from_string(p) for p in raw]


def cmd_check(args) -> int:
    # the polynomials are argparse.REMAINDER (so that "-2,0,1" is not read as
    # an option), which also swallows a --unchecked written after the kind
    raw = [p for p in args.polys if p != "--unchecked"]
    unchecked = args.unchecked or len(raw) < len(args.polys)
    polys = _parse_check_polys(raw)
    params = {"kind": args.kind, "polys": [str(p) for p in polys]}
    if args.kind == "realrooted":
        certificates = []
        for p in polys:
            if not is_real_rooted(p):
                if not args.json:
                    print("FAIL")
                return _emit(args, "check", params, FAIL, witness={"poly": str(p)})
            certificates.append(None if p.is_zero else isolate_roots(p).to_json_obj())
        if not args.json:
            print("PASS")
        return _emit(args, "check", params, PASS, result={"certificates": certificates})
    if args.kind == "interleave":
        if len(polys) != 2:
            raise UsageError("interleave takes exactly two polynomials")
        ok = interleaves(polys[0], polys[1])
        if not args.json:
            print("PASS" if ok else "FAIL")
        return _emit(args, "check", params, PASS if ok else FAIL,
                     witness=None if ok else {"f": str(polys[0]), "g": str(polys[1])})
    if args.kind == "compatible":
        if len(polys) < 2:
            raise UsageError("compatible takes at least two polynomials")
        verdict = compat.compatible_family_sampled(polys, unchecked=unchecked)
    else:  # conditions-ab
        verdict = compat.check_conditions_ab(polys, unchecked=unchecked)
    if verdict.is_pass:
        if not args.json:
            print("PASS")
        return _emit(args, "check", params, PASS)
    witness = verdict.witness.to_json_obj()
    if not args.json:
        print("FAIL " + json.dumps(witness))
    return _emit(args, "check", params, FAIL, witness=witness)


# -- matrix --------------------------------------------------------------------


def _load_matrix(path: str) -> matrices.SymMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return matrices.SymMatrix.from_json(text)


def cmd_matrix(args) -> int:
    if args.subcommand == "classify-all":
        cls = matrices.classify_all_2x2()
        summary = (
            f"allowed: {len(cls.allowed)}, forbidden: {len(cls.forbidden)}, "
            f"disagreements: {len(cls.disagreements)}"
        )
        if not args.json:
            print(summary)
            for M, by_rules, by_samples in cls.disagreements:
                print(f"disagreement: {M} rules={by_rules} samples={by_samples}")
        status = PASS if not cls.disagreements else FAIL
        witness = None
        if cls.disagreements:
            witness = [
                {"matrix": M.to_strings(), "rules": a, "samples": b}
                for M, a, b in cls.disagreements
            ]
        return _emit(args, "matrix classify-all", {}, status,
                     result={"allowed": len(cls.allowed), "forbidden": len(cls.forbidden),
                             "disagreements": len(cls.disagreements)},
                     witness=witness)
    if args.subcommand == "check":
        M = _load_matrix(args.file)
        preserves = matrices.preserves_check(M)
        ferrers = matrices.ferrers_check(M)
        if not args.json:
            print(f"preserves: {'PASS' if preserves else 'FAIL'}, "
                  f"ferrers: {'PASS' if ferrers else 'FAIL'}")
        return _emit(args, "matrix check", {"file": args.file},
                     PASS if preserves else FAIL,
                     result={"preserves": preserves, "ferrers": ferrers})
    if args.subcommand == "apply":
        M = _load_matrix(args.file)
        if args.polys is None:
            raise UsageError("matrix apply requires --polys")
        fs = parse_poly_list(args.polys)
        out = matrices.apply(M, fs)
        rendered = ";".join(str(p) for p in out)
        if not args.json:
            print(rendered)
        return _emit(args, "matrix apply", {"file": args.file, "polys": args.polys},
                     OK, result=rendered)
    # closure
    closure = matrices.generator_closure()
    cls = matrices.classify_all_2x2()
    allowed = set(cls.allowed)
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
    if not args.json:
        for line in lines:
            print(line)
        for m in members:
            print(m)
    return _emit(args, "matrix closure", {}, PASS if contained else FAIL,
                 result={"size": len(closure), "contained": contained,
                         "equals_allowed": closure == allowed, "members": members})


# -- words ---------------------------------------------------------------------


def cmd_words(args) -> int:
    params = {"r": args.r, "n": args.n, "gamma": args.gamma, "closed": args.closed}
    budget = _budget()
    gamma = _parse_gamma(args.gamma) if args.gamma is not None else None
    if args.list:
        if gamma is not None:
            stream = words.enumerate_sw_gamma(args.n, args.r, gamma, args.closed, budget=budget)
        else:
            stream = words.enumerate_sw_prime(args.n, args.r, budget=budget)
        out = []
        for w in stream:
            if args.closed and gamma is None and w.letters[-1] != 0:
                continue
            out.append(str(w))
        if not args.json:
            for line in out:
                print(line)
        return _emit(args, "words", params, OK, result=out)
    if gamma is not None:
        polys = words.oracle_E_gamma(args.n, args.r, gamma, budget=budget)
        if args.closed:
            polys = [polys[0]]
    elif args.closed:
        polys = [words.oracle_local_h(args.n, args.r, budget=budget)]
    else:
        polys = words.oracle_E(args.n, args.r, budget=budget)
    out = [str(p) for p in polys]
    if not args.json:
        for line in out:
            print(line)
    return _emit(args, "words", params, OK, result=out)


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterlaceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of interlace itself, not of the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.json:
            command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "subcommand", "json")}
            print(json.dumps({"command": command, "params": params, "status": ERROR}))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
