"""Deterministic command-line front end.

Subcommands: check, strings, classify, logical, algebra, scan.  Every
run writes a single JSON report (schema version "1") to stdout with
stable key order and no timestamps, so identical inputs produce byte
identical reports.  Exit codes: 0 all asserted properties hold, 1 a
checked property failed, 2 usage error.  Each command line is parsed
once: a line in canonical form (the subcommand, then ``--option value``
pairs and bare flags, every option string in full) by one pass over a
table of the subcommand parser's own actions, any other line by that
parser.  argparse stays for those lines because it writes the help text
and every usage error, byte for byte.  Each container of the report
formats its scalar members in place.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classify as classify_mod
from . import conditions, oracle
from .algebra import PowerTable, verify_commutation_law
from .codes import CodeParams, check_dims, load_params, verify_translation_commutation
from .logical import (
    InvalidCodeError,
    TorusCode,
    commutation_table,
    encoded_qudit_count,
    encoded_qudit_table,
    plane_census,
)

SCHEMA_VERSION = "1"


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}") from None
    return (a, b)


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        x, y, z = (int(v) for v in text.split("x" if "x" in text else ","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'LxLyLz' like 4x4x3, got {text!r}") from None
    return (x, y, z)


def _add_code_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", metavar="FILE",
                     help="JSON parameter file with p, alpha..delta, parity")
    sub.add_argument("--p", type=int, help="prime modulus")
    sub.add_argument("--alpha", type=_parse_pair, metavar="a1,a2")
    sub.add_argument("--beta", type=_parse_pair, metavar="b1,b2")
    sub.add_argument("--gamma", type=_parse_pair, metavar="c1,c2")
    sub.add_argument("--delta", type=_parse_pair, metavar="d1,d2")
    sub.add_argument("--parity", choices=("S", "A"), default=None)


def _resolve_code(args, parser: argparse.ArgumentParser) -> CodeParams:
    if args.params is not None:
        inline = [f"--{n}" for n in ("p", "alpha", "beta", "gamma", "delta")
                  if getattr(args, n) is not None]
        if inline:
            parser.error(f"--params cannot be combined with {', '.join(inline)} "
                         f"(only --parity may override the file)")
        code = load_params(args.params)
        if args.parity:
            code = code.with_parity(args.parity)
        return code
    missing = [n for n in ("p", "alpha", "beta", "gamma", "delta")
               if getattr(args, n) is None]
    if missing:
        parser.error(f"need --params or all of --p/--alpha/--beta/--gamma/--delta "
                     f"(missing: {', '.join(missing)})")
    try:
        return CodeParams(args.p, args.alpha, args.beta, args.gamma, args.delta,
                          args.parity or "S")
    except ValueError as e:
        parser.error(str(e))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(prog="qupitcube",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="generator consistency and the three "
                                           "no-string conditions")
    _add_code_arguments(p_check)

    p_strings = sub.add_parser("strings", help="segment-solver scan over widths")
    _add_code_arguments(p_strings)
    p_strings.add_argument("--wmax", type=int, default=4)
    p_strings.add_argument("--lmax", type=int, default=None,
                           help="length horizon (default 2w+4 per width)")
    p_strings.add_argument("--kind", choices=("flat", "cornered", "both"), default="both")
    p_strings.add_argument("--expect-no-string", action="store_true",
                           help="fail (exit 1) if any nontrivial length exceeds 2w")

    p_classify = sub.add_parser("classify", help="orbit classification at a modulus")
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--parity", choices=("S", "A"), default="S")

    p_logical = sub.add_parser("logical", help="planar census and encoded-qudit count")
    _add_code_arguments(p_logical)
    p_logical.add_argument("--dims", type=_parse_dims, required=True, metavar="LxLyLz")
    p_logical.add_argument("--ktable", type=int, default=0, metavar="LMAX",
                           help="also tabulate k over all tori with sides 2..LMAX "
                                "(LMAX >= 2; 0, the default, is off)")

    p_algebra = sub.add_parser("algebra", help="exact phase-algebra identity checks")
    _add_code_arguments(p_algebra)
    p_algebra.add_argument("--dims", type=_parse_dims, default=(2, 2, 2), metavar="LxLyLz",
                           help="checked and echoed only; no torus changes a verdict")
    p_algebra.add_argument("--r", type=int, default=1, help="syndrome label to conjugate")
    p_algebra.add_argument("--allow-large", action="store_true",
                           help="accepted and ignored: the operator-sum size guard "
                                "it lifted is gone")

    p_scan = sub.add_parser("scan", help="whole parameter space at a modulus")
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--oracle-wmax", type=int, default=2,
                        help="width horizon for solver-verified candidates")

    parser.subcommands = sub.choices  # name -> subcommand parser, for main
    parser.option_tables = {name: _option_table(s) for name, s in sub.choices.items()}
    return parser


def _option_table(sub: argparse.ArgumentParser) -> tuple[dict, dict, list]:
    """What the table pass of ``main`` reads off a subcommand's parser: each
    option string of a one-value store or a store-const action mapped to
    that action (``-h`` is left out, so help goes to argparse), the
    actions' defaults, and the actions a line must name.  ``test_cli`` holds it to argparse on a drawn
    corpus, so a parser feature it does not read shows there."""
    options = {s: a for a in sub._actions for s in a.option_strings
               if (type(a) is argparse._StoreAction and a.nargs is None)
               or isinstance(a, argparse._StoreConstAction)}
    actions = dict.fromkeys(options.values())
    return options, {a.dest: a.default for a in actions}, [a for a in actions if a.required]


def _read_table(table: tuple[dict, dict, list], argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``sub.parse_known_args(argv[1:], Namespace(command=argv[0]))``
    returns when ``argv[1:]`` is a run of exact option strings from the
    table, each value-taking one followed by a value that does not start
    with "-", that type-converts and lies among the choices, with every
    required option given; None for any other line."""
    options, defaults, required = table
    values = {"command": argv[0], **defaults}
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        action = options.get(argv[i])
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        else:
            if i + 1 == n or argv[i + 1].startswith("-"):
                return None
            try:
                value = action.type(argv[i + 1]) if action.type else argv[i + 1]
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            i += 2
        seen.add(action)
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**values)


def _report(command: str, options: dict, results: dict,
            discrepancies: list, ok: bool, params: CodeParams | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "options": options,
        "params": params.as_dict() if params is not None else None,
        "results": results,
        "discrepancies": discrepancies,
        "status": "ok" if ok else "violation",
    }


_escape = json.encoder.encode_basestring_ascii


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, the json module of CPython 3.12 and earlier
    drops its C encoder and passes every token up one generator per
    level of nesting; this builds each container's text with one join.
    A container formats its int, str, bool and None children in place,
    so only a container child, or a type it cannot write, takes another
    call.  It takes the types a report holds: dicts with str keys, lists,
    tuples, str, int, bool and None.  Anything else (a float, a numpy
    scalar, a set) raises TypeError.

    On a 2-core x86_64 VM this writes the 134 reports of the benchmark's
    verdicts ops 11-15 % faster than one call per value.  A flat list of
    every token, joined once, was 7-15 % faster again, but it holds each
    token as its own string: ``classify --p 19`` peaked at 158 MB, not 111.
    """
    t = type(value)
    if t is not dict and t is not list and t is not tuple:
        if t is str:
            return _escape(value)
        if t is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if t is bool:
            return "true" if value else "false"
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not value:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    sep = "," + inner
    if t is dict:
        body = sep.join([f"""{_escape(k)}: {
            v if (tv := type(v)) is int else _escape(v) if tv is str
            else ('true' if v else 'false') if tv is bool else 'null' if v is None
            else _dumps(v, inner)}""" for k, v in sorted(value.items())])
        return f"{{{inner}{body}{indent}}}"
    body = sep.join([
        f"{v}" if (tv := type(v)) is int else _escape(v) if tv is str
        else ("true" if v else "false") if tv is bool else "null" if v is None
        else _dumps(v, inner) for v in value])
    return f"[{inner}{body}{indent}]"


def _emit(report: dict) -> int:
    sys.stdout.write(_dumps(report) + "\n")
    return 0 if report["status"] == "ok" else 1


def cmd_check(args, parser) -> int:
    code = _resolve_code(args, parser)
    bad = verify_translation_commutation(code)
    rpt = conditions.theorem1_report(code)
    corner = conditions.corner_determinant_check(code) if rpt.deformability else None
    discrepancies = list(rpt.discrepancies)
    if corner is not None and not corner["match"]:
        discrepancies.append({"kind": "corner-determinant-mismatch", **corner})
    results = {
        "translation_commutation": {
            "consistent": not bad,
            "violations": [{"offset": list(o), "exponent": e} for o, e in bad],
        },
        "theorem1": rpt.as_dict(),
        "corner_determinant": corner,
    }
    ok = not bad
    return _emit(_report("check", {"parity": code.parity}, results, discrepancies, ok, code))


def cmd_strings(args, parser) -> int:
    code = _resolve_code(args, parser)
    oracle.check_scan_bounds(args.wmax, args.lmax)
    kinds = ("flat", "cornered") if args.kind == "both" else (args.kind,)
    results = {"widths": {}}
    exceeded = []
    reports = oracle.scan_widths(code, range(1, args.wmax + 1), l_max=args.lmax, kinds=kinds)
    for w, by_kind in reports.items():
        per_kind = {}
        for kind, rpt in by_kind.items():
            per_kind[kind] = rpt.as_dict()
            if rpt.max_nontrivial_length is not None and rpt.max_nontrivial_length > 2 * w:
                exceeded.append({"width": w, "kind": kind,
                                 "length": rpt.max_nontrivial_length})
        results["widths"][str(w)] = per_kind
    results["bound_2w_exceeded"] = exceeded
    ok = not (args.expect_no_string and exceeded)
    opts = {"wmax": args.wmax, "lmax": args.lmax, "kind": args.kind,
            "expect_no_string": bool(args.expect_no_string)}
    return _emit(_report("strings", opts, results, [], ok, code))


def cmd_classify(args, parser) -> int:
    results = classify_mod.classify_orbits(args.p, args.parity)
    opts = {"p": args.p, "parity": args.parity}
    return _emit(_report("classify", opts, results, [], True))


def cmd_logical(args, parser) -> int:
    code = _resolve_code(args, parser)
    if args.ktable < 0 or args.ktable == 1:
        raise ValueError(f"--ktable must be 0 (off) or >= 2, got {args.ktable}")
    torus = TorusCode(code, args.dims)
    try:
        k = encoded_qudit_count(torus)
    except InvalidCodeError:
        k = None
    abelian = k is not None
    results: dict = {"dims": list(args.dims), "abelian": abelian}
    ok = abelian
    if abelian:
        # the product of all generators holds the sum of the eight labels on every site
        identity = not (torus.labels.sum(0) % code.p).any()
        census = plane_census(torus)
        tables = {name: commutation_table(ops, code.p).tolist()
                  for name, (_, ops) in census.items()}
        results.update({
            "census": {name: entry for name, (entry, _) in census.items()},
            "encoded_qudits": k,
            "product_of_all_generators_identity": identity,
            "commutation_tables": tables,
        })
        if args.ktable:
            table = encoded_qudit_table(code, sizes=range(2, args.ktable + 1))
            results["k_table"] = {"x".join(map(str, dims)): kk
                                  for dims, kk in sorted(table.items())}
        if code.parity == "A":
            ok = ok and identity and k >= 1
    opts = {"dims": list(args.dims), "ktable": args.ktable}
    return _emit(_report("logical", opts, results, [], ok, code))


def cmd_algebra(args, parser) -> int:
    code = _resolve_code(args, parser)
    dims = check_dims(args.dims)
    law = verify_commutation_law(code.p)
    table = PowerTable(code)
    proj = table.projector_identities()
    inv = table.inversion_action(args.r)
    results = {
        "commutation_law": law,
        "projectors": proj,
        "inversion_action": inv,
    }
    ok = law and all(proj.values()) and inv["matches"]
    opts = {"dims": list(dims), "r": args.r}
    return _emit(_report("algebra", opts, results, [], ok, code))


def cmd_scan(args, parser) -> int:
    oracle.check_scan_bounds(args.oracle_wmax)
    orbits = classify_mod.classify_orbits(args.p, "S")
    results = {
        "deformable_count": orbits["deformable_count"],
        "orbit_count": orbits["orbit_count"],
        "orbits": orbits["orbits"],
    }
    if orbits["deformable_count"]:
        results["theorem1_scan"] = classify_mod.scan_theorem1(
            orbits, oracle_wmax=args.oracle_wmax)
    discrepancies = []
    for entry in orbits["orbits"]:
        discrepancies.extend(entry["theorem1"]["discrepancies"])
    opts = {"p": args.p, "oracle_wmax": args.oracle_wmax}
    return _emit(_report("scan", opts, results, discrepancies, True))


COMMANDS = {
    "check": cmd_check,
    "strings": cmd_strings,
    "classify": cmd_classify,
    "logical": cmd_logical,
    "algebra": cmd_algebra,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    """Parse the command line once and run its subcommand.

    When the first argument names a subcommand, ``_read_table`` reads the
    rest off that subcommand's option table: exact option strings, each
    with its value, in one loop.  It builds the namespace argparse would
    build.  Anything else goes to the subcommand's parser, unchanged:
    ``-h``, an abbreviation, ``--p=3``, ``--``, a stray word, a value that
    is missing, starts with "-", fails its type or lies outside its
    choices, and a missing required option.  So argparse writes every help
    text and usage error, and leftovers get the top-level error, as in
    ``parse_args``.  Errors the command finds after parsing are usage
    errors of the subcommand, reported under its usage line, as argparse
    reports the errors it finds.

    On a 2-core x86_64 VM (Python 3.11, best of 2,000 calls in process)
    the table reads a d5 ``check --parity A`` line in 7 us, where
    ``parse_known_args`` takes 33 us, and the whole call takes 109-112 us
    against 142-152 us with argparse reading every line.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
        sub = parser.subcommands[args.command]
    elif (args := _read_table(parser.option_tables[argv[0]], argv)) is None:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return COMMANDS[args.command](args, sub)
    except (ValueError, OSError) as e:
        sub.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
