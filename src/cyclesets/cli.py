"""Command-line surface: verify, convert, enumerate, count, classify, iso,
aut, retract, cable, deform, oracle, brace.

Each command reads its input (an --in document; for verify and convert, also
the family document that the --family/--p/--phi/--s/--alpha flags spell),
computes everything, and hands its records to one writer, which opens --out
(or stdout) only then.  Data goes to the output stream, diagnostics to the
error stream.  Exit codes: 0 success, 1 validation failure (first witness
printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import fields

from .brace import build_perm_brace, verify_brace
from .classify import automorphisms, classify_size_p2, enumerate_classes, iso_cycle_sets
from .counting import count_formula, count_has_more_digits, is_prime
from .cycleset import CycleSet, assert_valid, check_cycle_set, multipermutation_level, retraction
from .families import cable, deform, params_from_dict, params_to_dict, to_cycle_set
from .jsonio import (
    brace_to_dict, count_report_to_dict, cycle_set_to_dict, dump_line, load_document, solution_to_dict
)
from .oracle import SearchOptions, enumerate_cycle_sets
from .solutions import Solution, check_solution, from_solution, to_solution


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _render_rows(rows) -> str:
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows)


def _write(args, *records) -> None:
    """Write a command's records, opening --out only once all are computed.

    A cycle set or solution is written as its document, or as its rows under
    --format table; family parameters as their document; a dict as it is.
    """
    table = getattr(args, "format", "json") == "table"
    to_stdout = args.out in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(args.out, "w", encoding="utf-8") as out:
        for rec in records:
            if table and isinstance(rec, CycleSet):
                out.write(_render_rows(rec.table) + "\n")
            elif table and isinstance(rec, Solution):
                out.write("lam:\n" + _render_rows(rec.lam) + "\nrho:\n" + _render_rows(rec.rho) + "\n")
            elif isinstance(rec, CycleSet):
                dump_line(cycle_set_to_dict(rec), out)
            elif isinstance(rec, Solution):
                dump_line(solution_to_dict(rec), out)
            else:
                dump_line(rec if isinstance(rec, dict) else params_to_dict(rec), out)


def _cycle_set_of(obj) -> CycleSet:
    """A document as a cycle set: solutions and family parameters are converted."""
    if isinstance(obj, Solution):
        return from_solution(obj)
    return obj if isinstance(obj, CycleSet) else to_cycle_set(obj)


def _input_object(args, parser: argparse.ArgumentParser):
    """The --in document, or the family document the flags spell."""
    if args.infile is not None:
        return load_document(args.infile)
    if args.family in (None, "all"):
        parser.error("need --in FILE or family flags (--family/--p/...)")
    if args.p is None:
        parser.error("--family needs --p")
    if args.family != "cyclic" and args.phi is None:
        parser.error(f"--family {args.family} needs --phi")
    doc = {
        "family": args.family, "p": args.p, "m": args.p, "a_invariants": [args.p], "phi": args.phi, "s": args.s or 0
    }
    return params_from_dict(doc if args.alpha is None else {**doc, "alpha": args.alpha})


# the message naming each check's witness, keyed by the report's ``<check>_ok`` field
_WITNESS = {
    "square_law_ok": "square law fails at (x, y, z) = {}",
    "rows_bijective_ok": "row {} is not a permutation",
    "diagonal_bijective_ok": "diagonal collides at (x, y) = {}",
    "nondegenerate_ok": "nondegeneracy fails: {0[0]} row {0[1]} is not a permutation",
    "involutive_ok": "involutivity fails at (x, y) = {}",
    "braiding_ok": "braid relation fails at (x, y, z) = {}",
}


def cmd_verify(args, parser) -> int:
    obj = _input_object(args, parser)
    if isinstance(obj, Solution):
        label, report = "solution", check_solution(obj)
    else:
        label = "cycle_set" if isinstance(obj, CycleSet) else "family"
        obj = _cycle_set_of(obj)  # constructors raise on bad parameters
        report = check_cycle_set(obj)
    oks = {f.name: getattr(report, f.name) for f in fields(report) if f.name in _WITNESS}
    _write(args, {"kind": "verify_report", "object": label, "n": obj.n, "ok": report.ok, **oks})
    failed = [name for name, ok in oks.items() if not ok]  # in the order the report lists its checks
    if failed:
        witness = getattr(report, failed[0].removesuffix("_ok") + "_witness")
        print(_WITNESS[failed[0]].format(witness), file=sys.stderr)
    return 1 if failed else 0


def cmd_convert(args, parser) -> None:
    obj = _input_object(args, parser)
    _write(args, to_solution(obj) if isinstance(obj, CycleSet) else _cycle_set_of(obj))


def _class_budget(text: str) -> int:
    """The --budget of enumerate: a whole, non-negative number of classes."""
    if not text.isdecimal():
        raise ValueError(f"--budget takes a non-negative whole number of classes, not {text!r}")
    return int(text)


def cmd_enumerate(args, parser) -> None:
    bound = {} if args.budget is None else {"bound": _class_budget(args.budget)}
    classes = enumerate_classes(args.p, family=args.family or "all", **bound)
    _write(args, *classes)
    print(f"{len(classes)} classes", file=sys.stderr)


def _largest_printable_prime(limit: int) -> int:
    """Largest prime whose class counts have at most ``limit`` decimal digits."""
    best, q = 2, 3
    while count_formula(q).total < 10**limit:
        best = q
        q += 2
        while not is_prime(q):
            q += 2
    return best


def cmd_count(args, parser) -> None:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # the digit bound comes first: count_formula runs for ever at a huge p
    report = None if limit and count_has_more_digits(args.p, limit) else count_formula(args.p)
    if report is None or (limit and report.total >= 10**limit):
        raise ValueError(
            f"the counts at p = {args.p} are too long to print (over {limit} digits); "
            f"the largest supported p is {_largest_printable_prime(limit)}"
        )
    _write(args, count_report_to_dict(report))


def cmd_classify(args, parser) -> None:
    _write(args, classify_size_p2(_cycle_set_of(load_document(args.infile))))


def cmd_iso(args, parser) -> None:
    a, b = (_cycle_set_of(load_document(path)) for path in args.infile)
    perm = iso_cycle_sets(a, b)
    _write(args, {"isomorphic": perm is not None, "map": list(perm) if perm else None})


def cmd_aut(args, parser) -> None:
    cs = _cycle_set_of(load_document(args.infile))
    auts = automorphisms(cs)
    _write(args, {"kind": "automorphisms", "n": cs.n, "count": len(auts), "maps": [list(a) for a in auts]})


def cmd_retract(args, parser) -> None:
    cs = assert_valid(_cycle_set_of(load_document(args.infile)))
    ret, proj = retraction(cs)
    print(f"projection: {list(proj)}", file=sys.stderr)
    print(f"multipermutation level: {multipermutation_level(cs)}", file=sys.stderr)
    _write(args, ret)


def cmd_cable(args, parser) -> None:
    _write(args, cable(_cycle_set_of(load_document(args.infile)), args.k))


def cmd_deform(args, parser) -> None:
    if args.phi is None:
        parser.error("deform needs --phi (permutation as image list)")
    _write(args, deform(_cycle_set_of(load_document(args.infile)), args.phi))


def cmd_oracle(args, parser) -> None:
    opts = SearchOptions(
        n=args.n, indecomposable_only=args.indecomposable, irretractable_only=args.irretractable,
        time_budget=args.budget, jobs=args.jobs,
    )
    result = enumerate_cycle_sets(opts)
    summary = {"classes": len(result.classes), "complete": result.complete, "elapsed": round(result.elapsed, 3)}
    _write(args, *result.classes, summary)


def cmd_brace(args, parser) -> None:
    brace = build_perm_brace(_cycle_set_of(load_document(args.infile)))
    doc = brace_to_dict(brace)  # refuses an oversized brace; its order^2 tables cost more than the check
    verify_brace(brace)
    _write(args, doc)


def _add_common(sub: argparse.ArgumentParser, *, infile=None, many_in=False) -> None:
    if many_in:
        sub.add_argument("--in", dest="infile", nargs=2, metavar="FILE", required=True)
    elif infile is not None:
        sub.add_argument("--in", dest="infile", metavar="FILE", required=infile == "required")
    sub.add_argument("--out", default=None, metavar="FILE", help="output path or - for stdout")


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="json")


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("cyclic", "mpl2", "irr", "all"))
    sub.add_argument("--p", type=int)
    sub.add_argument("--phi", type=_parse_ints)
    sub.add_argument("--s", type=int)
    sub.add_argument("--alpha", type=int)


@functools.cache  # built on first use, so importing the module stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclesets")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("verify", help="validate a cycle set, solution, or family document")
    _add_common(sub, infile="optional")
    _add_family_flags(sub)
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("convert", help="cycle set <-> solution, family -> cycle set")
    _add_common(sub, infile="optional")
    _add_format(sub)
    _add_family_flags(sub)
    sub.set_defaults(func=cmd_convert)

    sub = commands.add_parser("enumerate", help="stream one parameter document per class")
    _add_common(sub)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--family", choices=("cyclic", "mpl2", "irr", "all"), default="all")
    sub.add_argument("--budget", help="refuse runs with more classes than this")
    sub.set_defaults(func=cmd_enumerate)

    sub = commands.add_parser("count", help="closed-form class counts for a prime")
    _add_common(sub)
    sub.add_argument("--p", type=int, required=True)
    sub.set_defaults(func=cmd_count)

    sub = commands.add_parser("classify", help="match a size-p^2 cycle set to its family parameters")
    _add_common(sub, infile="required")
    sub.set_defaults(func=cmd_classify)

    sub = commands.add_parser("iso", help="isomorphism test between two inputs")
    _add_common(sub, many_in=True)
    sub.set_defaults(func=cmd_iso)

    sub = commands.add_parser("aut", help="automorphism group of a cycle set")
    _add_common(sub, infile="required")
    sub.set_defaults(func=cmd_aut)

    sub = commands.add_parser("retract", help="retraction of a cycle set")
    _add_common(sub, infile="required")
    _add_format(sub)
    sub.set_defaults(func=cmd_retract)

    sub = commands.add_parser("cable", help="replace each row by its k-th additive power")
    _add_common(sub, infile="required")
    _add_format(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.set_defaults(func=cmd_cable)

    sub = commands.add_parser("deform", help="twist the table by an automorphism")
    _add_common(sub, infile="required")
    _add_format(sub)
    sub.add_argument("--phi", type=_parse_ints, help="permutation as comma-separated images")
    sub.set_defaults(func=cmd_deform)

    sub = commands.add_parser("oracle", help="brute-force census of all cycle sets of size n")
    _add_common(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--budget", type=float, help="time budget in seconds")
    sub.add_argument("--indecomposable", action="store_true")
    sub.add_argument("--irretractable", action="store_true")
    sub.add_argument("--jobs", type=int, default=1)
    sub.set_defaults(func=cmd_oracle)

    sub = commands.add_parser("brace", help="build and dump the permutation brace of a cycle set")
    _add_common(sub, infile="required")
    sub.set_defaults(func=cmd_brace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args, parser) or 0
    except SystemExit as exc:  # parser.error inside a command
        return 0 if exc.code in (0, None) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
