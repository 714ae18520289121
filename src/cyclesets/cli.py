"""Command-line surface: verify, convert, enumerate, count, classify, iso,
aut, retract, cable, deform, oracle, brace.

Data goes to the output stream, diagnostics to the error stream.  Exit codes:
0 success, 1 validation failure (first witness printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .brace import build_perm_brace, verify_brace
from .classify import automorphisms, classify_size_p2, enumerate_classes, iso_cycle_sets
from .counting import count_formula, count_has_more_digits, is_prime
from .cycleset import CycleSet, check_cycle_set, multipermutation_level, retraction
from .families import (
    CyclicParams,
    IrrParams,
    cable,
    deform,
    mpl2_params,
    params_to_dict,
    to_cycle_set,
)
from .jsonio import (
    brace_to_dict,
    count_report_to_dict,
    cycle_set_to_dict,
    dump_line,
    load_document,
    solution_to_dict,
)
from .oracle import SearchOptions, enumerate_cycle_sets
from .solutions import Solution, check_solution, from_solution, to_solution


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _render_rows(rows) -> str:
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows)


def _emit_cycle_set(cs: CycleSet, args) -> None:
    with _out_stream(args.out) as out:
        if args.format == "table":
            out.write(_render_rows(cs.table) + "\n")
        else:
            dump_line(cycle_set_to_dict(cs), out)


def _cycle_set_of(obj) -> CycleSet:
    """A document as a cycle set: solutions and family parameters are converted."""
    if isinstance(obj, Solution):
        return from_solution(obj)
    return obj if isinstance(obj, CycleSet) else to_cycle_set(obj)


def _input_object(args, parser: argparse.ArgumentParser):
    if args.infile is not None:
        return load_document(args.infile)
    if args.family in (None, "all"):
        parser.error("need --in FILE or family flags (--family/--p/...)")
    if args.p is None:
        parser.error("--family needs --p")
    if args.family == "cyclic":
        return CyclicParams(args.p)
    if args.phi is None:
        parser.error(f"--family {args.family} needs --phi")
    if args.family == "mpl2":
        return mpl2_params(args.p, (args.p,), args.phi, args.s or 0)
    return IrrParams(args.p, args.phi, args.alpha or 1)


def _cycle_set_witness(report) -> str | None:
    if not report.square_law_ok:
        return f"square law fails at (x, y, z) = {report.square_law_witness}"
    if not report.rows_bijective_ok:
        return f"row {report.rows_bijective_witness} is not a permutation"
    if not report.diagonal_bijective_ok:
        return f"diagonal collides at (x, y) = {report.diagonal_bijective_witness}"
    return None


def _solution_witness(report) -> str | None:
    if not report.nondegenerate_ok:
        which, row = report.nondegenerate_witness
        return f"nondegeneracy fails: {which} row {row} is not a permutation"
    if not report.involutive_ok:
        return f"involutivity fails at (x, y) = {report.involutive_witness}"
    if not report.braiding_ok:
        return f"braid relation fails at (x, y, z) = {report.braiding_witness}"
    return None


def cmd_verify(args, parser) -> int:
    obj = _input_object(args, parser)
    if isinstance(obj, Solution):
        report = check_solution(obj)
        doc = {
            "kind": "verify_report",
            "object": "solution",
            "n": obj.n,
            "ok": report.ok,
            "nondegenerate_ok": report.nondegenerate_ok,
            "involutive_ok": report.involutive_ok,
            "braiding_ok": report.braiding_ok,
        }
        witness = _solution_witness(report)
    else:
        label = "cycle_set"
        if not isinstance(obj, CycleSet):
            label = "family"
            obj = to_cycle_set(obj)  # constructors raise on bad parameters
        report = check_cycle_set(obj)
        doc = {
            "kind": "verify_report",
            "object": label,
            "n": obj.n,
            "ok": report.ok,
            "square_law_ok": report.square_law_ok,
            "rows_bijective_ok": report.rows_bijective_ok,
            "diagonal_bijective_ok": report.diagonal_bijective_ok,
        }
        witness = _cycle_set_witness(report)
    with _out_stream(args.out) as out:
        dump_line(doc, out)
    if witness is not None:
        print(witness, file=sys.stderr)
        return 1
    return 0


def cmd_convert(args, parser) -> int:
    obj = _input_object(args, parser)
    if not isinstance(obj, CycleSet):
        _emit_cycle_set(_cycle_set_of(obj), args)
        return 0
    sol = to_solution(obj)
    with _out_stream(args.out) as out:
        if args.format == "table":
            out.write("lam:\n" + _render_rows(sol.lam) + "\nrho:\n" + _render_rows(sol.rho) + "\n")
        else:
            dump_line(solution_to_dict(sol), out)
    return 0


def _class_budget(text: str) -> int:
    """The --budget of enumerate: a whole, non-negative number of classes."""
    if not text.isdecimal():
        raise ValueError(f"--budget takes a non-negative whole number of classes, not {text!r}")
    return int(text)


def cmd_enumerate(args, parser) -> int:
    bound = _class_budget(args.budget) if args.budget is not None else 1_000_000
    classes = enumerate_classes(args.p, family=args.family or "all", bound=bound)
    with _out_stream(args.out) as out:
        for params in classes:
            dump_line(params_to_dict(params), out)
    print(f"{len(classes)} classes", file=sys.stderr)
    return 0


def _largest_printable_prime(limit: int) -> int:
    """Largest prime whose class counts have at most ``limit`` decimal digits."""
    best, q = 2, 3
    while count_formula(q).total < 10**limit:
        best = q
        q += 2
        while not is_prime(q):
            q += 2
    return best


def cmd_count(args, parser) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # the digit bound comes first: count_formula runs for ever at a huge p
    report = None if limit and count_has_more_digits(args.p, limit) else count_formula(args.p)
    if report is None or (limit and report.total >= 10**limit):
        raise ValueError(
            f"the counts at p = {args.p} are too long to print (over {limit} digits); "
            f"the largest supported p is {_largest_printable_prime(limit)}"
        )
    with _out_stream(args.out) as out:
        dump_line(count_report_to_dict(report), out)
    return 0


def cmd_classify(args, parser) -> int:
    cs = _cycle_set_of(load_document(args.infile))
    params = classify_size_p2(cs)
    with _out_stream(args.out) as out:
        dump_line(params_to_dict(params), out)
    return 0


def cmd_iso(args, parser) -> int:
    a = _cycle_set_of(load_document(args.infile[0]))
    b = _cycle_set_of(load_document(args.infile[1]))
    perm = iso_cycle_sets(a, b)
    with _out_stream(args.out) as out:
        doc = {"isomorphic": perm is not None, "map": list(perm) if perm else None}
        dump_line(doc, out)
    return 0


def cmd_aut(args, parser) -> int:
    cs = _cycle_set_of(load_document(args.infile))
    auts = automorphisms(cs)
    with _out_stream(args.out) as out:
        doc = {
            "kind": "automorphisms",
            "n": cs.n,
            "count": len(auts),
            "maps": [list(a) for a in auts],
        }
        dump_line(doc, out)
    return 0


def cmd_retract(args, parser) -> int:
    cs = _cycle_set_of(load_document(args.infile))
    ret, proj = retraction(cs)
    print(f"projection: {list(proj)}", file=sys.stderr)
    print(f"multipermutation level: {multipermutation_level(cs)}", file=sys.stderr)
    _emit_cycle_set(ret, args)
    return 0


def cmd_cable(args, parser) -> int:
    cs = _cycle_set_of(load_document(args.infile))
    _emit_cycle_set(cable(cs, args.k), args)
    return 0


def cmd_deform(args, parser) -> int:
    if args.phi is None:
        parser.error("deform needs --phi (permutation as image list)")
    cs = _cycle_set_of(load_document(args.infile))
    _emit_cycle_set(deform(cs, args.phi), args)
    return 0


def cmd_oracle(args, parser) -> int:
    opts = SearchOptions(
        n=args.n,
        indecomposable_only=args.indecomposable,
        irretractable_only=args.irretractable,
        time_budget=args.budget,
        jobs=args.jobs,
    )
    result = enumerate_cycle_sets(opts)
    with _out_stream(args.out) as out:
        for cs in result.classes:
            dump_line(cycle_set_to_dict(cs), out)
        summary = {
            "classes": len(result.classes),
            "complete": result.complete,
            "elapsed": round(result.elapsed, 3),
        }
        dump_line(summary, out)
    return 0


def cmd_brace(args, parser) -> int:
    cs = _cycle_set_of(load_document(args.infile))
    brace = build_perm_brace(cs)
    doc = brace_to_dict(brace)  # refuses an oversized brace before the costlier check
    verify_brace(brace)
    with _out_stream(args.out) as out:
        dump_line(doc, out)
    return 0


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
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return 0 if exc.code in (0, None) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
