"""JSON document formats shared by the library and the CLI.

Cycle sets travel as {"kind": "cycle_set", "n": N, "table": [[...]]} with
0-based entries, solutions as {"kind": "solution", "n": N, "lam": [[...]],
"rho": [[...]]}, brace dumps as {"kind": "perm_brace", ...}, and family
parameters as the dicts produced by params_to_dict.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from itertools import chain

from .brace import PermBrace
from .counting import CountReport
from .cycleset import CycleSet
from .errors import InvariantViolation
from .families import FamilyParams, _json_int, params_from_dict
from .solutions import Solution

Document = CycleSet | Solution | FamilyParams


def cycle_set_to_dict(cs: CycleSet) -> dict:
    return {"kind": "cycle_set", "n": cs.n, "table": [list(row) for row in cs.table]}


def solution_to_dict(sol: Solution) -> dict:
    return {
        "kind": "solution",
        "n": sol.n,
        "lam": [list(row) for row in sol.lam],
        "rho": [list(row) for row in sol.rho],
    }


def brace_to_dict(brace: PermBrace) -> dict:
    """Full-table dump for regression snapshots; refuses braces of order above 512."""
    return {
        "kind": "perm_brace",
        "n_points": brace.n_points,
        "order": brace.order,
        "circ": brace.circ_table().tolist(),
        "add": brace.add_table().tolist(),
    }


def count_report_to_dict(report: CountReport) -> dict:
    return {**asdict(report), "n_irr": report.n_irr, "total": report.total}


def _int_rows(doc: dict, key: str) -> list[list[int]]:
    """The rows under ``key``, type-checked in one scan and returned as they are.

    Only when an entry is not an int are the rows walked, so that the error
    names the first offender in row-major order.
    """
    rows = doc.get(key)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvariantViolation(f"field {key!r} must be a list of rows")
    try:
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            for v in chain.from_iterable(rows):
                _json_int(v, key)
        n = _json_int(doc.get("n", len(rows)), "n")
    except TypeError as exc:
        raise InvariantViolation(str(exc)) from None
    if n != len(rows):
        raise InvariantViolation(f"field 'n' is {n}, but {key!r} has {len(rows)} rows")
    return rows


def document_from_dict(doc: dict) -> Document:
    """Dispatch a parsed JSON object on its "kind" (or "family") tag."""
    if not isinstance(doc, dict):
        raise InvariantViolation("expected a JSON object")
    if "family" in doc:
        return params_from_dict(doc)
    kind = doc.get("kind")
    if kind == "cycle_set":
        return CycleSet(_int_rows(doc, "table"))
    if kind == "solution":
        return Solution(_int_rows(doc, "lam"), _int_rows(doc, "rho"))
    raise InvariantViolation(f"unsupported document kind: {kind!r}")


def load_document(path: str) -> Document:
    try:
        if path == "-":
            return document_from_dict(json.load(sys.stdin))
        with open(path, encoding="utf-8") as fh:
            return document_from_dict(json.load(fh))
    except RecursionError:  # json.load recurses once per level of nesting
        raise InvariantViolation("document is nested too deeply to read") from None


def dump_line(doc: dict, stream) -> None:
    stream.write(json.dumps(doc, sort_keys=True))
    stream.write("\n")
