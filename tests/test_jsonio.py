import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import (
    CycleSet,
    InvariantViolation,
    IrrParams,
    Solution,
    build_perm_brace,
    count_formula,
    cyclic_cycle_set,
    irr_cycle_set,
    params_to_dict,
    to_solution,
)
from cyclesets.families import _json_int
from cyclesets.jsonio import (
    brace_to_dict,
    count_report_to_dict,
    cycle_set_to_dict,
    document_from_dict,
    dump_line,
    load_document,
    solution_to_dict,
)


def test_cycle_set_roundtrip():
    cs = cyclic_cycle_set(4)
    doc = cycle_set_to_dict(cs)
    assert doc["kind"] == "cycle_set" and doc["n"] == 4
    back = document_from_dict(json.loads(json.dumps(doc)))
    assert isinstance(back, CycleSet)
    assert back.table == cs.table


def test_solution_roundtrip():
    sol = to_solution(irr_cycle_set(2, (0, 1), 1))
    back = document_from_dict(solution_to_dict(sol))
    assert isinstance(back, Solution)
    assert back.lam == sol.lam and back.rho == sol.rho


def test_params_documents():
    params = IrrParams(3, (0, 1, 1), 1)
    doc = params_to_dict(params)
    assert doc["family"] == "irr"
    assert document_from_dict(doc) == params


def test_unknown_kind_rejected():
    with pytest.raises(InvariantViolation):
        document_from_dict({"kind": "mystery"})
    with pytest.raises(InvariantViolation):
        document_from_dict({"kind": "cycle_set", "n": 2, "table": [[0, "x"], [0, 1]]})


def test_dump_line_is_sorted_single_line():
    buf = io.StringIO()
    dump_line({"b": 1, "a": [2, 3]}, buf)
    assert buf.getvalue() == '{"a": [2, 3], "b": 1}\n'


def test_load_document(tmp_path):
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(cycle_set_to_dict(cyclic_cycle_set(2))))
    cs = load_document(str(path))
    assert isinstance(cs, CycleSet) and cs.n == 2


def test_brace_to_dict():
    doc = brace_to_dict(build_perm_brace(irr_cycle_set(2, (0, 1), 1)))
    assert doc["order"] == 8
    assert doc["n_points"] == 4
    assert len(doc["circ"]) == 8 and len(doc["add"]) == 8


def test_count_report_dict_keys():
    doc = count_report_to_dict(count_formula(3))
    assert doc == {
        "p": 3,
        "n_cyclic": 1,
        "n_mpl2": 12,
        "n_irr_even": 2,
        "n_irr_zero": 1,
        "n_irr": 3,
        "total": 16,
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "irr", "p": 3, "phi": [0, 1, 1], "alpha": 1.5},
        {"family": "irr", "p": 3.0, "phi": [0, 1, 1]},
        {"family": "irr", "p": 3, "phi": [0, True, True]},
        {"family": "cyclic", "p": "3"},
        {"family": "mpl2", "m": 3, "a_invariants": [3], "phi": [0, 1.0, 1], "s": 0},
    ],
)
def test_family_fields_are_not_coerced(doc):
    with pytest.raises(InvariantViolation, match="not an integer"):
        document_from_dict(doc)


@pytest.mark.parametrize("entry", [True, False, 1.0, 0.5])
def test_table_entries_are_not_coerced(entry):
    with pytest.raises(InvariantViolation, match="not an integer"):
        document_from_dict({"kind": "cycle_set", "n": 2, "table": [[1, 0], [entry, 0]]})
    with pytest.raises(InvariantViolation, match="not an integer"):
        document_from_dict({"kind": "solution", "n": 2, "lam": [[1, 0], [0, 1]], "rho": [[1, 0], [entry, 1]]})


def test_document_size_is_checked_against_the_table():
    with pytest.raises(InvariantViolation, match="field 'n' is 3"):
        document_from_dict({"kind": "cycle_set", "n": 3, "table": [[1, 0], [1, 0]]})
    with pytest.raises(InvariantViolation, match="field 'n' is 1"):
        document_from_dict({"kind": "solution", "n": 1, "lam": [[1, 0], [0, 1]], "rho": [[1, 0], [0, 1]]})
    with pytest.raises(InvariantViolation, match="not an integer"):
        document_from_dict({"kind": "cycle_set", "n": 2.0, "table": [[1, 0], [1, 0]]})
    assert document_from_dict({"kind": "cycle_set", "n": 2, "table": [[1, 0], [1, 0]]}).n == 2


def _int_rows_reference(doc: dict, key: str):
    """The loader's row reader as it was: every entry through _json_int, into tuples."""
    rows = doc.get(key)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvariantViolation(f"field {key!r} must be a list of rows")
    try:
        rows = tuple(tuple(_json_int(v, key) for v in row) for row in rows)
        n = _json_int(doc.get("n", len(rows)), "n")
    except TypeError as exc:
        raise InvariantViolation(str(exc)) from None
    if n != len(rows):
        raise InvariantViolation(f"field 'n' is {n}, but {key!r} has {len(rows)} rows")
    return rows


def _document_reference(doc: dict):
    if doc["kind"] == "cycle_set":
        return CycleSet(_int_rows_reference(doc, "table"))
    return Solution(_int_rows_reference(doc, "lam"), _int_rows_reference(doc, "rho"))


def _outcome(load, doc):
    try:
        return load(doc)
    except Exception as exc:  # the outcome compared is the exception's type and message
        return type(exc), str(exc)


# mostly points of a small table, so that many documents load; then every
# other kind of value a JSON document can hold in a table entry
_entries = st.one_of(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-(2**64), 2**64),
    st.just(10**30),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
_rows = st.lists(st.lists(_entries, min_size=3, max_size=4), max_size=4) | st.lists(
    st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=4, max_size=4
)
_field = _rows | st.sampled_from([None, 3, "rows", [[0], 1], {"0": [0]}])
_sizes = st.none() | st.integers(0, 5) | st.sampled_from([4.0, True, "4", 10**30])


@given(st.one_of(
    st.fixed_dictionaries({"kind": st.just("cycle_set"), "table": _field}, optional={"n": _sizes}),
    st.fixed_dictionaries({"kind": st.just("solution"), "lam": _field, "rho": _field}, optional={"n": _sizes}),
))
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_per_entry_reference(doc):
    """The one-scan type check loads the same CycleSet or Solution, or raises the
    same exception type and message, as the per-entry walk."""
    assert _outcome(document_from_dict, doc) == _outcome(_document_reference, doc)
