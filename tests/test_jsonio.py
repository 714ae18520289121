import io
import json

import pytest

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
