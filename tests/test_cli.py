import json
import sys

import pytest

from cyclesets import (
    CycleSet,
    Solution,
    check_cycle_set,
    count_formula,
    cyclic_cycle_set,
    irr_cycle_set,
    is_prime,
    mpl2_cycle_set,
)
from cyclesets.cli import build_parser, main
from cyclesets.jsonio import cycle_set_to_dict, solution_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cycle_set(tmp_path, cs, name="cs.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cycle_set_to_dict(cs)) + "\n")
    return str(path)


def test_verify_valid_cycle_set(tmp_path, capsys):
    path = write_cycle_set(tmp_path, cyclic_cycle_set(4))
    code, out, err = run(capsys, "verify", "--in", path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["kind"] == "verify_report"


def test_verify_invalid_cycle_set_prints_witness(tmp_path, capsys):
    path = write_cycle_set(tmp_path, CycleSet(((1, 0), (0, 1))))
    code, out, err = run(capsys, "verify", "--in", path)
    assert code == 1
    assert "square law fails at (x, y, z) = (0, 1, 0)" in err
    assert json.loads(out)["ok"] is False


def test_verify_family_flags(capsys):
    code, out, _ = run(capsys, "verify", "--family", "irr", "--p", "3", "--phi", "0,1,1")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_invalid_parameters(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "irr", "--p", "5", "--phi", "0,1,4,4,1", "--alpha", "4"
    )
    assert code == 1
    assert "equivariant" in err


def test_verify_solution_document(tmp_path, capsys):
    from cyclesets import to_solution

    sol = to_solution(irr_cycle_set(2, (0, 1), 1))
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(solution_to_dict(sol)) + "\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["object"] == "solution"


def test_convert_params_to_cycle_set(capsys):
    code, out, _ = run(
        capsys, "convert", "--family", "mpl2", "--p", "2", "--phi", "0,1", "--s", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cycle_set"
    assert tuple(map(tuple, doc["table"])) == mpl2_cycle_set(2, (2,), (0, 1), 1).table


def test_convert_roundtrip(tmp_path, capsys):
    cs = irr_cycle_set(3, (0, 1, 1), 1)
    path = write_cycle_set(tmp_path, cs)
    code, out, _ = run(capsys, "convert", "--in", path)
    assert code == 0
    sol_doc = json.loads(out)
    assert sol_doc["kind"] == "solution"

    back_path = tmp_path / "sol.json"
    back_path.write_text(out)
    code, out2, _ = run(capsys, "convert", "--in", str(back_path))
    assert code == 0
    assert json.loads(out2)["table"] == [list(row) for row in cs.table]


def test_convert_table_format(tmp_path, capsys):
    path = write_cycle_set(tmp_path, cyclic_cycle_set(2))
    code, out, _ = run(capsys, "convert", "--in", path, "--format", "table")
    assert code == 0
    assert "lam:" in out and "rho:" in out


def test_enumerate_p3_streams_16_lines(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16
    families = [json.loads(line)["family"] for line in lines]
    assert families.count("cyclic") == 1
    assert families.count("mpl2") == 12
    assert families.count("irr") == 3
    assert "16 classes" in err


def test_enumerate_is_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--p", "3")
    _, second, _ = run(capsys, "enumerate", "--p", "3")
    assert first == second


def test_enumerate_rejects_nonprime(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "6")
    assert code == 1
    assert "error" in err


def test_count_p7(capsys):
    code, out, _ = run(capsys, "count", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 7
    assert doc["n_irr_even"] == 342
    assert doc["n_irr_zero"] == 65
    assert doc["n_irr"] == 407
    assert doc["n_mpl2"] == 137256
    assert doc["total"] == 137664
    assert doc["n_cyclic"] == 1


def test_classify_roundtrip(tmp_path, capsys):
    cs = mpl2_cycle_set(3, (3,), (0, 2, 2), 1)
    path = write_cycle_set(tmp_path, cs)
    code, out, _ = run(capsys, "classify", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "mpl2"


def test_iso_commands(tmp_path, capsys):
    a = write_cycle_set(tmp_path, irr_cycle_set(3, (0, 1, 1), 1), "a.json")
    b = write_cycle_set(tmp_path, irr_cycle_set(3, (0, 2, 2), 1), "b.json")
    c = write_cycle_set(tmp_path, irr_cycle_set(3, (1, 0, 0), 1), "c.json")
    code, out, _ = run(capsys, "iso", "--in", a, b)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["map"] is not None

    code, out, _ = run(capsys, "iso", "--in", a, c)
    assert code == 0
    assert json.loads(out) == {"isomorphic": False, "map": None}


def test_aut_count(tmp_path, capsys):
    path = write_cycle_set(tmp_path, irr_cycle_set(3, (0, 1, 1), 1))
    code, out, _ = run(capsys, "aut", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert len(doc["maps"]) == 3


def test_aut_and_iso_refuse_rows_that_are_not_permutations(tmp_path, capsys):
    bad = write_cycle_set(tmp_path, CycleSet(((0, 0), (1, 1))), "bad.json")
    good = write_cycle_set(tmp_path, cyclic_cycle_set(2), "good.json")
    for argv in (("aut", "--in", bad), ("iso", "--in", bad, bad), ("iso", "--in", good, bad)):
        code, out, err = run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert "permutations" in err


def test_retract(tmp_path, capsys):
    path = write_cycle_set(tmp_path, mpl2_cycle_set(2, (2,), (0, 1), 0))
    code, out, err = run(capsys, "retract", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cycle_set"
    assert len(doc["table"]) == 2
    assert "multipermutation level: 2" in err
    assert "projection: [0, 0, 1, 1]" in err


def test_retract_refuses_a_table_that_is_not_a_cycle_set(tmp_path, capsys):
    path, out_path = tmp_path / "bad.json", tmp_path / "out.json"
    path.write_text('{"kind": "cycle_set", "n": 2, "table": [[0, 0], [1, 1]]}\n')
    code, out, err = run(capsys, "retract", "--in", str(path), "--out", str(out_path))
    _assert_one_line_error(code, out, err)
    assert err.startswith("error: not a cycle set: ")
    assert not out_path.exists()


def test_cable_identity(tmp_path, capsys):
    cs = irr_cycle_set(2, (0, 1), 1)
    path = write_cycle_set(tmp_path, cs)
    code, out, _ = run(capsys, "cable", "--in", path, "--k", "9")
    assert code == 0
    assert tuple(map(tuple, json.loads(out)["table"])) == cs.table


def test_cable_by_two_exits_zero(tmp_path, capsys):
    for p, phi in ((3, (0, 1, 1)), (5, (0, 1, 4, 4, 1))):
        path = write_cycle_set(tmp_path, irr_cycle_set(p, phi, 1))
        code, out, _ = run(capsys, "cable", "--in", path, "--k", "2")
        assert code == 0
        assert check_cycle_set(CycleSet(tuple(map(tuple, json.loads(out)["table"])))).ok


def test_deform_by_translation(tmp_path, capsys):
    path = write_cycle_set(tmp_path, cyclic_cycle_set(4))
    code, out, _ = run(capsys, "deform", "--in", path, "--phi", "1,2,3,0")
    assert code == 0
    table = json.loads(out)["table"]
    assert check_cycle_set(CycleSet(tuple(map(tuple, table)))).ok


def test_deform_rejects_non_automorphism(tmp_path, capsys):
    path = write_cycle_set(tmp_path, cyclic_cycle_set(4))
    code, _, err = run(capsys, "deform", "--in", path, "--phi", "1,0,2,3")
    assert code == 1
    assert "error" in err


def test_oracle_stream_and_summary(capsys):
    code, out, err = run(capsys, "oracle", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["classes"] == 5
    assert summary["complete"] is True
    assert len(lines) == 6  # 5 cycle sets + summary
    for line in lines[:-1]:
        doc = json.loads(line)
        assert doc["kind"] == "cycle_set"


def test_oracle_indecomposable_filter(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--indecomposable")
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[-1])["classes"] == 5


def test_brace_dump(tmp_path, capsys):
    path = write_cycle_set(tmp_path, irr_cycle_set(2, (0, 1), 1))
    code, out, _ = run(capsys, "brace", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "perm_brace"
    assert doc["order"] == 8
    assert len(doc["circ"]) == 8
    assert len(doc["add"]) == 8


def test_brace_refuses_an_oversized_brace_before_verifying_it(tmp_path, capsys):
    import time

    path = tmp_path / "cyclic23.json"
    path.write_text(json.dumps({"family": "cyclic", "p": 23}) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "brace", "--in", str(path))
    assert time.perf_counter() - start < 3.0
    _assert_one_line_error(code, out, err)
    assert "group order 529 exceeds table bound 512" in err


def test_emitted_objects_reverify(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--family", "irr", "--p", "2", "--phi", "0,1")
    assert code == 0
    path = tmp_path / "emitted.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert json.loads(out2)["ok"] is True


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "count", "--p", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["total"] == 16


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "enumerate")[0] == 2  # missing --p
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "iso", "--in", "only-one.json")[0] == 2
    assert run(capsys, "verify")[0] == 2  # neither --in nor family flags


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/cs.json")
    assert code == 1
    assert "error" in err


def test_json_lines_are_sorted_and_compact(capsys):
    _, out, _ = run(capsys, "count", "--p", "2")
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert list(doc.keys()) == sorted(doc.keys())


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_family_document_missing_field_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "irr.json"
    path.write_text('{"family": "irr", "phi": [0, 1]}\n')
    code, out, err = run(capsys, "verify", "--in", str(path))
    _assert_one_line_error(code, out, err)
    assert "'p'" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"family": "irr", "p": [3], "phi": [0, 1, 1]}',
        '{"family": "mpl2", "m": 3, "a_invariants": 3, "phi": [0, 1, 1], "s": 0}',
    ],
)
def test_family_document_with_mistyped_field_is_one_line_error(tmp_path, capsys, doc):
    path = tmp_path / "family.json"
    path.write_text(doc + "\n")
    code, out, err = run(capsys, "verify", "--in", str(path))
    _assert_one_line_error(code, out, err)
    assert json.loads(doc)["family"] in err


def _assert_largest_printable_p(err, limit):
    """The error names the largest prime whose counts fit in ``limit`` digits."""
    largest = int(err.strip().rsplit(" ", 1)[1])
    above = next(q for q in range(largest + 1, 2 * largest + 2) if is_prime(q))
    assert is_prime(largest)
    assert count_formula(largest).total < 10**limit <= count_formula(above).total
    return largest


def test_count_too_long_to_print_names_the_largest_p(capsys):
    code, out, err = run(capsys, "count", "--p", "100003")
    _assert_one_line_error(code, out, err)
    assert "too long to print" in err
    largest = _assert_largest_printable_p(err, sys.get_int_max_str_digits())
    assert run(capsys, "count", "--p", str(largest))[0] == 0


def test_count_bound_follows_the_digit_limit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 40)
    code, out, err = run(capsys, "count", "--p", "101")
    _assert_one_line_error(code, out, err)
    largest = _assert_largest_printable_p(err, 40)
    assert run(capsys, "count", "--p", str(largest))[0] == 0


def test_format_is_only_accepted_where_it_is_read(tmp_path, capsys):
    code, out, _ = run(capsys, "count", "--p", "3", "--format", "table")
    assert code == 2 and out == ""
    path = write_cycle_set(tmp_path, cyclic_cycle_set(3))
    code, out, _ = run(capsys, "retract", "--in", path, "--format", "table")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("command", ["verify", "brace", "aut", "retract"])
def test_empty_table_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "cycle_set", "table": []}\n')
    code, out, err = run(capsys, command, "--in", str(path))
    _assert_one_line_error(code, out, err)
    assert "at least one point" in err


def test_oracle_rejects_zero_jobs(capsys):
    code, out, err = run(capsys, "oracle", "--n", "3", "--jobs", "0")
    _assert_one_line_error(code, out, err)


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_oracle_rejects_a_nan_or_negative_budget(capsys, budget):
    code, out, err = run(capsys, "oracle", "--n", "2", "--budget", budget)
    _assert_one_line_error(code, out, err)


def test_oracle_jobs_are_capped_at_cpu_count(monkeypatch, capsys):
    import multiprocessing
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, _ = run(capsys, "oracle", "--n", "3", "--jobs", "64")
    assert code == 0
    assert json.loads(out.strip().split("\n")[-1])["classes"] == 5


def _verify_stdin(monkeypatch, capsys, doc):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    return run(capsys, "verify", "--in", "-")


@pytest.mark.parametrize("p", [1000000, 1000003])
def test_verify_refuses_a_table_larger_than_memory(monkeypatch, capsys, p):
    import time

    start = time.perf_counter()
    code, out, err = _verify_stdin(monkeypatch, capsys, json.dumps({"family": "cyclic", "p": p}))
    assert time.perf_counter() - start < 2.0
    _assert_one_line_error(code, out, err)
    assert "physical memory" in err


@pytest.mark.parametrize("p", ["4", "1000"])
def test_cyclic_family_needs_a_prime(capsys, p):
    code, out, err = run(capsys, "verify", "--family", "cyclic", "--p", p)
    _assert_one_line_error(code, out, err)
    if p == "4":
        assert "4 is not prime" in err


def test_mpl2_document_with_a_zero_invariant_is_one_line_error(monkeypatch, capsys):
    doc = '{"family":"mpl2","m":3,"a_invariants":[0],"phi":[0,1,1],"s":0}'
    code, out, err = _verify_stdin(monkeypatch, capsys, doc)
    _assert_one_line_error(code, out, err)
    assert "invariants must be positive" in err


def test_non_integral_alpha_is_refused(monkeypatch, capsys):
    doc = '{"family":"irr","p":3,"phi":[0,1,1],"alpha":1.5}'
    code, out, err = _verify_stdin(monkeypatch, capsys, doc)
    _assert_one_line_error(code, out, err)
    assert "'alpha' holds 1.5" in err


def test_boolean_table_entries_are_refused(monkeypatch, capsys):
    doc = '{"kind":"cycle_set","n":2,"table":[[true,false],[true,false]]}'
    code, out, err = _verify_stdin(monkeypatch, capsys, doc)
    _assert_one_line_error(code, out, err)
    assert "'table' holds True" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"kind":"cycle_set","n":3,"table":[[1,0],[1,0]]}',
        '{"kind":"solution","n":1,"lam":[[1,0],[1,0]],"rho":[[1,0],[1,0]]}',
    ],
)
def test_document_size_must_match_its_table(monkeypatch, capsys, doc):
    code, out, err = _verify_stdin(monkeypatch, capsys, doc)
    _assert_one_line_error(code, out, err)
    assert "field 'n'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--p", "1000003"),
        ("count", "--p", "1000000000000000003"),
        ("enumerate", "--p", "1000000000000000003"),
        ("enumerate", "--p", "1000003", "--family", "irr"),
        ("enumerate", "--p", "10007"),
        ("enumerate", "--p", "101"),
    ],
)
def test_a_huge_p_is_refused_from_the_size_of_its_count(capsys, argv):
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    _assert_one_line_error(code, out, err)
    if argv[0] == "enumerate":
        assert err == f"error: more than 1000000 classes at p = {argv[2]}\n"


def test_count_at_the_printable_edge_is_unchanged(capsys):
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the pinned edge assumes the default digit limit")
    code, out, _ = run(capsys, "count", "--p", "1367")
    assert code == 0 and json.loads(out)["total"] == count_formula(1367).total
    code, out, err = run(capsys, "count", "--p", "1373")
    _assert_one_line_error(code, out, err)
    assert err == (
        "error: the counts at p = 1373 are too long to print (over 4300 digits); "
        "the largest supported p is 1367\n"
    )


@pytest.mark.parametrize("budget", ["1e400", "-1", "nan", "2.5"])
def test_enumerate_budget_is_a_non_negative_class_count(capsys, budget):
    code, out, err = run(capsys, "enumerate", "--p", "3", "--budget", budget)
    _assert_one_line_error(code, out, err)
    assert "--budget" in err


def test_enumerate_budget_bounds_the_class_count(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "3", "--budget", "15")
    _assert_one_line_error(code, out, err)
    assert err == "error: more than 15 classes at p = 3\n"
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--budget", "16")
    assert code == 0 and out.count("\n") == 16


@pytest.mark.parametrize("command", ["verify", "convert"])
def test_empty_solution_document_is_one_line_error(monkeypatch, capsys, command):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"kind":"solution","lam":[],"rho":[]}'))
    code, out, err = run(capsys, command, "--in", "-")
    _assert_one_line_error(code, out, err)
    assert err == "error: a solution needs at least one point\n"


def test_cyclic_enumerate_at_a_huge_prime_prints_its_one_class(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--p", "1000000000000000003", "--family", "cyclic")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {"family": "cyclic", "p": 1000000000000000003}


def test_enumerate_refuses_an_orbit_scan_larger_than_memory(capsys, monkeypatch):
    from cyclesets import counting

    # room for the 76,832 bytes of digit rows at p = 7, not for the whole scan
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 25}
    monkeypatch.setattr(counting.os, "sysconf", lambda name: pages[name])
    code, out, err = run(capsys, "enumerate", "--p", "7", "--family", "irr")
    _assert_one_line_error(code, out, err)
    assert "physical memory" in err


def test_enumerate_refuses_digit_rows_larger_than_memory(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--p", "13", "--budget", "100000000000000")
    assert time.perf_counter() - start < 2.0
    _assert_one_line_error(code, out, err)
    assert "physical memory" in err


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; a usage error or --help in
    between leaves the next call's output unchanged."""
    first = run(capsys, "count", "--p", "3")
    assert first[0] == 0
    assert run(capsys, "count")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "count", "--p", "3") == first
    assert build_parser() is build_parser()


_MPL2_3 = {"family": "mpl2", "m": 3, "a_invariants": [3]}
_IRR_5 = {"family": "irr", "p": 5}


@pytest.mark.parametrize("command", ["verify", "convert"])
@pytest.mark.parametrize(
    "flags, doc",
    [
        ("--family cyclic --p 3", {"family": "cyclic", "p": 3}),
        ("--family cyclic --p 3 --s 1 --alpha 2", {"family": "cyclic", "p": 3}),
        ("--family cyclic --p 4", {"family": "cyclic", "p": 4}),
        ("--family mpl2 --p 3 --phi 0,1,1", {**_MPL2_3, "phi": [0, 1, 1], "s": 0}),
        ("--family mpl2 --p 3 --phi 0,1,2 --s 2", {**_MPL2_3, "phi": [0, 1, 2], "s": 2}),
        ("--family mpl2 --p 3 --phi 0,2,1 --s 1 --alpha 0", {**_MPL2_3, "phi": [0, 2, 1], "s": 1}),
        ("--family mpl2 --p 3 --phi 0,0,0", {**_MPL2_3, "phi": [0, 0, 0], "s": 0}),
        ("--family irr --p 3 --phi 0,1,1", {"family": "irr", "p": 3, "phi": [0, 1, 1]}),
        ("--family irr --p 3 --phi 0,2,2 --s 1", {"family": "irr", "p": 3, "phi": [0, 2, 2]}),
        ("--family irr --p 5 --phi 0,2,3,3,2 --alpha 4", {**_IRR_5, "phi": [0, 2, 3, 3, 2], "alpha": 4}),
        ("--family irr --p 5 --phi 0,1,4,4,1 --alpha 4", {**_IRR_5, "phi": [0, 1, 4, 4, 1], "alpha": 4}),
        ("--family irr --p 3 --phi 0,1,1 --alpha 0", {"family": "irr", "p": 3, "phi": [0, 1, 1], "alpha": 0}),
    ],
)
def test_family_flags_are_read_as_the_document_they_spell(monkeypatch, capsys, command, flags, doc):
    """Same exit code, output and diagnostics from the flags as from the document."""
    import io

    from_flags = run(capsys, command, *flags.split())
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run(capsys, command, "--in", "-") == from_flags


@pytest.mark.parametrize(
    "doc", ["[" * 1000 + "]" * 1000, '{"a": ' * 5000 + "1" + "}" * 5000], ids=["lists", "objects"]
)
def test_a_deeply_nested_document_is_one_line_error(monkeypatch, capsys, doc):
    code, out, err = _verify_stdin(monkeypatch, capsys, doc)
    _assert_one_line_error(code, out, err)
    assert "nested too deeply" in err


def test_a_failed_command_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    path = write_cycle_set(tmp_path, CycleSet(((1, 0), (0, 1))))
    code, out, err = run(capsys, "brace", "--in", path, "--out", str(target))
    _assert_one_line_error(code, out, err)
    assert not target.exists()
