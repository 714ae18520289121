"""Fuzzing the command line over the argv of every subcommand and over documents.

Whatever the arguments and the input, a command exits 0, 1 or 2 and prints no
traceback; on exit 1 its last diagnostic line starts with ``error:`` or names
the check that failed, and a command that fails with ``error:`` writes no
--out file.  Documents are drawn valid, mutated, wrongly typed, wrongly sized,
of the wrong kind, nested deeply, or not JSON at all.  Sizes stay small
(p <= 5, oracle n <= 3 with one job) so that each example takes milliseconds.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclesets import enumerate_classes, params_to_dict, to_cycle_set, to_solution
from cyclesets.cli import main
from cyclesets.jsonio import cycle_set_to_dict, solution_to_dict

_PARAMS = enumerate_classes(2) + enumerate_classes(3)
_VALID = (
    [params_to_dict(p) for p in _PARAMS]
    + [cycle_set_to_dict(to_cycle_set(p)) for p in _PARAMS]
    + [solution_to_dict(to_solution(to_cycle_set(p))) for p in _PARAMS[::4]]
)
_CHECK_FAILED = re.compile(
    r"(square law fails|row \d+ is not a permutation|diagonal collides|nondegeneracy fails"
    r"|involutivity fails|braid relation fails)"
)

small = st.integers(-3, 12)
junk = st.none() | st.booleans() | st.floats(allow_nan=True) | st.text(max_size=3) | st.integers(-(2**70), 2**70)
json_values = st.recursive(
    junk,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 4))
    return [draw(st.lists(st.integers(-1, n), min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def family_docs(draw):
    family = draw(st.sampled_from(["cyclic", "mpl2", "irr", "other"]))
    fields = {
        "p": st.integers(-2, 5) | st.sampled_from([10**6 + 3, 2**61 - 1]),
        "m": st.integers(-1, 4),
        "a_invariants": st.lists(st.integers(-1, 3), max_size=2),
        "phi": st.lists(small | st.lists(small, max_size=2), max_size=6),
        "s": small | st.lists(small, max_size=2),
        "alpha": small,
    }
    doc = {"family": family}
    for name, values in fields.items():
        roll = draw(st.integers(0, 9))  # 0: the field is missing, 1: it holds any JSON value
        if roll:
            doc[name] = draw(json_values if roll == 1 else values)
    return doc


@st.composite
def mutated(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    key = draw(st.sampled_from(sorted(doc)))
    rows = doc[key]
    choice = draw(st.integers(0, 4))
    if choice == 0 and isinstance(rows, list) and rows and isinstance(rows[0], list) and rows[0]:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(small | junk)
    elif choice == 1 and isinstance(rows, list) and rows:
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif choice == 2:
        doc[key] = draw(json_values)
    elif choice == 3:
        del doc[key]
    else:
        doc["n"] = draw(small)
    return doc


def deep(depth: int, bracket: str) -> str:
    return ("[" * depth + "]" * depth) if bracket == "[" else ('{"a": ' * depth + "1" + "}" * depth)


documents = st.one_of(
    st.sampled_from(_VALID).map(json.dumps),
    mutated().map(json.dumps),
    st.builds(deep, st.sampled_from([500, 1000, 5000, 100_000]), st.sampled_from("[{")),
    family_docs().map(json.dumps),
    tables().map(lambda t: json.dumps({"kind": "cycle_set", "table": t})),
    st.tuples(tables(), tables()).map(lambda lr: json.dumps({"kind": "solution", "lam": lr[0], "rho": lr[1]})),
    st.fixed_dictionaries({"kind": st.text(max_size=4) | junk}).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=20),
)
int_list = st.lists(small, min_size=1, max_size=6).map(lambda v: ",".join(map(str, v)))


def opt(flag: str, values) -> st.SearchStrategy:
    """The flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


family_flags = st.tuples(
    opt("--family", st.sampled_from(["cyclic", "mpl2", "irr", "all"])),
    opt("--p", st.integers(-2, 5)),
    opt("--phi", int_list),
    opt("--s", small),
    opt("--alpha", small),
).map(lambda parts: sum(parts, []))
fmt = opt("--format", st.sampled_from(["json", "table", "xml"]))
one_in = st.sampled_from([["--in", "-"], ["--in", "@0"], []])

argvs = st.one_of(
    st.tuples(st.just(["verify"]), one_in | st.just([]), family_flags),
    st.tuples(st.just(["convert"]), one_in | st.just([]), family_flags, fmt),
    st.tuples(
        st.just(["enumerate"]),
        opt("--p", st.integers(-2, 5) | st.sampled_from([10**6 + 3, 2**61 - 1])),
        opt("--family", st.sampled_from(["cyclic", "mpl2", "irr", "all"])),
        opt("--budget", st.integers(-1, 900) | st.text(max_size=3)),
    ),
    st.tuples(st.just(["count"]), opt("--p", st.integers(-5, 60) | st.sampled_from([1373, 100003, 2**61 - 1]))),
    st.tuples(st.just(["classify"]), one_in),
    st.tuples(st.just(["aut"]), one_in),
    st.tuples(st.just(["brace"]), one_in),
    st.tuples(st.just(["retract"]), one_in, fmt),
    st.tuples(st.just(["iso"]), st.sampled_from([["--in", "@0", "@1"], ["--in", "@0"], []])),
    st.tuples(st.just(["cable"]), one_in, fmt, opt("--k", st.integers(-4, 4) | st.just(10**30))),
    st.tuples(st.just(["deform"]), one_in, fmt, opt("--phi", int_list | st.text(max_size=4))),
    st.tuples(
        st.just(["oracle", "--jobs", "1"]),
        opt("--n", st.integers(-1, 3)),
        st.sampled_from([[], ["--indecomposable"], ["--irretractable"]]),
        opt("--budget", st.sampled_from(["nan", "-1", "0", "0.5", "inf", "x"])),
    ),
    st.tuples(st.lists(st.sampled_from(["bogus", "--help", "--p", "3", "--in", "-", "--k"]), max_size=3)),
).map(lambda parts: sum(parts, []))


def invoke(argv, docs, workdir: Path):
    """Run main on argv with @i naming document i; the exit code, stdout and stderr."""
    paths = {}
    for i, text in enumerate(docs):
        paths[f"@{i}"] = workdir / f"doc{i}.json"
        paths[f"@{i}"].write_text(text)
    argv = [str(paths.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(docs[0])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check_invocation(argv, docs, use_out, workdir: Path):
    target = workdir / "out.txt"
    target.unlink(missing_ok=True)
    if use_out:
        argv = argv + ["--out", str(target)]
    code, out, err = invoke(argv, docs, workdir)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
    if code == 1:
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        assert last.startswith("error: ") or _CHECK_FAILED.match(last), (argv, err)
        if last.startswith("error: ") and use_out:
            assert not target.exists(), argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


_FUZZ = given(argv=argvs, docs=st.tuples(documents, documents), use_out=st.booleans())


@settings(max_examples=400, deadline=2000)
@_FUZZ
def test_every_command_exits_0_1_or_2_without_a_traceback(workdir, argv, docs, use_out):
    check_invocation(argv, docs, use_out, workdir)


@pytest.mark.slow
@settings(max_examples=5000, deadline=2000)
@_FUZZ
def test_every_command_exits_0_1_or_2_without_a_traceback_long_run(workdir, argv, docs, use_out):
    check_invocation(argv, docs, use_out, workdir)
