"""The scripts under scripts/ and the benchmark's smoke run, end to end."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_validity_at_two_and_three(capsys):
    assert load("sweep_validity").main(["--primes", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "p=2: 5 classes ok" in out
    assert "p=3: 16 classes ok" in out


def test_deep_checks_p7(capsys):
    assert load("deep_checks_p7").main([]) == 0
    out = capsys.readouterr().out
    assert "DISAGREE" not in out
    assert "permutation group" not in out


def test_hunt_size_nine_reports_an_incomplete_budgeted_run(capsys):
    assert load("hunt_size_nine").main(["--max-nodes", "5", "--time-budget", "30"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["complete"] is False
    assert report["outside_constructed_list"] == 0


@pytest.mark.slow
def test_deep_checks_p7_group_order(capsys):
    assert load("deep_checks_p7").main(["--closure"]) == 0
    assert "order 352947 = 3*7^6 is True" in capsys.readouterr().out


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's tracer wraps exists under its name, looked
    up as the tracer does (a module attribute, or an entry of a class's
    __dict__), without installing the tracer."""
    traced = load("tracer", SCRIPTS.parent / "perfbench").TRACED
    missing = []
    for mod_name, names in traced.items():
        module = importlib.import_module(f"cyclesets.{mod_name}")
        for name in names:
            cls, _, attr = name.rpartition(".")
            scope = vars(vars(module).get(cls, object)) if cls else vars(module)
            if attr not in scope:
                missing.append(f"{mod_name}.{name}")
    assert missing == []


@pytest.mark.slow
def test_benchmark_smoke_run():
    """The benchmark's reduced run passes, so a library name its tracer
    wraps cannot be renamed or deleted unnoticed."""
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=SCRIPTS.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
