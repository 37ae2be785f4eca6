"""CLI output pinned byte for byte: stdout, stderr and exit code.

Runs ``cli.main`` in-process for every spec under ``demos/specs`` and every
command in ``COMMANDS``, and compares each run against
``tests/cli_golden.json``.  A change that alters any CLI output on purpose
regenerates that file with ``PYTHONPATH=src python tests/test_cli_golden.py``
and says in its description which runs changed and why.
"""

import builtins
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dncap.cli import main
from oracles import compensated_sum

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "demos" / "specs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# argv after the spec path, keyed by a short run name
COMMANDS = {
    "enumerate": ["enumerate", "--wmax", "20"],
    "capacity_auto": ["capacity"],
    "capacity_abscissa": ["capacity", "--method", "abscissa"],
    "maxent": ["maxent", "--lmax", "20"],
    "verify_default": ["verify"],
    "verify_loose": ["verify", "--wmax", "30", "--lmax", "30", "--tol", "0.06"],
    "sample": ["sample", "--count", "5", "--steps", "12", "--seed", "3"],
    "sample_deep": ["sample", "--count", "4", "--steps", "520", "--seed", "23"],
    "sample_many": ["sample", "--count", "64", "--steps", "16", "--seed", "5"],
}


def run(spec: Path, command: str) -> dict:
    name, *options = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([name, str(spec), *options])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(spec: Path, command: str) -> str:
    return f"{spec.stem}/{command}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert len(SPECS) == 6
    assert sorted(golden) == sorted(
        _key(spec, command) for spec in SPECS for command in COMMANDS
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda path: path.stem)
def test_cli_output_matches_golden(golden, spec, command):
    assert run(spec, command) == golden[_key(spec, command)]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_the_same_under_compensated_sum(golden, monkeypatch, command):
    # Python 3.12's builtin sum compensates float terms; no output may move
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for spec in SPECS:
        assert run(spec, command) == golden[_key(spec, command)], spec.stem


if __name__ == "__main__":
    runs = {
        _key(spec, command): run(spec, command)
        for spec in SPECS for command in COMMANDS
    }
    GOLDEN.write_text(
        json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
