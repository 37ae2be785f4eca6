"""Every demo script runs to completion and prints its narrative, byte for
byte as pinned in ``tests/demo_golden.json``.  A change that alters a demo's
output on purpose regenerates that file with
``PYTHONPATH=src python tests/test_demos.py`` and says which demos changed
and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_golden.json"


def run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_demo(golden):
    assert sorted(golden) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(golden, script):
    result = run(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert result.stdout == golden[script.name]


if __name__ == "__main__":
    outputs = {}
    for script in DEMOS:
        result = run(script)
        if result.returncode != 0:
            sys.exit(f"{script.name} failed:\n{result.stderr}")
        outputs[script.name] = result.stdout
    GOLDEN.write_text(
        json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(outputs)} demos to {GOLDEN}", file=sys.stderr)
