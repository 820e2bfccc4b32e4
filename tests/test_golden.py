"""The nine README commands reproduce their committed outputs.

``tests/golden/`` holds the output of each command in the README's command
line block.  CSV output must match byte for byte (numbers are printed at 12
significant digits); JSON output must match in structure, with floats equal
to 1e-12 relative, since full ``repr`` tails can move with the BLAS or LAPACK
build.  A change that moves a golden value rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and states the old and the new values in CHANGES.md.
"""

import contextlib
import io
import json
import math
import os
import shlex
import tempfile
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np
import pytest

from zenogate.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "rabi.csv": "rabi --t-max 6.2832 --steps 1000 --out rabi.csv",
    "hom.csv": "hom --steps 200",
    "zeno-sweep-discrete.csv": "zeno-sweep --mode discrete --n-values 1 2 5 10 20 50",
    "zeno-sweep-absorption.csv": "zeno-sweep --mode absorption --n-values 10 20 50",
    "gate-discrete.json": "gate --n 1000",
    "gate-absorption.json": "gate --tau-d 0.000196",
    "fermion-report.json": "fermion-report --tau-d 0.01 --tau 1.0 --n 1000",
    "rate.json": "rate --params demos/rate_params.txt",
    "threshold.csv": "threshold --p-values 0.05 0.1 0.2 0.25 0.3 --trials 100000 --seed 1",
}


def _versions() -> str:
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "absent"
    return f"numpy {np.__version__}, scipy {scipy_version}"


def command_output(command: str, out_dir: Path) -> str:
    """Output of one README command, run in process; ``--out`` goes to ``out_dir``."""
    argv = shlex.split(command)
    out = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out = argv[i] = str(out_dir / argv[i])
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        code = main(argv)
    assert code == 0, f"zenogate {command}: exit code {code}"
    return Path(out).read_text(encoding="utf-8") if out else buffer.getvalue()


def first_json_difference(want, got, path="$"):
    """Path and values of the first structural or float difference, else None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return path, sorted(want), sorted(got)
        for key in sorted(want):
            found = first_json_difference(want[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path} (length)", len(want), len(got)
        for i, (a, b) in enumerate(zip(want, got)):
            found = first_json_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, float):
        return None if math.isclose(want, got, rel_tol=1e-12, abs_tol=0.0) else (path, want, got)
    return None if type(want) is type(got) and want == got else (path, want, got)


def first_csv_difference(want: str, got: str):
    """Field (header key, or column and row) and values of the first differing cell, else None."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return "line count", len(want_lines), len(got_lines)
    columns = next((line.split(",") for line in want_lines if not line.startswith("#")), [])
    for i, (a, b) in enumerate(zip(want_lines, got_lines)):
        if a == b:
            continue
        if a.startswith("#"):
            return a.split(":")[0], a, b
        cells = list(zip(columns, a.split(","), b.split(",")))
        column, x, y = next((cell for cell in cells if cell[1] != cell[2]), ("columns", a, b))
        return f"{column} (line {i + 1})", x, y
    return None


def test_golden_commands_are_the_readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = [
        " ".join(shlex.split(line, comments=True)[1:])
        for line in readme.splitlines()
        if line.startswith("zenogate ")
    ]
    assert listed == list(COMMANDS.values())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_readme_command_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    command = COMMANDS[name]
    text = command_output(command, tmp_path)
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".csv"):
        found = first_csv_difference(want, text) if text != want else None
    else:
        found = first_json_difference(json.loads(want), json.loads(text))
    if found:
        field, a, b = found
        pytest.fail(f"zenogate {command}: field {field}: golden {a!r}, got {b!r} ({_versions()})")


if __name__ == "__main__":
    os.chdir(ROOT)
    for name, command in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = command_output(command, Path(tmp))
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote tests/golden/{name}")
