"""Deep inputs through the whole pipeline at the stock recursion limit.

A generated ``surface_scale`` file nests one parenthesis per list cell,
so its cell count is its nesting depth.  At 256 cells the file must
parse, elaborate, check and print exactly the verdicts its generator
knows by construction; at 600 cells, past the recursion limit, it must
print a ``TooDeep`` diagnostic and exit 5."""

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys

from adaptt import cli
from perfbench.gen import surface_file

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_256_cell_surface_file_checks(tmp_path):
    sf = surface_file(random.Random(1), 256)
    path = tmp_path / "deep.adt"
    path.write_text(sf.text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(path)])
    assert code == sf.expected_exit
    assert buf.getvalue().splitlines() == [
        line.format(path=path) for line in sf.expected_lines]


def test_600_cell_surface_file_is_a_too_deep_diagnostic(tmp_path):
    # past the stock recursion limit: a rendered diagnostic with its own
    # exit code, not a traceback
    path = tmp_path / "deeper.adt"
    path.write_text(surface_file(random.Random(1), 600).text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "adaptt.cli", "check",
                           str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == f"ERROR TooDeep {path} input nested too deeply\n"
