"""Deep inputs through the whole pipeline at the stock recursion limit.

A generated ``surface_scale`` file nests one parenthesis per list cell,
so its cell count is its nesting depth.  At 256 cells the file must
parse, elaborate, check and print exactly the verdicts its generator
knows by construction."""

import contextlib
import io
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:   # perfbench/ sits beside src/
    sys.path.insert(0, str(ROOT))

from adaptt import cli  # noqa: E402
from perfbench.gen import surface_file  # noqa: E402


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
