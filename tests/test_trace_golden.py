"""Golden CLI transcripts: stdout and exit code of the corpus commands,
with and without ``--trace``, byte for byte.  The traced runs pin every
rewrite rule the kernel reports, in order, with its ``AT`` path.

The commands run in-process from the repository root with relative
``corpus/...`` paths, so the bytes do not depend on where the checkout
lives.  After a deliberate change to the output, rewrite the files with
``PYTHONPATH=src python tests/test_trace_golden.py`` from the root and
review the diff."""

import contextlib
import io
import os
import pathlib

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "check-casts": ["check", "corpus/casts.adt"],
    "check-prelude": ["check", "corpus/prelude.adt"],
    "check-tree": ["check", "corpus/tree.adt"],
    "check-broken": ["check", "corpus/broken.adt"],
    "model-casts": ["model", "corpus/casts.adt",
                    "--bindings", "corpus/bindings_small.json"],
    "derive-list": ["derive", "corpus/prelude.adt", "List"],
    "derive-w-json": ["derive", "corpus/prelude.adt", "W", "--json"],
    "norm-casts": ["norm", "corpus/casts.adt", "-e",
                   "cons A a (nil A) <| List [[ g . f ]]"],
    "selftest": ["selftest"],
}

CASES = [(name, trace) for name in COMMANDS for trace in (False, True)]


def transcript(name: str, trace: bool) -> str:
    """``exit <code>`` on the first line, then stdout as printed."""
    argv = (["--trace"] if trace else []) + COMMANDS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def golden_path(name: str, trace: bool) -> pathlib.Path:
    return GOLDEN / f"{name}{'.trace' if trace else ''}.txt"


@pytest.mark.parametrize("name,trace", CASES,
                         ids=[f"{n}{'-trace' if t else ''}" for n, t in CASES])
def test_cli_output_matches_golden(name, trace, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = golden_path(name, trace).read_text(encoding="utf-8")
    assert transcript(name, trace) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, trace in CASES:
        golden_path(name, trace).write_text(transcript(name, trace),
                                            encoding="utf-8")
