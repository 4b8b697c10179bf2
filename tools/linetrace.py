"""Pytest plugin: report the lines of ``src/adaptt`` that a test run never
reaches, with no coverage package.  Run from the repository root::

    PYTHONPATH=src python -m pytest -q -p tools.linetrace tests perfbench/tests

The executable lines of a module are those of its function bodies (the
``co_lines`` of every function, lambda and comprehension its source
compiles to; the module and class bodies, which run at import, are left
out).  A line counts as reached when a ``sys.settrace`` (and
``threading.settrace``) trace sees a call or line event there.  Code run
in a subprocess, as by the tests that start the ``adaptt`` command, is
not traced.  The report is printed after the test summary, one row per
module: its unreached and its executable line counts, and the unreached
lines.  It gates nothing.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
import types
from collections import defaultdict
from inspect import CO_NEWLOCALS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adaptt"

#: absolute filename -> line numbers a trace event was seen at
_reached: dict[str, set[int]] = defaultdict(set)
#: code object -> the line set of its module, or None if not traced
_lines_of: dict[object, set[int] | None] = {}


def _global(frame, event, arg):
    code = frame.f_code
    try:
        lines = _lines_of[code]
    except KeyError:
        path = os.path.realpath(code.co_filename)
        lines = _lines_of[code] = (
            _reached[path] if path.startswith(str(SRC) + os.sep) else None)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines of every function body ``path`` compiles to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """``1-3,7`` for lines 1, 2, 3 and 7."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ",".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                    for r in out)


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("unreached src/adaptt lines (function bodies)")
    total = unreached_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unreached = lines - _reached.get(os.path.realpath(path), set())
        total += len(lines)
        unreached_total += len(unreached)
        write(f"{path.stem:12} {len(unreached):4}/{len(lines):<5} "
              f"{_ranges(unreached)}")
    write(f"{'total':12} {unreached_total:4}/{total:<5}")
