"""Command-line front end: exit statuses, output stability, tracing."""

import io
import json
import os
import contextlib
import subprocess
import sys

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import cli


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_selftest_passes():
    code, out = run(["selftest"])
    assert code == 0
    assert out.count("OK") >= 12
    assert "FAIL" not in out


def test_check_good_file():
    code, out = run(["check", "corpus/casts.adt"])
    assert code == 0
    assert "checked corpus/casts.adt" in out


def test_check_type_error_exit_1():
    code, out = run(["check", "corpus/broken.adt"])
    assert code == 1
    assert "ERROR ClassifierMismatch" in out
    assert "expected B got A" in out


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "bad.adt"
    p.write_text("data List (X : Ty+")
    code, out = run(["check", str(p)])
    assert code == 2
    assert "ERROR Parse" in out


def test_usage_error_exit_4():
    code, _ = run([])
    assert code == 4
    code, _ = run(["check", "no-such-file.adt"])
    assert code == 4


#: bindings files that are not JSON or not shaped like a binding
_BAD_BINDINGS = {"malformed-json": '{"types": ', "list": "[]",
                 "labels-not-a-list": '{"types": {"A": 3}}'}


@pytest.mark.parametrize("label", ["non-utf8", "directory", *_BAD_BINDINGS])
def test_unreadable_input_is_a_usage_diagnostic(label, tmp_path):
    if label == "non-utf8":
        path = tmp_path / "latin.adt"
        path.write_bytes("base \u00c5 ;\n".encode("latin-1"))
        argv, kind = ["check", str(path)], "Unreadable"
    elif label == "directory":
        argv, kind = ["check", str(tmp_path)], "Unreadable"
    else:
        path = tmp_path / "bindings.json"
        path.write_text(_BAD_BINDINGS[label])
        argv = ["model", "corpus/casts.adt", "--bindings", str(path)]
        kind = "Bindings"
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "adaptt.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"ERROR {kind} {argv[-1]} ")


def test_norm_evaluates_in_scope():
    code, out = run(["norm", "corpus/casts.adt", "-e",
                     "cons A a (nil A) <| List [[ g . f ]]"])
    assert code == 0
    assert "cons C (a <| f <| g) (nil C)" in out


def test_model_exit_0_and_reports():
    code, out = run(["model", "corpus/casts.adt",
                     "--bindings", "corpus/bindings_small.json"])
    assert code == 0
    assert "0 disagreements" in out


def test_derive_byte_stable():
    code1, out1 = run(["derive", "corpus/prelude.adt", "List", "--json"])
    code2, out2 = run(["derive", "corpus/prelude.adt", "List", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert list(doc.keys()) == ["name", "params", "indices", "constructors",
                                "adapterRule", "computation"]
    assert doc["adapterRule"]["conclusion"] == \
        "List [[ f ]] : List A => List A'"


def test_derive_conclusion_for_w():
    code, out = run(["derive", "corpus/tree.adt", "W", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["adapterRule"]["premises"] == ["f : A => A'", "g : B' => B"]
    assert doc["adapterRule"]["conclusion"] == \
        "W [[ f > g ]] : W A B => W A' B'"


def test_trace_flag_emits_rule_lines():
    code, out = run(["--trace", "norm", "corpus/casts.adt", "-e",
                     "a <| g . f"])
    assert code == 0
    assert any(line.startswith("RULE ") and " AT " in line
               for line in out.splitlines())


_TRACE_TWICE = """
import contextlib, io, json, sys
from adaptt import cli
outs = []
for path in sys.argv[1:]:
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--trace", "check", path])
        outs.append([code, buf.getvalue()])
print(json.dumps(outs))
"""


def test_trace_does_not_depend_on_process_history():
    # a fresh interpreter, so the first run of each file sees cold caches;
    # cached kernel computations replay their rule notes, so the second
    # run prints the same trace
    paths = [f"corpus/{name}.adt"
             for name in ("casts", "prelude", "tree", "broken")]
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _TRACE_TWICE, *paths],
                          capture_output=True, text=True, env=env, check=True)
    outs = json.loads(proc.stdout)
    for k, path in enumerate(paths):
        first, second = outs[2 * k], outs[2 * k + 1]
        assert first == second, path
        assert first == list(run(["--trace", "check", path])), path


def test_redefining_a_stock_datatype_is_a_diagnostic(tmp_path):
    p = tmp_path / "list.adt"
    p.write_text("data List (X : Ty+) {\n  nil : List X\n}\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == (f"ERROR Redefinition {p}:1:1 datatype List is already "
                   f"defined differently\n")


def test_redefining_a_datatype_from_an_earlier_file_is_a_diagnostic(tmp_path):
    first = tmp_path / "first.adt"
    first.write_text("data Box (X : Ty+) {\n  box : (x : X) -> Box X\n}\n")
    second = tmp_path / "second.adt"
    second.write_text("base A ;\n\ndata Box (X : Ty+) {\n  empty : Box X\n}\n")
    assert run(["check", str(first)])[0] == 0
    code, out = run(["check", str(second)])
    assert code == 1
    assert out == (f"ERROR Redefinition {second}:3:1 datatype Box is already "
                   f"defined differently\n")
