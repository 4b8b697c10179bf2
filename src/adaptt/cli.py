"""Batch command-line front end.

Exit status: 0 success, 1 type or conversion error, 2 parse error,
3 oracle failure, 4 usage error, 5 resource limit (input nested too
deeply, or too large for the available memory).  An error in a
``norm -e`` expression is a diagnostic like one in the file, placed at
``-e:LINE:COL``; a kernel failure there has no place and prints
``ERROR Kernel <file> <reason>``, exit 1.  A reader that closes stdout
early (``adaptt ... | head -1``) also gives 1, with nothing on stderr:
the rest of the output is discarded.  A bare ``adaptt`` (no command)
prints the help and gives 4, also when its reader is gone
(``adaptt | true``), again with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import os
import sys

from . import surface, elaborate, inductive, pretty, normalize, setmodel
from .check import CheckError
from .surface import ParseError
from .syntax import SESSION, Session

OK = 0
TYPE_ERROR = 1
PARSE_ERROR = 2
ORACLE_FAILURE = 3
USAGE = 4
RESOURCE_LIMIT = 5

def _read(path: str) -> str:
    """Text of an input file; undecodable bytes raise ``OSError`` too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OSError(None, f"not UTF-8 at byte {e.start}", path) from None


def _report(e: ParseError | CheckError, where: str,
            src: surface.Source | None) -> int:
    """Print the ``ERROR`` line of a parse error or a diagnostic placed in
    ``where``, whose text is ``src``; returns the exit status."""
    if isinstance(e, ParseError):
        print(f"ERROR Parse {where}:{e.line}:{e.col} {e.message}")
        return PARSE_ERROR
    print(e.diag.render(where, src))
    return TYPE_ERROR


def cmd_check(args, src: surface.Source) -> int:
    out = elaborate.elab_file(surface.parse(src.text))
    failures = 0
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        if normalize.conv_tm(ctx, ty, lhs, rhs):
            print(f"OK asserteq {src.at(args.file, span)}")
        else:
            failures += 1
            print(f"ERROR ConversionFailed {src.at(args.file, span)} "
                  f"expected {pretty.tm_string(ctx, rhs, names)} "
                  f"got {pretty.tm_string(ctx, lhs, names)}")
    for ctx, names, tm, span in out.normalizes:
        print(f"NORMAL {pretty.tm_string(ctx, tm, names)}")
    print(f"checked {args.file}: {len(out.datas)} datatypes, "
          f"{len(out.checks)} checks, {len(out.asserts)} equations")
    return TYPE_ERROR if failures else OK


def cmd_norm(args, src: surface.Source) -> int:
    sc = elaborate.elab_file(surface.parse(src.text)).scope
    try:
        tm, ty = elaborate.elab_expr_in(sc, args.expr)
    except (ParseError, CheckError) as e:
        if isinstance(e, ParseError) or e.diag.span is not None:
            return _report(e, "-e", surface.Source(args.expr))
        return _report(e, args.file, src)
    names = list(sc.names)
    print(pretty.tm_string(sc.ctx, tm, names))
    print(f": {pretty.ty_string(sc.ctx, ty, names)}")
    return OK


def cmd_derive(args, src: surface.Source) -> int:
    elaborate.elab_file(surface.parse(src.text))
    if args.name not in SESSION.get().descs:
        print(f"ERROR UnknownDatatype {args.file} {args.name}")
        return USAGE
    doc = inductive.derive_rule_doc(args.name)
    if args.json:
        print(json.dumps(doc, indent=2))
        return OK
    print(f"datatype {doc['name']}")
    for p in doc["params"]:
        if "type" in p:
            print(f"  parameter {p['name']} : {p['type']}")
            continue
        tele = " ".join(f"({s})" for s in p["telescope"]) or "-"
        print(f"  parameter {p['name']} : Ty{p['dir']} over {tele}")
    for i, s in enumerate(doc["indices"]):
        print(f"  index {i} : {s}")
    print("adapter rule:")
    for prem in doc["adapterRule"]["premises"]:
        print(f"  premise    {prem}")
    print(f"  conclusion {doc['adapterRule']['conclusion']}")
    print("computation:")
    for row in doc["computation"]:
        print(f"  {row['lhs']}")
        print(f"    == {row['rhs']}")
    return OK


def cmd_model(args, src: surface.Source) -> int:
    try:
        out = elaborate.elab_file(surface.parse(src.text))
        binding = setmodel.ModelBinding.from_json(_read(args.bindings))
    except setmodel.ModelError as e:
        print(f"ERROR Bindings {args.bindings} {e}")
        return USAGE
    ev = setmodel.Evaluator(binding)
    bad = 0
    skipped = 0
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        loc = src.at(args.file, span)
        conv_ok = normalize.conv_tm(ctx, ty, lhs, rhs)
        try:
            used = (setmodel.free_tm_vars(lhs) | setmodel.free_tm_vars(rhs)
                    | setmodel.free_tm_vars(ty))
            envs = setmodel.enumerate_envs(ev, ctx, used)
            agree = all(
                setmodel.sem_eq(ev.eval_tm(env, lhs), ev.eval_tm(env, rhs))
                for env in envs)
        except setmodel.NonEnumerable as e:
            skipped += 1
            print(f"SKIP {loc} unevaluable: {e}")
            continue
        except setmodel.ModelError as e:
            print(f"ERROR Model {loc} {e}")
            return USAGE
        if conv_ok and not agree:
            print(f"FAIL {loc} kernel equates but the model separates "
                  f"(unsound rewrite witnessed)")
            bad += 1
        else:
            tag = "OK" if agree else "OK(separated)"
            print(f"{tag} {loc} conv={conv_ok} model={agree}")
    print(f"model: {len(out.asserts) - skipped} evaluated, {skipped} skipped, "
          f"{bad} disagreements")
    return ORACLE_FAILURE if bad else OK


def cmd_selftest(args, src: None) -> int:
    results = inductive.run()
    bad = 0
    for label, ok in results:
        print(f"{'OK  ' if ok else 'FAIL'} {label}")
        bad += 0 if ok else 1
    print(f"selftest: {len(results) - bad}/{len(results)} rows hold")
    return OK if bad == 0 else TYPE_ERROR


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adaptt",
        description="Type theory with first-class structural type casts")
    ap.add_argument("--trace", action="store_true",
                    help="print one line per rewrite step")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("check", help="parse, elaborate and check a file")
    p.add_argument("file")

    p = sub.add_parser("norm", help="normalize an expression in a file's scope")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True)

    p = sub.add_parser("derive", help="print the derived adapter rule")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("model", help="run the finite-set oracle on a file")
    p.add_argument("file")
    p.add_argument("--bindings", required=True)

    sub.add_parser("selftest", help="check the derived cast rows of every "
                                "stock datatype and Tree")
    return ap


#: built once at import; ``parse_args`` and ``print_help`` only read it,
#: and nothing may mutate it after this line
ARG_PARSER = _arg_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = ARG_PARSER.parse_args(argv)
    except SystemExit:
        return USAGE
    handlers = {
        "check": cmd_check,
        "norm": cmd_norm,
        "derive": cmd_derive,
        "model": cmd_model,
        "selftest": cmd_selftest,
    }
    bare = args.cmd not in handlers
    try:
        if bare:
            ARG_PARSER.print_help()
            code = USAGE
        else:
            code = contextvars.copy_context().run(_run, handlers[args.cmd],
                                                  args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so that the
        # flush at exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE if bare else TYPE_ERROR


def _run(handler, args) -> int:
    """The one error boundary, in a fresh session: the stock datatypes,
    and the ``RULE`` printer under ``--trace``, else the caller's sink."""
    sink = SESSION.get().sink
    if args.trace:
        sink = lambda rule, path: print(f"RULE {rule} AT {path}")
    SESSION.set(Session(dict(inductive.STOCK), sink))
    where = getattr(args, "file", args.cmd)     # ``selftest`` reads no file
    src = None
    try:
        if hasattr(args, "file"):
            src = surface.Source(_read(args.file))
        return handler(args, src)
    except (ParseError, CheckError) as e:
        return _report(e, where, src)
    except RecursionError:
        print(f"ERROR TooDeep {where} input nested too deeply")
        return RESOURCE_LIMIT
    except MemoryError:
        print(f"ERROR TooLarge {where} input too large for available memory")
        return RESOURCE_LIMIT
    except BrokenPipeError:
        raise       # a closed stdout, not an unreadable input: see ``main``
    except FileNotFoundError as e:
        print(f"ERROR NoSuchFile {e.filename}")
        return USAGE
    except OSError as e:
        print(f"ERROR Unreadable {e.filename} {e.strerror}")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
