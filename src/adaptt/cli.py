"""Batch command-line front end.

Exit status: 0 success, 1 type or conversion error, 2 parse error,
3 oracle failure, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import surface, elaborate, pretty, normalize, setmodel
from .check import CheckError
from .surface import ParseError

OK = 0
TYPE_ERROR = 1
PARSE_ERROR = 2
ORACLE_FAILURE = 3
USAGE = 4


def _read(path: str) -> str:
    """Text of an input file; undecodable bytes raise ``OSError`` too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OSError(None, f"not UTF-8 at byte {e.start}", path) from None


def _load(path: str):
    return surface.parse(_read(path))


def _trace_on(args) -> bool:
    return bool(getattr(args, "trace", False) or os.environ.get("ADAPTT_TRACE"))


def _with_trace(args, fn):
    if _trace_on(args):
        normalize.set_trace(lambda rule, path: print(f"RULE {rule} AT {path}"))
    try:
        return fn()
    finally:
        normalize.set_trace(None)


def cmd_check(args) -> int:
    try:
        decls = _load(args.file)
        out = _with_trace(args, lambda: elaborate.elab_file(decls))
    except ParseError as e:
        print(f"ERROR Parse {args.file}:{e.line}:{e.col} {e.message}")
        return PARSE_ERROR
    except CheckError as e:
        print(e.diag.render(args.file))
        return TYPE_ERROR
    failures = 0
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        if normalize.conv_tm(ctx, ty, lhs, rhs):
            print(f"OK asserteq {args.file}:{span[0]}:{span[1]}")
        else:
            failures += 1
            print(f"ERROR ConversionFailed {args.file}:{span[0]}:{span[1]} "
                  f"expected {pretty.tm_string(ctx, rhs, names)} "
                  f"got {pretty.tm_string(ctx, lhs, names)}")
    for ctx, names, tm, span in out.normalizes:
        print(f"NORMAL {pretty.tm_string(ctx, normalize.nf(tm).value, names)}")
    print(f"checked {args.file}: {len(out.datas)} datatypes, "
          f"{len(out.checks)} checks, {len(out.asserts)} equations")
    return TYPE_ERROR if failures else OK


def cmd_norm(args) -> int:
    try:
        decls = _load(args.file)
        out = elaborate.elab_file(decls)
        sc = out.scope
        tm, ty = _with_trace(
            args, lambda: elaborate.elab_expr_in(sc, args.expr))
    except ParseError as e:
        print(f"ERROR Parse {args.file}:{e.line}:{e.col} {e.message}")
        return PARSE_ERROR
    except CheckError as e:
        print(e.diag.render(args.file))
        return TYPE_ERROR
    names = list(sc.names)
    print(pretty.tm_string(sc.ctx, normalize.nf(tm).value, names))
    print(f": {pretty.ty_string(sc.ctx, ty, names)}")
    return OK


def cmd_derive(args) -> int:
    from .inductive import derive_rule_doc
    try:
        decls = _load(args.file)
        elaborate.elab_file(decls)
        doc = derive_rule_doc(args.name)
    except ParseError as e:
        print(f"ERROR Parse {args.file}:{e.line}:{e.col} {e.message}")
        return PARSE_ERROR
    except CheckError as e:
        print(e.diag.render(args.file))
        return TYPE_ERROR
    except KeyError as e:
        print(f"ERROR UnknownDatatype {e}")
        return USAGE
    if args.json:
        print(json.dumps(doc, indent=2))
        return OK
    print(f"datatype {doc['name']}")
    for p in doc["params"]:
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


def cmd_model(args) -> int:
    try:
        decls = _load(args.file)
        out = elaborate.elab_file(decls)
        binding = setmodel.ModelBinding.from_json(_read(args.bindings))
    except ParseError as e:
        print(f"ERROR Parse {args.file}:{e.line}:{e.col} {e.message}")
        return PARSE_ERROR
    except CheckError as e:
        print(e.diag.render(args.file))
        return TYPE_ERROR
    except setmodel.ModelError as e:
        print(f"ERROR Bindings {args.bindings} {e}")
        return USAGE
    ev = setmodel.Evaluator(binding)
    bad = 0
    skipped = 0
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        loc = f"{args.file}:{span[0]}:{span[1]}"
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


def cmd_selftest(args) -> int:
    from . import golden
    results = _with_trace(args, golden.run)
    bad = 0
    for label, ok in results:
        print(f"{'OK  ' if ok else 'FAIL'} {label}")
        bad += 0 if ok else 1
    print(f"selftest: {len(results) - bad}/{len(results)} rows hold")
    return OK if bad == 0 else TYPE_ERROR


def main(argv: list[str] | None = None) -> int:
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

    sub.add_parser("selftest", help="run the stock computation rows")

    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return USAGE
    handlers = {
        "check": cmd_check,
        "norm": cmd_norm,
        "derive": cmd_derive,
        "model": cmd_model,
        "selftest": cmd_selftest,
    }
    if args.cmd not in handlers:
        ap.print_help()
        return USAGE
    try:
        return handlers[args.cmd](args)
    except FileNotFoundError as e:
        print(f"ERROR NoSuchFile {e.filename}")
        return USAGE
    except OSError as e:
        print(f"ERROR Unreadable {e.filename} {e.strerror}")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
