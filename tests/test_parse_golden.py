"""Golden parse outcomes: one line per input, pinning what the parser
makes of it.

The inputs are seeded token mutations (delete, insert, swap) of the
shipped corpus, of generated ``surface_scale`` files and of the printed
stock datatype declarations, plus hand-picked expressions around the
binder and precedence rules.  A line records either ``OK`` and a digest
of the AST's ``repr`` (spans included, each offset written as its
``(line, col)``), or ``ERR`` with the error's ``line:col``, message and
expected-token set.  So a parser rewrite that keeps this file unchanged
keeps every AST, every span and every parse diagnostic.

The inputs are rebuilt from their seeds on every run; each line also
carries a digest of its input text, so a drift in the inputs shows as
such.  After a deliberate change to the parser, rewrite the file with
``PYTHONPATH=src python tests/test_parse_golden.py`` from the root and
review the diff."""

from __future__ import annotations

import hashlib
import pathlib
import random
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:   # perfbench/ sits beside src/
    sys.path.insert(0, str(ROOT))

import adaptt  # noqa: E402,F401  (registers the stock datatypes)
from adaptt import surface as S  # noqa: E402
from adaptt.inductive import data_decl_string  # noqa: E402
from adaptt.syntax import desc  # noqa: E402
from perfbench.gen import surface_file  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "parse-outcomes.txt"

CORPUS = ("prelude", "casts", "tree", "broken")
STOCK = ("Nat", "List", "Vec", "Sum", "W", "Id")

#: expressions around binders, precedence and juxtaposition
HAND = (
    "(x : A) ** B -> C",
    "A ** (x : B) -> C",
    "f (x : A) -> B",
    "(x : A B) -> C",
    "(x : A) <| f",
    "a ** b <| f -> c",
    "id A . f",
    "fst p q",
    "(x y => T) a",
    "Pi [[ a > x => b ]]",
    "(a , b : A ** B)",
    "( x :",
)

# The mutation tokenizer is written out here, not borrowed from the
# lexer under test, so the inputs cannot move with the lexer.
_PIECE = re.compile(r"""
    \s+ | --[^\n]*
  | \[\[ | \]\] | := | => | -> | \*\* | <\| | \^-
  | Ty[+-] | [A-Za-z_][A-Za-z0-9_']*
  | .
""", re.VERBOSE | re.DOTALL)

_INSERTS = (
    "(", ")", "[[", "]]", "[", "]", "{", "}", ";", ":", ",", ".", "=",
    ":=", "=>", "->", "**", "<|", ">", "^-", "x", "A", "f", "Ty+",
    "fun", "fst", "snd", "id", "data", "check", "@",
)

MUTANTS_PER_FILE = 160
MUTANTS_PER_HAND = 20


def _mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """One to three token edits of ``text``; returns the edit log and
    the mutated text."""
    pieces = _PIECE.findall(text)
    log = []
    for _ in range(rng.randint(1, 3)):
        toks = [i for i, p in enumerate(pieces)
                if not p.isspace() and not p.startswith("--")]
        op = rng.choice(("del", "ins", "swap"))
        if not toks:
            op = "ins"
        if op == "del":
            i = rng.choice(toks)
            log.append(f"del{i}")
            del pieces[i]
        elif op == "ins":
            i = rng.randrange(len(pieces) + 1)
            t = rng.choice(_INSERTS)
            log.append(f"ins{i}:{t}")
            pieces[i:i] = [" ", t, " "]
        else:
            k = rng.randrange(len(toks))
            i, j = toks[k], toks[(k + 1) % len(toks)]
            log.append(f"swap{i}:{j}")
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return ",".join(log), "".join(pieces)


def sources() -> list[tuple[str, str, str]]:
    """``(name, mode, text)``; mode ``file`` parses a whole file, mode
    ``expr`` one expression up to end of input."""
    out = []
    for name in CORPUS:
        text = (ROOT / "corpus" / f"{name}.adt").read_text(encoding="utf-8")
        out.append((f"corpus/{name}", "file", text))
    for seed in (1, 2, 3):
        out.append((f"surface/{seed}", "file",
                    surface_file(random.Random(seed), 6).text))
    for name in STOCK:
        out.append((f"data/{name}", "file", data_decl_string(desc(name))))
    for k, text in enumerate(HAND):
        out.append((f"hand/{k}", "expr", text))
    return out


def inputs() -> list[tuple[str, str, str]]:
    """Every input: each source as is, then its seeded mutants."""
    out = []
    for name, mode, text in sources():
        out.append((name, mode, text))
        rng = random.Random(f"parse-golden:{name}")
        count = MUTANTS_PER_HAND if mode == "expr" else MUTANTS_PER_FILE
        for k in range(count):
            log, mutant = _mutate(text, rng)
            out.append((f"{name}#{k}[{log}]", mode, mutant))
    return out


def _digest(s: str) -> str:
    return hashlib.sha1(s.encode("utf-8")).hexdigest()[:16]


def outcome(mode: str, text: str) -> str:
    try:
        if mode == "file":
            ast = S.parse(text)
        else:
            p = S.Parser(text)
            ast = p.expr()
            p.eat("eof")
    except S.ParseError as e:
        return f"ERR {e.line}:{e.col} {e.message} {e.expected!r}"
    return f"OK {_digest(_placed(repr(ast), S.Source(text)))}"


def _placed(shown: str, src: S.Source) -> str:
    """``shown`` with each offset span written as its ``(line, col)``."""
    return _SPAN.sub(lambda m: f"span={src.line_col(int(m[1]))}", shown)


_SPAN = re.compile(r"\bspan=(\d+)")


def render() -> str:
    return "".join(f"{name}\t{_digest(text)}\t{outcome(mode, text)}\n"
                   for name, mode, text in inputs())


def test_parse_outcomes_match_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = render().splitlines()
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} outcomes differ; first: {bad[0]}"


def test_golden_covers_every_outcome_kind():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2000
    outcomes = [line.split("\t")[2] for line in lines]
    assert sum(o.startswith("OK ") for o in outcomes) >= 100
    assert any("stray character" in o for o in outcomes)
    assert any("expected ')', found ':'" in o for o in outcomes)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
