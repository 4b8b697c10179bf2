"""Print the size of each module of ``src/adaptt``: its total lines and
its code lines, then the sums.  Run from the repository root::

    python tools/srcsize.py

A line is code when it holds a token other than a comment, a newline,
an indent or a dedent, or a string that is a statement by itself (a
docstring).  A token that spans lines, such as a triple-quoted string
passed as an argument, makes every line it spans code.  The count reads
the source with ``tokenize`` and imports nothing from the package.
"""

from __future__ import annotations

import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adaptt"

#: tokens that never make a line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
#: tokens of a string literal (3.12 splits an f-string into three kinds)
_STRING = {tokenize.STRING} | {
    getattr(tokenize, n) for n in ("FSTRING_START", "FSTRING_MIDDLE",
                                   "FSTRING_END") if hasattr(tokenize, n)}


def sizes(path: pathlib.Path) -> tuple[int, int]:
    """``(total lines, code lines)`` of one source file."""
    with path.open("rb") as f:
        text = f.read()
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    code, statement = set(), []
    for tok in tokens:
        if tok.type == tokenize.NEWLINE:
            # a logical line of string tokens alone is a docstring
            if any(t.type not in _STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT and tok.type != tokenize.ENCODING:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def main() -> None:
    total = code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(SRC.glob("*.py")):
        n, c = sizes(path)
        total, code = total + n, code + c
        print(f"{n:>6} {c:>6}  {path.stem}")
    print(f"{total:>6} {code:>6}  total")


if __name__ == "__main__":
    main()
