"""Concrete syntax: lexer, binding-power parser, surface AST.

One unified expression grammar covers types, terms and adapters; the
elaborator sorts expressions by the position they appear in.  Comments
run from ``--`` to end of line.  The grammar is documented in
``docs/grammar.md``.

A position is an offset into the text; ``Source`` renders it as
``line:col`` when a diagnostic is printed.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate

from .syntax import record


class Source:
    """A text, and the offsets its lines start at, listed on the first
    lookup.  A column counts code points from 1."""

    __slots__ = ("text", "_starts")

    def __init__(self, text: str):
        self.text = text
        self._starts = None

    def line_col(self, off: int) -> tuple[int, int]:
        if self._starts is None:
            self._starts = list(accumulate(
                (len(line) + 1 for line in self.text.split("\n")), initial=0))
        line = bisect_right(self._starts, off)
        return line, off - self._starts[line - 1] + 1

    def at(self, name: str, off: int) -> str:
        """``name:LINE:COL`` of offset ``off``."""
        line, col = self.line_col(off)
        return f"{name}:{line}:{col}"


class ParseError(Exception):
    def __init__(self, message: str, src: Source, off: int, expected=()):
        self.line, self.col = src.line_col(off)
        super().__init__(f"{self.line}:{self.col}: {message}")
        self.message = message
        self.expected = tuple(expected)


KEYWORDS = (
    "base", "postulate", "adapter", "var", "covar", "def", "data",
    "check", "asserteq", "normalize", "fun", "fst", "snd", "id",
)

#: longest first, so that a prefix never wins
PUNCT = ("[[", "]]", ":=", "=>", "->", "**", "<|", "^-",
         "(", ")", ">", "{", "}", "[", "]", ";", ":", ",", ".", "=")

#: one token per match, after the whitespace and comments before it:
#: group 1 is a token, group 2 a stray character, and neither matches at
#: the end.  A match never fails, so it never backtracks into the skipped
#: prefix, whose nested repetition could take exponential time.
_TOKEN_RE = re.compile(
    r"(?:\s+|--[^\n]*)*"
    r"(?:(" + "|".join(map(re.escape, PUNCT))
    + r"|Ty[+-]|[A-Za-z_][A-Za-z0-9_']*)|(.)|\Z)")

#: the kind of a keyword or punctuation token is its own text
_KINDS = {k: k for k in KEYWORDS + PUNCT}


@record
class Tokens:
    """The tokens of one text as parallel lists, closed by an ``eof``
    token: kinds (``name``, ``eof``, or a keyword or punctuation text),
    texts and start offsets."""

    kinds: list[str]
    texts: list[str]
    offs: list[int]

    def __len__(self) -> int:
        return len(self.kinds)


def lex(text: str) -> Tokens:
    """All tokens of ``text`` in one pass."""
    kinds, texts, offs = [], [], []
    for m in _TOKEN_RE.finditer(text):
        tok = m[1]
        if tok is not None:
            kinds.append(_KINDS.get(tok, "name"))
            texts.append(tok)
            offs.append(m.start(1))
        elif m[2] is not None:
            raise ParseError(f"stray character {m[2]!r}", Source(text),
                             m.start(2))
    kinds.append("eof")
    texts.append("")
    offs.append(len(text))
    return Tokens(kinds, texts, offs)


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@record
class SName:
    """A name: a variable, base type, adapter, datatype or constructor."""

    name: str
    span: int


@record
class SApp:
    """Juxtaposition: ``fn arg``."""

    fn: SExpr
    arg: SExpr
    span: int


@record
class SArrow:
    """Function type ``A -> B`` or ``(x : A) -> B``."""

    binder: str | None
    dom: SExpr
    cod: SExpr
    span: int


@record
class SStar:
    """Pair type ``A ** B`` or ``(x : A) ** B``."""

    binder: str | None
    fst: SExpr
    snd: SExpr
    span: int


@record
class SFun:
    """Abstraction ``fun (x : A) => t``."""

    binder: str
    dom: SExpr
    body: SExpr
    span: int


@record
class SFst:
    """First projection ``fst p``."""

    arg: SExpr
    span: int


@record
class SSnd:
    """Second projection ``snd p``."""

    arg: SExpr
    span: int


@record
class SPair:
    """Annotated pair ``(a, b : T)``."""

    fst: SExpr
    snd: SExpr
    ty: SExpr
    span: int


@record
class SCast:
    """Cast ``t <| a`` of a term along an adapter."""

    tm: SExpr
    ad: SExpr
    span: int


@record
class SComp:
    """Adapter composition ``after . before``."""

    after: SExpr
    before: SExpr
    span: int


@record
class SId:
    """Identity adapter ``id``, at a type or bare."""

    at: SExpr | None
    span: int


@record
class SSpineComp:
    """One component of a push, with the names it binds: ``x y => e``."""

    binders: tuple[str, ...]
    body: SExpr
    span: int


@record
class SPush:
    """Functorial adapter ``head [[ c1 > c2 > ... ]]``."""

    head: SExpr
    comps: tuple[SSpineComp, ...]
    span: int


@record
class SFam:
    """Type family with explicit binders: ``(x y => T)``."""

    binders: tuple[str, ...]
    body: SExpr
    span: int


SExpr = (SName | SApp | SArrow | SStar | SFun | SFst | SSnd | SPair
         | SCast | SComp | SId | SPush | SFam)


@record
class PTyParam:
    """Type parameter of a datatype: its telescope and direction."""

    name: str
    tele: tuple[tuple[str, SExpr], ...]
    dir: str   # "+" or "-"
    span: int


@record
class PTmParam:
    """Term parameter of a datatype."""

    name: str
    ty: SExpr
    span: int


@record
class SConDecl:
    """Constructor declaration: named arguments and result type."""

    name: str
    args: tuple[tuple[str, SExpr], ...]
    result: SExpr
    span: int


@record
class DBase:
    """``base A ;``"""

    name: str
    span: int


@record
class DPostulate:
    """``postulate adapter f : A => B ;``"""

    name: str
    src: SExpr
    tgt: SExpr
    span: int


@record
class DVar:
    """``var x : A ;``, or ``covar x : A ;`` when ``neg``."""

    name: str
    ty: SExpr
    span: int
    neg: bool = False


@record
class DDef:
    """``def x : A := t ;``"""

    name: str
    ty: SExpr
    tm: SExpr
    span: int


@record
class DData:
    """``data`` declaration: parameters, indices and constructors."""

    name: str
    params: tuple[PTyParam | PTmParam, ...]
    indices: tuple[tuple[str | None, SExpr], ...]
    cons: tuple[SConDecl, ...]
    span: int


@record
class DCheck:
    """``check t : A ;``"""

    tm: SExpr
    ty: SExpr
    span: int


@record
class DAssertEq:
    """``asserteq l = r : A ;``"""

    lhs: SExpr
    rhs: SExpr
    ty: SExpr
    span: int


@record
class DNormalize:
    """``normalize t ;``"""

    tm: SExpr
    span: int


Decl = (DBase | DPostulate | DVar | DDef | DData | DCheck | DAssertEq
        | DNormalize)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: binding levels, loosest first
ARROW, STAR, CAST, COMP, JUXT = range(5)

#: infix token -> (its level, the level of its right operand, node).  The
#: right operand of ``->`` and ``**`` is read at their own level, so they
#: associate to the right; ``<|`` and ``.`` read one level tighter and
#: associate to the left.  Juxtaposition, at JUXT, applies at every level
#: and takes one atom as its right operand.
INFIX = {
    "->": (ARROW, ARROW, partial(SArrow, None)),
    "**": (STAR, STAR, partial(SStar, None)),
    "<|": (CAST, COMP, SCast),
    ".": (COMP, JUXT, SComp),
}

#: kinds of the tokens that start an atom
ATOM_START = frozenset({"name", "(", "fun", "fst", "snd", "id"})

#: keywords that open a declaration, as a parse error lists them; the
#: contravariant ``covar`` opens one too
DECLS = ("base", "postulate", "var", "def", "data", "check", "asserteq",
         "normalize")


class Parser:
    def __init__(self, text: str):
        toks = lex(text)
        self.kinds, self.texts, self.offs = toks.kinds, toks.texts, toks.offs
        self.src = Source(text)
        self.pos = 0

    # -- token plumbing

    def error(self, what: str, expected) -> ParseError:
        """``what`` was expected where the current token is."""
        found = self.texts[self.pos] or "end of input"
        return ParseError(f"{what}, found {found!r}", self.src,
                          self.offs[self.pos], expected)

    def eat(self, kind: str) -> int:
        """Consume a token of ``kind``; returns its index."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(f"expected {kind!r}", (kind,))
        self.pos = pos + 1
        return pos

    def name(self) -> str:
        return self.texts[self.eat("name")]

    def then(self, kind: str) -> SExpr:
        """A token of ``kind``, then an expression."""
        self.eat(kind)
        return self.expr()

    def binding(self) -> tuple[str, SExpr]:
        """``(x : A)``."""
        self.eat("(")
        out = self.name(), self.then(":")
        self.eat(")")
        return out

    def names_then_fat_arrow(self) -> tuple[str, ...] | None:
        """``x y =>``: the names, consumed with the arrow, or None (and
        nothing consumed) unless one or more names precede ``=>``."""
        kinds, k = self.kinds, self.pos
        while kinds[k] == "name":
            k += 1
        if k == self.pos or kinds[k] != "=>":
            return None
        names = tuple(self.texts[self.pos:k])
        self.pos = k + 1
        return names

    # -- declarations

    def file(self) -> list[Decl]:
        out = []
        while self.kinds[self.pos] != "eof":
            out.append(self.decl())
        return out

    def decl(self) -> Decl:
        """One declaration; arguments are read left to right, in the
        order of the grammar."""
        kind, span = self.kinds[self.pos], self.offs[self.pos]
        if kind == "data":
            return self.data_decl()
        if kind not in DECLS and kind != "covar":
            raise self.error("expected a declaration", DECLS)
        self.pos += 1
        if kind == "base":
            out = DBase(self.name(), span)
        elif kind == "postulate":
            self.eat("adapter")
            out = DPostulate(self.name(), self.then(":"), self.then("=>"),
                             span)
        elif kind == "var" or kind == "covar":
            out = DVar(self.name(), self.then(":"), span, kind == "covar")
        elif kind == "def":
            out = DDef(self.name(), self.then(":"), self.then(":="), span)
        elif kind == "check":
            out = DCheck(self.expr(), self.then(":"), span)
        elif kind == "asserteq":
            out = DAssertEq(self.expr(), self.then("="), self.then(":"), span)
        else:
            out = DNormalize(self.expr(), span)
        self.eat(";")
        return out

    def data_decl(self) -> DData:
        span = self.offs[self.eat("data")]
        n = self.name()
        kinds = self.kinds
        params: list[PTyParam | PTmParam] = []
        while kinds[self.pos] == "(":
            params.append(self.param())
        indices = []
        while kinds[self.pos] == "[":
            self.pos += 1
            iname = None
            if kinds[self.pos] == "name" and kinds[self.pos + 1] == ":":
                iname = self.texts[self.pos]
                self.pos += 2
            indices.append((iname, self.expr()))
            self.eat("]")
        self.eat("{")
        cons = []
        while kinds[self.pos] != "}":
            cons.append(self.con_decl())
            if kinds[self.pos] != ";":
                break
            self.pos += 1
        self.eat("}")
        return DData(n, tuple(params), tuple(indices), tuple(cons), span)

    def param(self) -> PTyParam | PTmParam:
        span = self.offs[self.eat("(")]
        n = self.name()
        self.eat(":")
        save = self.pos
        tele = self.try_ty_param_sort()
        if tele is not None:
            binders, d = tele
            self.eat(")")
            return PTyParam(n, binders, d, span)
        self.pos = save
        ty = self.expr()
        self.eat(")")
        return PTmParam(n, ty, span)

    def try_ty_param_sort(self):
        """``(x : A) (y : B) ... Ty+`` or bare ``Ty-``; None if this is
        not a type-parameter sort."""
        binders = []
        try:
            while self.kinds[self.pos] == "(":
                binders.append(self.binding())
            sort = self.texts[self.pos]
            if sort in ("Ty+", "Ty-"):
                self.pos += 1
                return tuple(binders), sort[-1]
        except ParseError:
            pass
        return None

    def con_decl(self) -> SConDecl:
        span = self.offs[self.pos]
        n = self.name()
        self.eat(":")
        kinds = self.kinds
        args = []
        while kinds[self.pos] == "(" and kinds[self.pos + 1] == "name" \
                and kinds[self.pos + 2] == ":":
            args.append(self.binding())
        if args:
            self.eat("->")
        return SConDecl(n, tuple(args), self.expr(), span)

    # -- expressions

    def expr(self, level: int = ARROW) -> SExpr:
        """An expression whose infix operators bind at ``level`` or
        tighter.  At arrow level it may open with a binder.  Every node
        built here is spanned by the first token of its left operand."""
        kinds, pos = self.kinds, self.pos
        span = self.offs[pos]
        if (level == ARROW and kinds[pos] == "("
                and kinds[pos + 1] == "name" and kinds[pos + 2] == ":"):
            return self.binder(span)
        out = self.atom()
        while True:
            kind = kinds[self.pos]
            op = INFIX.get(kind)
            if op is not None:
                if op[0] < level:
                    return out
                self.pos += 1
                out = op[2](out, self.expr(op[1]), span)
            elif kind in ATOM_START:
                out = SApp(out, self.atom(), span)
            else:
                return out

    def binder(self, span: int) -> SExpr:
        """``(x : A) -> B`` or ``(x : A) ** B``, committed to on the
        lookahead ``( name :``; both bodies are arrow-level.  When no
        binder follows after all, the colon is where the expression
        ``(x`` should have closed."""
        kinds, colon = self.kinds, self.pos + 2
        name = self.texts[self.pos + 1]
        self.pos += 3
        try:
            dom = self.expr()
        except ParseError:
            dom = None
        if (dom is None or kinds[self.pos] != ")"
                or kinds[self.pos + 1] not in ("->", "**")):
            raise ParseError("expected ')', found ':'", self.src,
                             self.offs[colon], expected=(")",))
        node = SArrow if kinds[self.pos + 1] == "->" else SStar
        self.pos += 2
        return node(name, dom, self.expr(), span)

    def atom(self) -> SExpr:
        """One atom with the spine pushes ``[[ ... ]]`` that follow it."""
        kinds, pos = self.kinds, self.pos
        kind, span = kinds[pos], self.offs[pos]
        if kind == "name":
            self.pos = pos + 1
            out = SName(self.texts[pos], span)
        elif kind == "(":
            self.pos = pos + 1
            binders = self.names_then_fat_arrow()
            if binders is not None:
                out = SFam(binders, self.expr(), span)
            else:
                out = self.expr()
                if kinds[self.pos] == ",":
                    out = SPair(out, self.then(","), self.then(":"), span)
            self.eat(")")
        elif kind == "fun":
            self.pos = pos + 1
            n, dom = self.binding()
            out = SFun(n, dom, self.then("=>"), span)
        elif kind == "fst" or kind == "snd":
            self.pos = pos + 1
            out = (SFst if kind == "fst" else SSnd)(self.atom(), span)
        elif kind == "id":
            self.pos = pos + 1
            out = SId(self.atom() if kinds[self.pos] in ATOM_START else None,
                      span)
        else:
            raise self.error("expected an expression",
                             ("name", "(", "fun", "fst", "snd", "id"))
        while kinds[self.pos] == "[[":
            span = self.offs[self.pos]
            self.pos += 1
            comps: list[SSpineComp] = []
            if kinds[self.pos] != "]]":
                comps.append(self.spine_comp())
                while kinds[self.pos] == ">":
                    self.pos += 1
                    comps.append(self.spine_comp())
            self.eat("]]")
            out = SPush(out, tuple(comps), span)
        return out

    def spine_comp(self) -> SSpineComp:
        span = self.offs[self.pos]
        binders = self.names_then_fat_arrow()
        return SSpineComp(binders or (), self.expr(), span)


def parse(text: str) -> list[Decl]:
    return Parser(text).file()
