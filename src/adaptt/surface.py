"""Concrete syntax: lexer, binding-power parser, surface AST.

One unified expression grammar covers types, terms and adapters; the
elaborator sorts expressions by the position they appear in.  Comments
run from ``--`` to end of line.  The grammar is documented in
``docs/grammar.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


Span = tuple[int, int]

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<punct>\[\[|\]\]|:=|=>|->|\*\*|<\||\^-|[()>{}\[\];:,.=])
  | (?P<name>Ty[+-]|[A-Za-z_][A-Za-z0-9_']*)
  | (?P<stray>.)
""", re.VERBOSE)

KEYWORDS = {
    "base", "postulate", "adapter", "var", "covar", "def", "data",
    "check", "asserteq", "normalize", "fun", "fst", "snd", "id",
}


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind    # "name", "kw", "eof", or the punctuation itself
        self.text = text
        self.span = span


def lex(text: str) -> list[Token]:
    """All tokens of ``text`` in one pass, closed by an ``eof`` token; a
    column is the offset from the start of its line, plus one."""
    out = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group, chunk, start = m.lastgroup, m.group(), m.start()
        if group == "ws":
            if "\n" in chunk:
                line += chunk.count("\n")
                line_start = start + chunk.rfind("\n") + 1
            continue
        span = (line, start - line_start + 1)
        if group == "punct":
            out.append(Token(chunk, chunk, span))
        elif group == "name":
            out.append(Token("kw" if chunk in KEYWORDS else "name", chunk, span))
        else:
            raise ParseError(f"stray character {chunk!r}", *span)
    out.append(Token("eof", "", (line, len(text) - line_start + 1)))
    return out


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SName:
    name: str
    span: Span


@dataclass(frozen=True)
class SApp:
    fn: SExpr
    arg: SExpr
    span: Span


@dataclass(frozen=True)
class SArrow:
    binder: str | None
    dom: SExpr
    cod: SExpr
    span: Span


@dataclass(frozen=True)
class SStar:
    binder: str | None
    fst: SExpr
    snd: SExpr
    span: Span


@dataclass(frozen=True)
class SFun:
    binder: str
    dom: SExpr
    body: SExpr
    span: Span


@dataclass(frozen=True)
class SFst:
    arg: SExpr
    span: Span


@dataclass(frozen=True)
class SSnd:
    arg: SExpr
    span: Span


@dataclass(frozen=True)
class SPair:
    fst: SExpr
    snd: SExpr
    ty: SExpr
    span: Span


@dataclass(frozen=True)
class SCast:
    tm: SExpr
    ad: SExpr
    span: Span


@dataclass(frozen=True)
class SComp:
    after: SExpr
    before: SExpr
    span: Span


@dataclass(frozen=True)
class SId:
    at: SExpr | None
    span: Span


@dataclass(frozen=True)
class SSpineComp:
    binders: tuple[str, ...]
    body: SExpr
    span: Span


@dataclass(frozen=True)
class SPush:
    head: SExpr
    comps: tuple[SSpineComp, ...]
    span: Span


@dataclass(frozen=True)
class SFam:
    """Type family with explicit binders: ``(x y => T)``."""

    binders: tuple[str, ...]
    body: SExpr
    span: Span


SExpr = (SName | SApp | SArrow | SStar | SFun | SFst | SSnd | SPair
         | SCast | SComp | SId | SPush | SFam)


@dataclass(frozen=True)
class PTyParam:
    name: str
    tele: tuple[tuple[str, SExpr], ...]
    dir: str   # "+" or "-"
    span: Span


@dataclass(frozen=True)
class PTmParam:
    name: str
    ty: SExpr
    span: Span


@dataclass(frozen=True)
class SConDecl:
    name: str
    args: tuple[tuple[str, SExpr], ...]
    result: SExpr
    span: Span


@dataclass(frozen=True)
class DBase:
    name: str
    span: Span


@dataclass(frozen=True)
class DPostulate:
    name: str
    src: SExpr
    tgt: SExpr
    span: Span


@dataclass(frozen=True)
class DVar:
    name: str
    ty: SExpr
    span: Span
    neg: bool = False


@dataclass(frozen=True)
class DDef:
    name: str
    ty: SExpr
    tm: SExpr
    span: Span


@dataclass(frozen=True)
class DData:
    name: str
    params: tuple[PTyParam | PTmParam, ...]
    indices: tuple[tuple[str | None, SExpr], ...]
    cons: tuple[SConDecl, ...]
    span: Span


@dataclass(frozen=True)
class DCheck:
    tm: SExpr
    ty: SExpr
    span: Span


@dataclass(frozen=True)
class DAssertEq:
    lhs: SExpr
    rhs: SExpr
    ty: SExpr
    span: Span


@dataclass(frozen=True)
class DNormalize:
    tm: SExpr
    span: Span


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

#: texts of the tokens other than names that start an atom
ATOM_START = frozenset({"(", "fun", "fst", "snd", "id"})


def _starts_atom(t: Token) -> bool:
    return t.kind == "name" or t.text in ATOM_START


class Parser:
    def __init__(self, text: str):
        self.toks = lex(text)
        self.pos = 0

    # -- token plumbing

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def next(self) -> Token:
        self.pos += 1
        return self.toks[self.pos - 1]

    def eat(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            t = self.toks[self.pos]
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or 'end of input'!r}",
                             t.span[0], t.span[1], expected=(want,))
        return self.next()

    def name(self) -> Token:
        return self.eat("name")

    def names_then_fat_arrow(self) -> tuple[str, ...] | None:
        """``x y =>``: the names, consumed with the arrow, or None (and
        nothing consumed) unless one or more names precede ``=>``."""
        toks, k = self.toks, self.pos
        while toks[k].kind == "name":
            k += 1
        if k == self.pos or toks[k].text != "=>":
            return None
        names = tuple(t.text for t in toks[self.pos:k])
        self.pos = k + 1
        return names

    # -- declarations


    def file(self) -> list[Decl]:
        out = []
        while not self.at("eof"):
            out.append(self.decl())
        return out

    def decl(self) -> Decl:
        t = self.toks[self.pos]
        if self.at("kw", "base"):
            self.next()
            n = self.name()
            self.eat(";")
            return DBase(n.text, t.span)
        if self.at("kw", "postulate"):
            self.next()
            self.eat("kw", "adapter")
            n = self.name()
            self.eat(":")
            src = self.expr()
            self.eat("=>")
            tgt = self.expr()
            self.eat(";")
            return DPostulate(n.text, src, tgt, t.span)
        if self.at("kw", "var") or self.at("kw", "covar"):
            neg = self.next().text == "covar"
            n = self.name()
            self.eat(":")
            ty = self.expr()
            self.eat(";")
            return DVar(n.text, ty, t.span, neg)
        if self.at("kw", "def"):
            self.next()
            n = self.name()
            self.eat(":")
            ty = self.expr()
            self.eat(":=")
            tm = self.expr()
            self.eat(";")
            return DDef(n.text, ty, tm, t.span)
        if self.at("kw", "data"):
            return self.data_decl()
        if self.at("kw", "check"):
            self.next()
            tm = self.expr()
            self.eat(":")
            ty = self.expr()
            self.eat(";")
            return DCheck(tm, ty, t.span)
        if self.at("kw", "asserteq"):
            self.next()
            lhs = self.expr()
            self.eat("=")
            rhs = self.expr()
            self.eat(":")
            ty = self.expr()
            self.eat(";")
            return DAssertEq(lhs, rhs, ty, t.span)
        if self.at("kw", "normalize"):
            self.next()
            tm = self.expr()
            self.eat(";")
            return DNormalize(tm, t.span)
        raise ParseError(f"expected a declaration, found {t.text!r}",
                         t.span[0], t.span[1],
                         expected=("base", "postulate", "var", "def", "data",
                                   "check", "asserteq", "normalize"))

    def data_decl(self) -> DData:
        start = self.eat("kw", "data")
        n = self.name()
        params: list[PTyParam | PTmParam] = []
        while self.at("("):
            params.append(self.param())
        indices = []
        while self.at("["):
            self.next()
            if self.at("name") and self.toks[self.pos + 1].text == ":":
                iname = self.name().text
                self.eat(":")
            else:
                iname = None
            indices.append((iname, self.expr()))
            self.eat("]")
        self.eat("{")
        cons = []
        while not self.at("}"):
            cons.append(self.con_decl())
            if self.at(";"):
                self.next()
            else:
                break
        self.eat("}")
        return DData(n.text, tuple(params), tuple(indices), tuple(cons),
                     start.span)

    def param(self) -> PTyParam | PTmParam:
        start = self.eat("(")
        n = self.name()
        self.eat(":")
        save = self.pos
        tele = self.try_ty_param_sort()
        if tele is not None:
            binders, d = tele
            self.eat(")")
            return PTyParam(n.text, binders, d, start.span)
        self.pos = save
        ty = self.expr()
        self.eat(")")
        return PTmParam(n.text, ty, start.span)

    def try_ty_param_sort(self):
        """``(x : A) (y : B) ... Ty+`` or bare ``Ty-``; None if this is
        not a type-parameter sort."""
        binders = []
        try:
            while self.at("("):
                self.next()
                bn = self.name()
                self.eat(":")
                bt = self.expr()
                self.eat(")")
                binders.append((bn.text, bt))
            if self.toks[self.pos].text in ("Ty+", "Ty-"):
                d = self.next().text[-1]
                return tuple(binders), d
        except ParseError:
            pass
        return None

    def con_decl(self) -> SConDecl:
        n = self.name()
        self.eat(":")
        args = []
        while self.at("(") and self.toks[self.pos + 1].kind == "name" \
                and self.toks[self.pos + 2].text == ":":
            self.next()
            an = self.name()
            self.eat(":")
            at_ = self.expr()
            self.eat(")")
            args.append((an.text, at_))
        if args:
            self.eat("->")
        result = self.expr()
        return SConDecl(n.text, tuple(args), result, n.span)

    # -- expressions

    def expr(self, level: int = ARROW) -> SExpr:
        """An expression whose infix operators bind at ``level`` or
        tighter.  At arrow level it may open with a binder.  Every node
        built here is spanned by the first token of its left operand."""
        toks = self.toks
        first = toks[self.pos]
        if (level == ARROW and first.text == "("
                and toks[self.pos + 1].kind == "name"
                and toks[self.pos + 2].text == ":"):
            return self.binder(first)
        out = self.atom()
        while True:
            t = toks[self.pos]
            op = INFIX.get(t.text)
            if op is not None:
                if op[0] < level:
                    return out
                self.pos += 1
                out = op[2](out, self.expr(op[1]), first.span)
            elif _starts_atom(t):
                out = SApp(out, self.atom(), first.span)
            else:
                return out

    def binder(self, open_: Token) -> SExpr:
        """``(x : A) -> B`` or ``(x : A) ** B``, committed to on the
        lookahead ``( name :``; both bodies are arrow-level.  When no
        binder follows after all, the colon is where the expression
        ``(x`` should have closed."""
        toks = self.toks
        colon = toks[self.pos + 2]
        name = toks[self.pos + 1].text
        self.pos += 3
        try:
            dom = self.expr()
        except ParseError:
            dom = None
        if (dom is None or toks[self.pos].text != ")"
                or toks[self.pos + 1].text not in ("->", "**")):
            raise ParseError("expected ')', found ':'", colon.span[0],
                             colon.span[1], expected=(")",))
        node = SArrow if toks[self.pos + 1].text == "->" else SStar
        self.pos += 2
        return node(name, dom, self.expr(), open_.span)

    def atom(self) -> SExpr:
        """One atom with the spine pushes ``[[ ... ]]`` that follow it."""
        toks = self.toks
        t = toks[self.pos]
        if t.kind == "name":
            self.pos += 1
            out = SName(t.text, t.span)
        elif t.text == "(":
            self.pos += 1
            binders = self.names_then_fat_arrow()
            if binders is not None:
                out = SFam(binders, self.expr(), t.span)
            else:
                out = self.expr()
                if self.at(","):
                    self.pos += 1
                    snd = self.expr()
                    self.eat(":")
                    out = SPair(out, snd, self.expr(), t.span)
            self.eat(")")
        elif t.text == "fun":
            self.pos += 1
            self.eat("(")
            n = self.name()
            self.eat(":")
            dom = self.expr()
            self.eat(")")
            self.eat("=>")
            out = SFun(n.text, dom, self.expr(), t.span)
        elif t.text in ("fst", "snd"):
            self.pos += 1
            out = (SFst if t.text == "fst" else SSnd)(self.atom(), t.span)
        elif t.text == "id":
            self.pos += 1
            at = self.atom() if _starts_atom(toks[self.pos]) else None
            out = SId(at, t.span)
        else:
            raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                             t.span[0], t.span[1],
                             expected=("name", "(", "fun", "fst", "snd", "id"))
        while toks[self.pos].text == "[[":
            push = self.next()
            comps: list[SSpineComp] = []
            if not self.at("]]"):
                comps.append(self.spine_comp())
                while self.at(">"):
                    self.pos += 1
                    comps.append(self.spine_comp())
            self.eat("]]")
            out = SPush(out, tuple(comps), push.span)
        return out

    def spine_comp(self) -> SSpineComp:
        t = self.toks[self.pos]
        binders = self.names_then_fat_arrow()
        return SSpineComp(binders or (), self.expr(), t.span)


def parse(text: str) -> list[Decl]:
    return Parser(text).file()
