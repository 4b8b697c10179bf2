"""Renderer from kernel syntax back to the surface language, and the
name scope (``Names``) through which the elaborator reads names and the
printer writes them.

Output is deterministic and reparseable; the round-trip property (parse
of pretty output elaborates to an alpha-equivalent value) is part of the
test suite, so every form printed here has a grammar production.
"""

from __future__ import annotations

from .syntax import (
    Base, TyVarRef, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    AdId, Chain, Post, PiAd, SigAd, IndAd, STy, KAd,
    TmEntry, TyEntry, desc, least_free_tm,
)

LOW, STAR, COMP, APP, ATOM = 0, 1, 2, 3, 4

#: each sort's first names; after them, its first letter numbered from 0
_POOLS = {TmEntry: ("x", "y", "z", "u", "v", "w"),
          TyEntry: ("X", "Y", "Z", "U", "V", "W")}

LOCAL = "local"     # the kind of a context entry in ``Names.resolve``


class Names:
    """The one scoped symbol table: the elaborator resolves names through
    it and the printer names entries through it.  ``table`` maps a
    file-level name to ``(kind, meaning)``: ``"base"``, ``"adapter"``,
    ``"datatype"`` (its desc), ``"constructor"`` (desc and tag) or
    ``"def"`` (its term).  ``tm`` and ``ty`` name the context's ``TmEntry``
    and ``TyEntry`` entries, innermost first, so a name's position there is
    its entry's de Bruijn index.  ``spare`` says per sort how many of
    ``fresh``'s candidates are taken for sure.  Lookups are tuple
    operations in C; a push copies one tuple, as extending a ``Context``
    does."""

    __slots__ = ("table", "tm", "ty", "spare")

    def __init__(self, table: dict | None = None, tm: tuple = (),
                 ty: tuple = (), spare: dict | None = None):
        self.table = {} if table is None else table
        self.tm = tm
        self.ty = ty
        self.spare = {} if spare is None else spare

    def __repr__(self) -> str:
        return f"Names(table={self.table!r}, tm={self.tm!r}, ty={self.ty!r})"

    def push(self, sort, *names: str) -> Names:
        """These names and a ``sort`` entry named by each of ``names``,
        innermost last."""
        if sort is TmEntry:
            return Names(self.table, names[::-1] + self.tm, self.ty,
                         self.spare)
        return Names(self.table, self.tm, names[::-1] + self.ty, self.spare)

    def resolve(self, name: str, sort) -> tuple[str | None, object]:
        """What ``name`` means read as a ``sort`` (``TmEntry``, ``TyEntry``,
        None for an adapter): the innermost entry of that sort as
        ``(LOCAL, index)``, counting entries of that sort only; else the
        file-level ``(kind, meaning)``, or ``(None, None)``."""
        local = self.tm if sort is TmEntry else self.ty if sort else ()
        if name in local:
            return LOCAL, local.index(name)
        return self.table.get(name, (None, None))

    def name(self, sort, index: int) -> str:
        """Name of the ``sort`` entry at de Bruijn ``index`` (``?index`` if
        there is none)."""
        local = self.tm if sort is TmEntry else self.ty
        return local[index] if index < len(local) else f"?{index}"

    def fresh(self, sort) -> str:
        """The first candidate name for a ``sort`` entry that no entry has:
        the sort's pool, then its first letter numbered from 0."""
        pool, k = _POOLS[sort], self.spare.get(sort, 0)
        while True:
            n = pool[k] if k < len(pool) else f"{pool[0]}{k - len(pool)}"
            if n not in self.tm and n not in self.ty:
                # a push shares the dict, so it is replaced, not updated
                self.spare = {**self.spare, sort: k}
                return n
            k += 1

    def invent(self, sorts) -> tuple[Names, list[str]]:
        """These names and an entry of each of ``sorts`` (outermost first)
        with a fresh name, and those names."""
        names, out = self, []
        for sort in sorts:
            out.append(names.fresh(sort))
            names = names.push(sort, out[-1])
        return names, out


def _wrap(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


def render(x, names: Names, level: int = LOW) -> str:
    match x:
        case Base(name):
            return name
        case Var(i):
            return names.name(TmEntry, i)
        case TyVarRef(j, inst):
            head = names.name(TyEntry, j)
            if not inst:
                return head
            args = " ".join(render(t, names, ATOM) for t in inst)
            return _wrap(f"{head} {args}", APP, level)
        case Pi(first, second) | Sig(first, second):
            # the right operand of a plain ``**`` is read at star level: a
            # function type there needs parentheses
            op, right = ("->", LOW) if type(x) is Pi else ("**", STAR)
            if least_free_tm(second) == 0:
                n = names.fresh(TmEntry)
                s = (f"({n} : {render(first, names, LOW)}) {op} "
                     f"{render(second, names.push(TmEntry, n), LOW)}")
                return _wrap(s, LOW, level)
            s = (f"{render(first, names, APP)} {op} "
                 f"{render(second, names.push(TmEntry, '_'), right)}")
            return _wrap(s, right, level)
        case Ind(name, params, indices):
            args = [_spine_str(c, names) for c in params.comps]
            args += [render(t, names, ATOM) for t in indices]
            s = name if not args else f"{name} {' '.join(args)}"
            return _wrap(s, APP if args else ATOM, level)
        case Lam(dom, body):
            n = names.fresh(TmEntry)
            s = (f"fun ({n} : {render(dom, names, LOW)}) => "
                 f"{render(body, names.push(TmEntry, n), LOW)}")
            return _wrap(s, LOW, level)
        case App(fn, arg):
            s = f"{render(fn, names, APP)} {render(arg, names, ATOM)}"
            return _wrap(s, APP, level)
        case Pair(ty, a, b):
            return f"({render(a, names, LOW)} , {render(b, names, LOW)} : {render(ty, names, LOW)})"
        case Fst(p):
            return _wrap(f"fst {render(p, names, ATOM)}", APP, level)
        case Snd(p):
            return _wrap(f"snd {render(p, names, ATOM)}", APP, level)
        case Cast(tm, ad):
            s = f"{render(tm, names, LOW if isinstance(tm, Cast) else APP)} <| {render(ad, names, COMP)}"
            return _wrap(s, LOW, level)
        case Con():
            # the last argument is taken in this frame; each applied inner
            # cell opens a parenthesis, all closed at the end.  A cell with
            # the parameters of the cell above reuses their strings
            out, opened, seen = [], 0, None
            while True:
                cname = desc(x.desc).cons[x.tag].name
                if not (x.params.comps or x.args):
                    out.append(cname)
                    break
                if level == ATOM:
                    out.append("(")
                    opened += 1
                out.append(cname)
                if x.params is not seen:
                    seen = x.params
                    params = [" " + _spine_str(c, names) for c in seen.comps]
                out += params
                if not x.args:
                    break
                out += [" " + render(t, names, ATOM) for t in x.args[:-1]]
                out.append(" ")
                x, level = x.args[-1], ATOM
                if type(x) is not Con:
                    out.append(render(x, names, ATOM))
                    break
            return "".join(out) + ")" * opened
        case AdId(ty):
            return _wrap(f"id {render(ty, names, ATOM)}", APP, level)
        case Post(name, _, _):
            return name
        case Chain(parts):
            s = " . ".join(render(p, names, APP) for p in reversed(parts))
            return _wrap(s, COMP, level)
        case PiAd(first, second, _, _) | SigAd(first, second, _, _):
            former = "Pi" if type(x) is PiAd else "Sig"
            return (f"{former} [[ {render(first, names, LOW)} > "
                    f"{_binder_comp(second, 1, names)} ]]")
        case IndAd(name, trans):
            comps = []
            for c in trans.comps:
                if isinstance(c, KAd):
                    comps.append(_binder_comp(c.ad, c.arity, names))
                else:
                    comps.append(render(c, names, LOW))
            inner = " > ".join(comps)
            return f"{name} [[ {inner} ]]"
        case _:
            return repr(x)


def _binder_comp(x, arity: int, names: Names, level: int = LOW) -> str:
    """``x`` under ``arity`` term binders, at ``level``: bare if it
    mentions none of them, else after fresh names for them."""
    if least_free_tm(x) >= arity:
        return render(x, names.push(TmEntry, *["_"] * arity), level)
    inner, bound = names.invent([TmEntry] * arity)
    return _wrap(f"{' '.join(bound)} => {render(x, inner, LOW)}", LOW, level)


def _spine_str(c, names: Names) -> str:
    """One argument of an applied datatype or constructor.  Families that
    are an eta-expanded variable print as the bare variable; other
    families use an explicit binder."""
    if not isinstance(c, STy):
        return render(c, names, ATOM)
    if c.arity == 0:
        return render(c.ty, names, ATOM)
    ty = c.ty
    if (isinstance(ty, TyVarRef)
            and ty.inst == tuple(Var(c.arity - 1 - m) for m in range(c.arity))):
        return names.name(TyEntry, ty.index)
    return _binder_comp(ty, c.arity, names, ATOM)


def ty_string(names: Names, ty) -> str:
    return render(ty, names, LOW)


def tm_string(names: Names, tm) -> str:
    return render(tm, names, LOW)


def ad_string(names: Names, ad) -> str:
    return render(ad, names, LOW)


def tel_strings(names: Names, tel) -> list[str]:
    """Each type of ``tel`` under the fresh names of the ones before it."""
    out = []
    for ty in tel:
        out.append(render(ty, names, LOW))
        names = names.push(TmEntry, names.fresh(TmEntry))
    return out


def inst_strings(names: Names, inst) -> list[str]:
    return [render(t, names, LOW) for t in inst]
