"""Renderer from kernel syntax back to the surface language.

Output is deterministic and reparseable; the round-trip property (parse
of pretty output elaborates to an alpha-equivalent value) is part of the
test suite, so every form printed here has a grammar production.
"""

from __future__ import annotations

from .syntax import (
    Base, TyVarRef, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    AdId, Chain, Post, PiAd, SigAd, IndAd, STm, KTm,
    Context, TmEntry, desc, least_free_tm, shift,
)

LOW, STAR, COMP, APP, ATOM = 0, 1, 2, 3, 4

_TM_POOL = ["x", "y", "z", "u", "v", "w"]
_TY_POOL = ["X", "Y", "Z", "U", "V", "W"]


class Env:
    """Names for the entries in scope, innermost last."""

    def __init__(self, pairs: list[tuple[str, str]]):
        self.pairs = pairs

    def used(self) -> set[str]:
        return {n for _, n in self.pairs}

    def fresh(self, kind: str) -> str:
        pool = _TM_POOL if kind == "tm" else _TY_POOL
        used = self.used()
        for n in pool:
            if n not in used:
                return n
        i = 0
        while f"{pool[0]}{i}" in used:
            i += 1
        return f"{pool[0]}{i}"

    def push(self, kind: str, name: str | None = None) -> tuple[Env, str]:
        n = name or self.fresh(kind)
        return Env(self.pairs + [(kind, n)]), n

    def binders(self, arity: int, name: str | None = None
                ) -> tuple[Env, list[str]]:
        """Push ``arity`` term binders, fresh or all named ``name``."""
        env, names = self, []
        for _ in range(arity):
            env, n = env.push("tm", name)
            names.append(n)
        return env, names

    def name(self, kind: str, index: int) -> str:
        """Name of the ``kind`` entry at de Bruijn ``index`` (indices
        count entries of that kind only)."""
        seen = 0
        for k, n in reversed(self.pairs):
            if k == kind:
                if seen == index:
                    return n
                seen += 1
        return f"?{'v' if kind == 'tm' else 'T'}{index}"


def ctx_names(ctx: Context) -> list[str]:
    env = Env([])
    out = []
    for e in ctx:
        kind = "tm" if isinstance(e, TmEntry) else "ty"
        env, n = env.push(kind)
        out.append(n)
    return out


def env_from(ctx: Context, names: list[str] | None = None) -> Env:
    if names is None:
        names = ctx_names(ctx)
    pairs = [("tm" if isinstance(e, TmEntry) else "ty", n)
             for e, n in zip(ctx, names)]
    return Env(pairs)


def _wrap(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


def render(x, env: Env, level: int = LOW) -> str:
    match x:
        case Base(name):
            return name
        case Var(i):
            return env.name("tm", i)
        case TyVarRef(j, inst):
            head = env.name("ty", j)
            if not inst:
                return head
            args = " ".join(render(t, env, ATOM) for t in inst)
            return _wrap(f"{head} {args}", APP, level)
        case Pi(dom, cod):
            if least_free_tm(cod) == 0:
                env2, n = env.push("tm")
                s = f"({n} : {render(dom, env, LOW)}) -> {render(cod, env2, LOW)}"
            else:
                env2, _ = env.push("tm", "_")
                s = f"{render(dom, env, APP)} -> {render(cod, env2, LOW)}"
            return _wrap(s, LOW, level)
        case Sig(fst, snd):
            if least_free_tm(snd) == 0:
                env2, n = env.push("tm")
                s = f"({n} : {render(fst, env, LOW)}) ** {render(snd, env2, LOW)}"
            else:
                # the right operand of a plain ``**`` is read at star
                # level: a function type there needs parentheses
                env2, _ = env.push("tm", "_")
                s = f"{render(fst, env, APP)} ** {render(snd, env2, STAR)}"
                return _wrap(s, STAR, level)
            return _wrap(s, LOW, level)
        case Ind(name, params, indices):
            args = [_spine_str(c, env) for c in params.comps]
            args += [render(t, env, ATOM) for t in indices]
            s = name if not args else f"{name} {' '.join(args)}"
            return _wrap(s, APP if args else ATOM, level)
        case Lam(dom, body):
            env2, n = env.push("tm")
            s = f"fun ({n} : {render(dom, env, LOW)}) => {render(body, env2, LOW)}"
            return _wrap(s, LOW, level)
        case App(fn, arg):
            s = f"{render(fn, env, APP)} {render(arg, env, ATOM)}"
            return _wrap(s, APP, level)
        case Pair(ty, a, b):
            return f"({render(a, env, LOW)} , {render(b, env, LOW)} : {render(ty, env, LOW)})"
        case Fst(p):
            return _wrap(f"fst {render(p, env, ATOM)}", APP, level)
        case Snd(p):
            return _wrap(f"snd {render(p, env, ATOM)}", APP, level)
        case Cast(tm, ad):
            s = f"{render(tm, env, LOW if isinstance(tm, Cast) else APP)} <| {render(ad, env, COMP)}"
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
                    params = [" " + _spine_str(c, env) for c in seen.comps]
                out += params
                if not x.args:
                    break
                out += [" " + render(t, env, ATOM) for t in x.args[:-1]]
                out.append(" ")
                x, level = x.args[-1], ATOM
                if type(x) is not Con:
                    out.append(render(x, env, ATOM))
                    break
            return "".join(out) + ")" * opened
        case AdId(ty):
            return _wrap(f"id {render(ty, env, ATOM)}", APP, level)
        case Post(name, _, _):
            return name
        case Chain(parts):
            s = " . ".join(render(p, env, APP) for p in reversed(parts))
            return _wrap(s, COMP, level)
        case PiAd(da, ca, _, _):
            return f"Pi [[ {render(da, env, LOW)} > {_binder_comp(ca, 1, env)} ]]"
        case SigAd(fa, sa, _, _):
            return f"Sig [[ {render(fa, env, LOW)} > {_binder_comp(sa, 1, env)} ]]"
        case IndAd(name, trans):
            comps = []
            for c in trans.comps:
                if isinstance(c, KTm):
                    comps.append(render(c.tm, env, LOW))
                else:
                    comps.append(_binder_comp(c.ad, c.arity, env))
            inner = " > ".join(comps)
            return f"{name} [[ {inner} ]]"
        case _:
            return repr(x)


def _binder_comp(ad, arity: int, env: Env) -> str:
    if least_free_tm(ad) >= arity:
        return render(ad, env.binders(arity, "_")[0], LOW)
    env2, names = env.binders(arity)
    return f"{' '.join(names)} => {render(ad, env2, LOW)}"


def _spine_str(c, env: Env) -> str:
    """One argument of an applied datatype or constructor.  Families that
    are an eta-expanded variable print as the bare variable; other
    families use an explicit binder."""
    if isinstance(c, STm):
        return render(c.tm, env, ATOM)
    if c.arity == 0:
        return render(c.ty, env, ATOM)
    ty = c.ty
    if (isinstance(ty, TyVarRef)
            and ty.inst == tuple(Var(c.arity - 1 - m) for m in range(c.arity))):
        return env.name("ty", ty.index)
    if least_free_tm(ty) >= c.arity:
        return render(shift(ty, -c.arity, 0, c_tm=c.arity), env, ATOM)
    env2, names = env.binders(c.arity)
    return f"({' '.join(names)} => {render(ty, env2, LOW)})"


def ty_string(ctx: Context, ty, names: list[str] | None = None) -> str:
    return render(ty, env_from(ctx, names), LOW)


def tm_string(ctx: Context, tm, names: list[str] | None = None) -> str:
    return render(tm, env_from(ctx, names), LOW)


def ad_string(ctx: Context, ad, names: list[str] | None = None) -> str:
    return render(ad, env_from(ctx, names), LOW)


def tel_strings(ctx: Context, tel, names: list[str] | None = None) -> list[str]:
    env = env_from(ctx, names)
    out = []
    for ty in tel:
        out.append(render(ty, env, LOW))
        env, _ = env.push("tm")
    return out


def inst_strings(ctx: Context, inst, names: list[str] | None = None) -> list[str]:
    env = env_from(ctx, names)
    return [render(t, env, LOW) for t in inst]


def plain(x) -> str:
    """Best effort rendering with no context, for diagnostics."""
    if isinstance(x, str):
        return x
    try:
        return render(x, Env([("tm", f"v{i}") for i in range(8)]
                             + [("ty", f"T{i}") for i in range(8)]), LOW)
    except Exception:
        return repr(x)
