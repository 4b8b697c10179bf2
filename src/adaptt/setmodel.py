"""Finite-set semantics: the desk-scale soundness oracle.

Contexts become environments, types become (descriptors of) sets, terms
become elements, adapters become functions.  Everything definitional in
the kernel must be an honest equality here, so the evaluator is kept
independent of the kernel's rewrite machinery: casting along a structural
adapter is interpreted by a semantic functorial map computed by recursion
on the type, with type variables read off a semantic transformation (a
per-entry list of component functions); the kernel's cast computation is
never consulted.  Constructor argument types come from the signature
records, adapter ends from the adapters, and the direction table is the
oracle's own copy: it imports nothing from ``adaptt`` but ``syntax``.

Functions are finite tables over enumerable domains.  A function space
whose domain cannot be enumerated (an inductive type, say) raises
``NonEnumerable``: the judgment is reported unevaluable, never guessed
at by sampling.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .syntax import (
    POS, NEG, Dir, Context, TmEntry, TyEntry,
    Base, TyVarRef, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    AdId, Chain, Post, PiAd, SigAd, IndAd, Sub, STm, STy, Trans, KTm, KAd,
    desc, tm_count, ty_count,
)


class NonEnumerable(Exception):
    """A comparison or environment needs the elements of a set that is
    not finitely enumerable."""


class ModelError(Exception):
    """Malformed binding or an unbound base type / adapter."""


# -- semantic values ---------------------------------------------------------


@dataclass(frozen=True)
class VBase:
    set_name: str
    label: str


@dataclass(frozen=True)
class VPair:
    fst: object
    snd: object


@dataclass(frozen=True)
class VFun:
    table: tuple[tuple[object, object], ...]

    def apply(self, v):
        for k, w in self.table:
            if sem_eq(k, v):
                return w
        raise ModelError(f"function table has no entry for {v!r}")


@dataclass(frozen=True)
class VCon:
    desc: str
    tag: int
    args: tuple


# -- semantic types ----------------------------------------------------------


class SemType:
    enumerable = False

    def elements(self):
        raise NonEnumerable(repr(self))


@dataclass(frozen=True)
class SFin(SemType):
    name: str
    labels: tuple[str, ...]
    enumerable = True

    def elements(self):
        return [VBase(self.name, l) for l in self.labels]


class SPi(SemType):
    def __init__(self, dom: SemType, cod):
        self.dom = dom
        self.cod = cod  # value -> SemType

    @property
    def enumerable(self):
        return self.dom.enumerable

    def elements(self):
        dom_elems = self.dom.elements()
        cod_sets = [self.cod(v).elements() for v in dom_elems]
        return [VFun(tuple(zip(dom_elems, combo)))
                for combo in itertools.product(*cod_sets)]


class SSig(SemType):
    def __init__(self, fst: SemType, snd):
        self.fst = fst
        self.snd = snd  # value -> SemType

    @property
    def enumerable(self):
        return self.fst.enumerable

    def elements(self):
        return [VPair(a, b) for a in self.fst.elements()
                for b in self.snd(a).elements()]


@dataclass(frozen=True)
class SInd(SemType):
    """Inductive types are never enumerated; their values are the finite
    constructor trees the evaluator produces."""

    desc: str


# -- bindings ----------------------------------------------------------------


@dataclass(frozen=True)
class ModelBinding:
    """Finite sets for the base types and total function tables for the
    postulated adapters (keyed by their signature)."""

    types: dict[str, tuple[str, ...]]
    adapters: dict[str, dict[str, dict[str, str]]]

    @staticmethod
    def from_json(text: str) -> "ModelBinding":
        """Read a binding; malformed JSON or a wrongly shaped binding is a
        ``ModelError``."""
        try:
            raw = json.loads(text)
        except ValueError as e:
            raise ModelError(f"not JSON: {e}") from None
        if not _well_shaped(raw):
            raise ModelError('expected {"types": {name: [label, ...]}, '
                             '"adapters": {name: {"S->T": {label: label}}}}')
        return ModelBinding(
            {k: tuple(v) for k, v in raw.get("types", {}).items()},
            raw.get("adapters", {}))

    def base(self, name: str) -> SFin:
        if name not in self.types:
            raise ModelError(f"no binding for base type {name}")
        return SFin(name, self.types[name])

    def adapter_fn(self, p: Post):
        if not (isinstance(p.src_ty, Base) and isinstance(p.tgt_ty, Base)):
            raise NonEnumerable(f"adapter {p.name} is not between base types")
        key = f"{p.src_ty.name}->{p.tgt_ty.name}"
        tables = self.adapters.get(p.name)
        if tables is None or key not in tables:
            raise ModelError(f"no binding for adapter {p.name} at {key}")
        table = tables[key]
        src = self.base(p.src_ty.name)
        tgt = self.base(p.tgt_ty.name)
        for l in src.labels:
            if l not in table:
                raise ModelError(f"adapter {p.name} is not total: misses {l}")
            if table[l] not in tgt.labels:
                raise ModelError(f"adapter {p.name} leaves its target")
        tname = p.tgt_ty.name

        def fn(v):
            return VBase(tname, table[v.label])
        return fn


def _well_shaped(raw) -> bool:
    # loops, not generators: the oracle reads a binding for every pair it
    # checks.  Of the JSON values only an object has ``get`` and ``values``.
    try:
        for labels in raw.get("types", {}).values():
            if type(labels) is not list or not _strings(labels):
                return False
        for tables in raw.get("adapters", {}).values():
            for table in tables.values():
                if not _strings(table.values()):
                    return False
    except AttributeError:
        return False
    return True


def _strings(xs) -> bool:
    for x in xs:
        if type(x) is not str:
            return False
    return True


# -- semantic transformations -------------------------------------------------
#
# The semantic analogue of a component spine.  As in the kernel, the data
# is self-dual: dualizing swaps the two sides and flips the direction
# flags, and component functions keep their stored orientation (for a
# covariant entry the function maps the source family to the target one,
# for a contravariant entry the other way round).


@dataclass
class SemTm:
    src_val: object
    tgt_val: object


@dataclass
class SemAd:
    dir: Dir
    tel_dir: Dir
    src_fam: object   # tuple of values -> SemType
    tgt_fam: object
    fn: object        # tuple of values -> (value -> value)


def dual_sem(entries: list) -> list:
    out = []
    for e in entries:
        if isinstance(e, SemTm):
            out.append(SemTm(e.tgt_val, e.src_val))
        else:
            out.append(SemAd(e.dir.flip, e.tel_dir.flip,
                             e.tgt_fam, e.src_fam, e.fn))
    return out


def side_env(entries: list, want_src: bool) -> list:
    env = []
    for e in entries:
        if isinstance(e, SemTm):
            env.append(("tm", e.src_val if want_src else e.tgt_val))
        else:
            env.append(("ty", e.src_fam if want_src else e.tgt_fam))
    return env


_SORT_NAMES = {"tm": "term", "ty": "type"}


def env_lookup(env, sort: str, index: int):
    """Value of the variable of ``sort`` (``"tm"`` or ``"ty"``) with de
    Bruijn index ``index`` in its namespace."""
    seen = 0
    for kind, v in reversed(env):
        if kind == sort:
            if seen == index:
                return v
            seen += 1
    raise ModelError(
        f"environment misses {_SORT_NAMES[sort]} variable {index}")


def _sem_entry_at(entries: list, ty_index: int):
    seen = 0
    for e in reversed(entries):
        if isinstance(e, SemAd):
            if seen == ty_index:
                return e
            seen += 1
    raise ModelError(f"semantic transformation misses type variable {ty_index}")


# -- evaluator ----------------------------------------------------------------


class Evaluator:
    def __init__(self, binding: ModelBinding):
        self.binding = binding

    # -- types

    def eval_ty(self, env, ty) -> SemType:
        match ty:
            case Base(name):
                return self.binding.base(name)
            case TyVarRef(j, inst):
                fam = env_lookup(env, "ty", j)
                return fam(tuple(self.eval_tm(env, t) for t in inst))
            case Pi(dom, cod):
                dom_s = self.eval_ty(env, dom)
                return SPi(dom_s, lambda v: self.eval_ty(env + [("tm", v)], cod))
            case Sig(fst, snd):
                fst_s = self.eval_ty(env, fst)
                return SSig(fst_s, lambda v: self.eval_ty(env + [("tm", v)], snd))
            case Ind(name, _, _):
                return SInd(name)
            case _:
                raise ModelError(f"cannot evaluate type {ty!r}")

    def family(self, env, ty):
        def fam(vals):
            return self.eval_ty(env + [("tm", v) for v in vals], ty)
        return fam

    # -- terms

    def eval_tm(self, env, tm):
        match tm:
            case Var(i):
                return env_lookup(env, "tm", i)
            case Lam(dom, body):
                dom_s = self.eval_ty(env, dom)
                if not dom_s.enumerable:
                    raise NonEnumerable("function over a non-enumerable domain")
                return VFun(tuple(
                    (v, self.eval_tm(env + [("tm", v)], body))
                    for v in dom_s.elements()))
            case App(fn, arg):
                return self.eval_tm(env, fn).apply(self.eval_tm(env, arg))
            case Pair(_, a, b):
                return VPair(self.eval_tm(env, a), self.eval_tm(env, b))
            case Fst(p):
                return self.eval_tm(env, p).fst
            case Snd(p):
                return self.eval_tm(env, p).snd
            case Cast(t, ad):
                return self.eval_ad(env, ad)(self.eval_tm(env, t))
            case Con(name, tag, _, args):
                return VCon(name, tag,
                            tuple(self.eval_tm(env, a) for a in args))
            case _:
                raise ModelError(f"cannot evaluate term {tm!r}")

    # -- adapters as functions

    def eval_ad(self, env, ad):
        match ad:
            case AdId(_):
                return lambda v: v
            case Chain(parts):
                fns = [self.eval_ad(env, p) for p in parts]

                def chained(v):
                    for fn in fns:
                        v = fn(v)
                    return v
                return chained
            case Post(_, _, _):
                return self.binding.adapter_fn(ad)
            case PiAd(dom_ad, cod_ad, _, tgt):
                dom_fn = self.eval_ad(env, dom_ad)
                new_dom = self.eval_ty(env, tgt.dom)

                def pimap(fv):
                    if not new_dom.enumerable:
                        raise NonEnumerable("function cast over a "
                                            "non-enumerable domain")
                    rows = []
                    for u in new_dom.elements():
                        w = fv.apply(dom_fn(u))
                        rows.append((u, self.eval_ad(env + [("tm", u)],
                                                     cod_ad)(w)))
                    return VFun(tuple(rows))
                return pimap
            case SigAd(fst_ad, snd_ad, _, _):
                fst_fn = self.eval_ad(env, fst_ad)

                def sigmap(pv):
                    snd_fn = self.eval_ad(env + [("tm", pv.fst)], snd_ad)
                    return VPair(fst_fn(pv.fst), snd_fn(pv.snd))
                return sigmap
            case IndAd(name, trans):
                # the zip in sem_trans stops before the forced indices
                st = self.sem_trans(env, desc(name).params_ctx, trans)
                return self.tree_map(name, st)
            case _:
                raise ModelError(f"cannot evaluate adapter {ad!r}")

    def ad_end(self, env, ad, want_src: bool) -> SemType:
        """Set of an adapter's source (or target) end, read off the
        adapter; an inductive adapter's ends are its datatype's set."""
        match ad:
            case AdId(ty):
                return self.eval_ty(env, ty)
            case Chain(parts):
                return self.ad_end(env, parts[0] if want_src else parts[-1],
                                   want_src)
            case Post(_, s, t) | PiAd(_, _, s, t) | SigAd(_, _, s, t):
                return self.eval_ty(env, s if want_src else t)
            case IndAd(name, _):
                return SInd(name)
            case _:
                raise ModelError(f"cannot evaluate adapter {ad!r}")

    # -- semantic transformations from syntax

    def sem_trans(self, env, ctx: Context, trans: Trans) -> list:
        """Semantic transformation from a component spine; ``env``
        interprets the ambient context the spine's syntax lives over."""
        entries: list = []
        for entry, c in zip(ctx, trans.comps):
            if isinstance(entry, TmEntry):
                if entry.dir is POS:
                    v = self.eval_tm(env, c.tm)
                    w = self.push_ty(entry.ty, entries)(v)
                else:
                    w = self.eval_tm(env, c.tm)
                    v = self.push_ty(entry.ty, dual_sem(entries))(w)
                entries.append(SemTm(v, w))
            else:
                entries.append(self._sem_ad_entry(env, entry, c))
        return entries

    def _sem_ad_entry(self, env, entry: TyEntry, c: KAd) -> SemAd:
        """Semantic entry of an adapter component, by the oracle's own copy
        of the direction table: the adapter sits on the source side iff the
        telescope direction is positive, its free end is its source iff the
        two directions agree, and the stored other is the other side."""
        def free_fam(vals):
            return self.ad_end(env + [("tm", v) for v in vals], c.ad,
                               entry.dir is entry.tel_dir)
        other = self.family(env, c.forced_ty)

        def fn(vals):
            return self.eval_ad(env + [("tm", v) for v in vals], c.ad)
        if entry.tel_dir is POS:
            return SemAd(entry.dir, entry.tel_dir, free_fam, other, fn)
        return SemAd(entry.dir, entry.tel_dir, other, free_fam, fn)

    def whisker_sem(self, entries: list, ctx: Context, sub: Sub) -> list:
        """Semantic left whisker: the transformation ``entries`` pushed
        through a substitution spine into ``ctx`` (the spine's syntax
        lives over the transformation's target context)."""
        out: list = []
        for entry, c in zip(ctx, sub.comps):
            src = side_env(entries, True) + side_env(out, True)
            tgt = side_env(entries, False) + side_env(out, False)
            if isinstance(entry, TmEntry):
                out.append(SemTm(self.eval_tm(src, c.tm),
                                 self.eval_tm(tgt, c.tm)))
            else:
                prefix = list(out)

                def make(ty=c.ty, prefix=prefix, entry=entry):
                    def fn(vals):
                        blocks = self._block_entries(entries + prefix,
                                                     entry, vals)
                        whole = entries + prefix + blocks
                        if entry.dir is NEG:
                            whole = dual_sem(whole)
                        return self.push_ty(ty, whole)
                    return fn
                out.append(SemAd(entry.dir, entry.tel_dir,
                                 self.family(src, c.ty),
                                 self.family(tgt, c.ty),
                                 make()))
        return out

    def _block_entries(self, prefix: list, entry: TyEntry, vals) -> list:
        """Term entries for a dependency-telescope block: the given
        values on the side the block lives on, transported across on the
        other side.  The telescope's types are interpreted through the
        (possibly dualized) prefix transformation."""
        read = prefix if entry.tel_dir is POS else dual_sem(prefix)
        blocks: list = []
        for ty, v in zip(entry.tel, vals):
            fn = self.push_ty(ty, read + blocks)
            blocks.append(SemTm(v, fn(v)))
        if entry.tel_dir is NEG:
            blocks = dual_sem(blocks)
        return blocks

    # -- the semantic functorial action

    def push_ty(self, ty, entries: list):
        """Function from the source instance of ``ty`` to its target
        instance under a semantic transformation."""
        match ty:
            case Base(_):
                return lambda v: v
            case TyVarRef(j, inst):
                e = _sem_entry_at(entries, j)
                if e.dir is not POS:
                    raise ModelError("contravariant type variable accessed "
                                     "covariantly")
                env = side_env(entries, e.tel_dir is POS)
                vals = tuple(self.eval_tm(env, t) for t in inst)
                return e.fn(vals)
            case Pi(dom, cod):
                back = self.push_ty(dom, dual_sem(entries))
                new_dom = self.eval_ty(side_env(dual_sem(entries), True), dom)

                def pimap(fv):
                    if not new_dom.enumerable:
                        raise NonEnumerable("branching over a non-enumerable "
                                            "domain")
                    rows = []
                    for u in new_dom.elements():
                        v = fv.apply(back(u))
                        ext = entries + [SemTm(back(u), u)]
                        rows.append((u, self.push_ty(cod, ext)(v)))
                    return VFun(tuple(rows))
                return pimap
            case Sig(fst, snd):
                fst_fn = self.push_ty(fst, entries)

                def sigmap(pv):
                    ext = entries + [SemTm(pv.fst, fst_fn(pv.fst))]
                    return VPair(fst_fn(pv.fst),
                                 self.push_ty(snd, ext)(pv.snd))
                return sigmap
            case Ind(name, params, _):
                st = self.whisker_sem(entries, desc(name).params_ctx, params)
                return self.tree_map(name, st)
            case _:
                raise ModelError(f"cannot map over type {ty!r}")

    def tree_map(self, name: str, param_entries: list):
        """Map a constructor tree along a semantic parameter
        transformation: the initial-algebra functorial action.  The
        datatype is one more type variable outside the parameters, so the
        declared argument types are read as they stand."""
        d = desc(name)
        self_ix = ty_count(d.params_ctx)
        rec_tys = []
        for c in d.cons:
            tys = []
            for r in c.rec:
                ty = TyVarRef(self_ix, r.rind)
                for a in reversed(r.arit):
                    ty = Pi(a, ty)
                tys.append(ty)
            rec_tys.append(tys)

        def self_fam(_vals):
            return SInd(name)
        self_entry = SemAd(POS, POS, self_fam, self_fam, lambda _vals: go)

        def go(v):
            if not isinstance(v, VCon) or v.desc != name:
                raise ModelError("inductive map applied to a non-tree value")
            nrec = d.cons[v.tag].nrec
            # recursive arguments sit over the non-recursive ones only
            entries = [self_entry] + param_entries
            args = []
            for ty, arg in zip(nrec, v.args):
                out = self.push_ty(ty, entries)(arg)
                args.append(out)
                entries.append(SemTm(arg, out))
            for ty, arg in zip(rec_tys[v.tag], v.args[len(nrec):]):
                args.append(self.push_ty(ty, entries)(arg))
            return VCon(name, v.tag, tuple(args))
        return go


# -- extensional comparison ----------------------------------------------------


def sem_eq(x, y) -> bool:
    if isinstance(x, VFun) and isinstance(y, VFun):
        if len(x.table) != len(y.table):
            return False
        for k, v in x.table:
            hit = False
            for k2, v2 in y.table:
                if sem_eq(k, k2):
                    hit = True
                    if not sem_eq(v, v2):
                        return False
                    break
            if not hit:
                return False
        return True
    if isinstance(x, VPair) and isinstance(y, VPair):
        return sem_eq(x.fst, y.fst) and sem_eq(x.snd, y.snd)
    if isinstance(x, VCon) and isinstance(y, VCon):
        return (x.desc == y.desc and x.tag == y.tag
                and len(x.args) == len(y.args)
                and all(sem_eq(a, b) for a, b in zip(x.args, y.args)))
    return x == y


def free_tm_vars(x) -> set[int]:
    """Free term-variable indices of any syntax value."""
    out: set[int] = set()

    def go(x, d):
        match x:
            case Var(i):
                if i >= d:
                    out.add(i - d)
            case TyVarRef(_, inst):
                for t in inst:
                    go(t, d)
            case Pi(a, b) | Sig(a, b) | Lam(a, b):
                go(a, d)
                go(b, d + 1)
            case App(a, b) | Cast(a, b):
                go(a, d)
                go(b, d)
            case Pair(ty, a, b):
                go(ty, d)
                go(a, d)
                go(b, d)
            case Fst(p) | Snd(p) | AdId(p):
                go(p, d)
            case Ind(_, params, inst) | Con(_, _, params, inst):
                go(params, d)
                for t in inst:
                    go(t, d)
            case Chain(parts):
                for p in parts:
                    go(p, d)
            case PiAd(da, ca, s, t) | SigAd(da, ca, s, t):
                go(da, d)
                go(ca, d + 1)
                go(s, d)
                go(t, d)
            case IndAd(_, tr):
                go(tr, d)
            case Sub(comps) | Trans(comps):
                for c in comps:
                    go(c, d)
            case STm(t) | KTm(t):
                go(t, d)
            case STy(ty, ar):
                go(ty, d + ar)
            case KAd(ad, forced, ar):
                go(ad, d + ar)
                go(forced, d + ar)
            case tuple():
                for k, t in enumerate(x):
                    go(t, d + k)
            case _:
                pass
    go(x, 0)
    return out


def needed_entries(ctx: Context, roots: set[int]) -> set[int]:
    """Close a set of needed term variables under their types' own
    dependencies.  Indices count term entries from the inside."""
    n = tm_count(ctx)
    need = set(roots)
    changed = True
    positions = [k for k, e in enumerate(ctx) if isinstance(e, TmEntry)]
    while changed:
        changed = False
        for idx in list(need):
            pos = positions[n - 1 - idx]
            entry = ctx[pos]
            inner_tms = tm_count(ctx[pos + 1:])
            for j in free_tm_vars(entry.ty):
                k = j + inner_tms + 1
                if k < n and k not in need:
                    need.add(k)
                    changed = True
    return need


class _Unused:
    def __repr__(self):
        return "<unused>"


UNUSED = _Unused()


def enumerate_envs(evalr: Evaluator, ctx: Context, used: set[int] | None = None):
    """All environments for a context; entries outside ``used`` (term
    indices, innermost = 0) are filled with an inert placeholder."""
    if used is not None:
        used = needed_entries(ctx, used)
    n_tm = tm_count(ctx)
    envs = [[]]
    seen_tm = 0
    for entry in ctx:
        if isinstance(entry, TyEntry):
            raise NonEnumerable("cannot enumerate type-variable environments")
        index = n_tm - 1 - seen_tm
        seen_tm += 1
        if used is not None and index not in used:
            envs = [env + [("tm", UNUSED)] for env in envs]
            continue
        new = []
        for env in envs:
            st = evalr.eval_ty(env, entry.ty)
            if not st.enumerable:
                raise NonEnumerable("context entry is not enumerable")
            for v in st.elements():
                new.append(env + [("tm", v)])
        envs = new
    return envs
