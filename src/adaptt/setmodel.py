"""Finite-set semantics: the desk-scale soundness oracle.

Contexts become environments, types become (descriptors of) sets, terms
become elements, adapters become functions.  Everything definitional in
the kernel must be an honest equality here, so the evaluator is kept
independent of the kernel's rewrite machinery: casting along a structural
adapter is interpreted by a semantic functorial map computed by recursion
on the type, with type variables read off a semantic transformation (the
environments of its two sides and a component function per type entry);
the kernel's cast computation is never consulted.  Constructor argument
types come from the signature records, adapter ends from the adapters,
and the direction table is the oracle's own copy: it imports nothing from
``adaptt`` but ``syntax``.

Terms, types and adapters are compiled once per binding into closures,
which are then evaluated per environment: the syntax is walked once, not
once for every environment.

Functions are finite tables over enumerable domains.  A function space
whose domain cannot be enumerated (an inductive type, say) raises
``NonEnumerable``: the judgment is reported unevaluable, never guessed
at by sampling.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from dataclasses import field

from .syntax import (
    POS, Dir, Context, TmEntry, TyEntry,
    Base, TyVarRef, Pi, Sig, Ind, Term, Var, Lam, App, Pair, Fst, Snd, Cast,
    Con, AdId, Chain, Post, PiAd, SigAd, IndAd, Sub, STy, Trans, KAd,
    desc, free_tm_vars, fv_bounds, record, tm_count, ty_count,
)


class NonEnumerable(Exception):
    """A comparison or environment needs the elements of a set that is
    not finitely enumerable."""


class ModelError(Exception):
    """Malformed binding or an unbound base type / adapter."""


# -- semantic values ---------------------------------------------------------


@record(frozen=True)
class VBase:
    """An element of a finite base set, by its label."""

    set_name: str
    label: str


@record(frozen=True)
class VPair:
    """A pair of values."""

    fst: object
    snd: object


@record(frozen=True)
class VFun:
    """A function on a finite domain, as a table of argument-value pairs."""

    table: tuple[tuple[object, object], ...]

    def apply(self, v):
        for k, w in self.table:
            if sem_eq(k, v):
                return w
        raise ModelError(f"function table has no entry for {v!r}")


@record(frozen=True)
class VCon:
    """A constructor of a datatype applied to its argument values."""

    desc: str
    tag: int
    args: tuple


# -- semantic types ----------------------------------------------------------


class SemType:
    enumerable = False

    def elements(self):
        raise NonEnumerable(repr(self))


@record(frozen=True)
class SFin(SemType):
    """A finite base set: its name, labels, and one value per label."""

    name: str
    labels: tuple[str, ...]
    enumerable = True

    values: tuple[VBase, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one value per label, so equal values are mostly one object,
        # which sem_eq checks first
        object.__setattr__(self, "values",
                           tuple(VBase(self.name, l) for l in self.labels))

    def elements(self):
        return self.values


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


@record(frozen=True)
class SInd(SemType):
    """Inductive types are never enumerated; their values are the finite
    constructor trees the evaluator produces."""

    desc: str


# -- bindings ----------------------------------------------------------------


@record(frozen=True)
class ModelBinding:
    """Finite sets for the base types and total function tables for the
    postulated adapters (keyed by their signature)."""

    types: dict[str, tuple[str, ...]]
    adapters: dict[str, dict[str, dict[str, str]]]
    sets: dict[str, SFin] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sets", {
            name: SFin(name, labels) for name, labels in self.types.items()})

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
        if name not in self.sets:
            raise ModelError(f"no binding for base type {name}")
        return self.sets[name]

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
        by_label = dict(zip(tgt.labels, tgt.values))
        image = {l: by_label[table[l]] for l in src.labels}

        def fn(v):
            if type(v) is VBase and v.set_name == src.name:
                return image[v.label]
            raise ModelError(f"adapter {p.name} applied to {v!r}, outside "
                             f"its source {src.name}")
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
# The semantic analogue of a component spine: the environments of its two
# sides and, per type entry, its directions and component functions.  As
# in the kernel, the data is self-dual: dualizing swaps the two sides and
# flips the direction flags, and component functions keep their stored
# orientation (for a covariant entry the function maps the source family
# to the target one, for a contravariant entry the other way round).


@record
class SemAd:
    """The semantic component of a transformation at one type entry."""

    dir: Dir
    tel_dir: Dir
    fn: object        # tuple of values -> (value -> value)


@record
class SemTrans:
    """A semantic transformation: the environments of its two sides and
    one ``SemAd`` per type entry."""

    src: tuple        # environment of the source side
    tgt: tuple
    ads: tuple        # one SemAd per type entry, innermost last

    def dual(self) -> "SemTrans":
        return SemTrans(self.tgt, self.src, tuple(
            SemAd(a.dir.flip, a.tel_dir.flip, a.fn) for a in self.ads))

    def with_tm(self, src_val, tgt_val) -> "SemTrans":
        (s_tms, s_tys), (t_tms, t_tys) = self.src, self.tgt
        return SemTrans((s_tms + (src_val,), s_tys),
                        (t_tms + (tgt_val,), t_tys), self.ads)

    def with_ad(self, src_fam, tgt_fam, ad: SemAd) -> "SemTrans":
        (s_tms, s_tys), (t_tms, t_tys) = self.src, self.tgt
        return SemTrans((s_tms, s_tys + (src_fam,)),
                        (t_tms, t_tys + (tgt_fam,)), self.ads + (ad,))

    def __add__(self, inner: "SemTrans") -> "SemTrans":
        (s_tms, s_tys), (t_tms, t_tys) = self.src, self.tgt
        (s_tms2, s_tys2), (t_tms2, t_tys2) = inner.src, inner.tgt
        return SemTrans((s_tms + s_tms2, s_tys + s_tys2),
                        (t_tms + t_tms2, t_tys + t_tys2), self.ads + inner.ads)


#: the environment of the empty context: (term values, type families)
EMPTY = ((), ())
NO_TRANS = SemTrans(EMPTY, EMPTY, ())


def _identity(v):
    return v


def _family(code, env):
    """The family ``vals |-> code(env extended by the tuple vals)``."""
    tms, tys = env
    return lambda vals: code((tms + vals, tys))


def _failing(err: type, msg: str):
    """Code that raises ``err(msg)`` when it runs: what the oracle cannot
    read is reported where evaluation reaches it, never where it is
    compiled."""
    def fail(*_):
        raise err(msg)
    return fail


def _once(code):
    """Code that runs ``code`` on first use and keeps its value."""
    kept = []

    def once(arg):
        if not kept:
            kept.append(code(arg))
        return kept[0]
    return once


def _table_map(back, new_dom: SemType, carry, msg: str):
    """The map of function tables of a Pi type's functorial action: each
    point ``u`` of the new domain is sent back by ``back`` to ``b``, the
    table read at ``b``, and the value carried on by ``carry(b, u)``."""
    def table_map(fv):
        if not new_dom.enumerable:
            raise NonEnumerable(msg)
        rows = []
        for u in new_dom.elements():
            b = back(u)
            v = fv.apply(b)
            rows.append((u, carry(b, u)(v)))
        return VFun(tuple(rows))
    return table_map


def _compiled(build):
    """Memoize a compile step per Evaluator, keyed by its one argument: a
    datatype name, or an interned syntax node.  No environment changes the
    value of a closed node, so its code runs once."""
    @functools.wraps(build)
    def compiled(self, key):
        memo = self._code[build]
        code = memo.get(key)
        if code is None:
            code = build(self, key)
            if type(key) is not str and fv_bounds(key) == (0, 0):
                code = _once(code)
            memo[key] = code
        return code
    return compiled


# -- evaluator ----------------------------------------------------------------


class Evaluator:
    """Evaluation under one binding.  Each term, type and adapter is
    compiled once, when first evaluated, into a closure over an
    environment, and the closure runs for every environment (after Feeley
    and Lapalme, *Using closures for code generation*, 1987).  An
    environment is a pair of tuples, term values and type families, each
    innermost last, so a de Bruijn index is a tuple position fixed at
    compile time.  The compiled code is kept per Evaluator: ``Base`` and
    ``Post`` are resolved against its binding, and datatypes are read from
    the session it compiles in."""

    def __init__(self, binding: ModelBinding):
        self.binding = binding
        self._code = collections.defaultdict(dict)

    def eval_tm(self, env, tm):
        return self.compile_tm(tm)(env)

    # -- types

    @_compiled
    def compile_ty(self, ty):
        match ty:
            case Base(name):
                try:
                    s = self.binding.base(name)
                except ModelError as e:
                    return _failing(ModelError, str(e))
                return lambda env: s
            case TyVarRef(j, inst):
                k = -1 - j
                inst_c = tuple(self.compile_tm(t) for t in inst)
                return lambda env: env[1][k](tuple(c(env) for c in inst_c))
            case Pi(dom, cod):
                return self._binder_ty(SPi, dom, cod)
            case Sig(fst, snd):
                return self._binder_ty(SSig, fst, snd)
            case Ind(name, _, _):
                s = SInd(name)
                return lambda env: s
            case _:
                return _failing(ModelError, f"cannot evaluate type {ty!r}")

    def _binder_ty(self, former, a, b):
        a_c, b_c = self.compile_ty(a), self.compile_ty(b)

        def binder(env):
            tms, tys = env
            return former(a_c(env), lambda v: b_c((tms + (v,), tys)))
        return binder

    # -- terms

    @_compiled
    def compile_tm(self, tm):
        match tm:
            case Var(i):
                k = -1 - i
                return lambda env: env[0][k]
            case Lam(dom, body):
                dom_c, body_c = self.compile_ty(dom), self.compile_tm(body)

                def lam(env):
                    dom_s = dom_c(env)
                    if not dom_s.enumerable:
                        raise NonEnumerable("function over a non-enumerable "
                                            "domain")
                    tms, tys = env
                    return VFun(tuple((v, body_c((tms + (v,), tys)))
                                      for v in dom_s.elements()))
                return lam
            case App(fn, arg):
                fn_c, arg_c = self.compile_tm(fn), self.compile_tm(arg)
                return lambda env: fn_c(env).apply(arg_c(env))
            case Pair(_, a, b):
                a_c, b_c = self.compile_tm(a), self.compile_tm(b)
                return lambda env: VPair(a_c(env), b_c(env))
            case Fst(p):
                p_c = self.compile_tm(p)
                return lambda env: p_c(env).fst
            case Snd(p):
                p_c = self.compile_tm(p)
                return lambda env: p_c(env).snd
            case Cast(t, ad):
                t_c, ad_c = self.compile_tm(t), self.compile_ad(ad)
                return lambda env: ad_c(env)(t_c(env))
            case Con(name, tag, _, args):
                # plain loops: a list costs one frame per cell less here
                # and in the closure than a generator expression would
                args_c = []
                for a in args:
                    args_c.append(self.compile_tm(a))

                def con(env):
                    vals = []
                    for c in args_c:
                        vals.append(c(env))
                    return VCon(name, tag, tuple(vals))
                return con
            case _:
                return _failing(ModelError, f"cannot evaluate term {tm!r}")

    # -- adapters as functions

    @_compiled
    def compile_ad(self, ad):
        match ad:
            case AdId(_):
                return lambda env: _identity
            case Chain(parts):
                parts_c = tuple(self.compile_ad(p) for p in parts)

                def chain(env):
                    fns = [c(env) for c in parts_c]

                    def chained(v):
                        for fn in fns:
                            v = fn(v)
                        return v
                    return chained
                return chain
            case Post(_, _, _):
                try:
                    fn = self.binding.adapter_fn(ad)
                except (ModelError, NonEnumerable) as e:
                    return _failing(type(e), str(e))
                return lambda env: fn
            case PiAd(dom_ad, cod_ad, _, tgt):
                dom_c, cod_c = self.compile_ad(dom_ad), self.compile_ad(cod_ad)
                new_dom_c = self.compile_ty(tgt.dom)

                def pi(env):
                    tms, tys = env
                    return _table_map(
                        dom_c(env), new_dom_c(env),
                        lambda _b, u: cod_c((tms + (u,), tys)),
                        "function cast over a non-enumerable domain")
                return pi
            case SigAd(fst_ad, snd_ad, _, _):
                fst_c, snd_c = self.compile_ad(fst_ad), self.compile_ad(snd_ad)

                def sig(env):
                    fst_fn = fst_c(env)
                    tms, tys = env

                    def sigmap(pv):
                        snd_fn = snd_c((tms + (pv.fst,), tys))
                        return VPair(fst_fn(pv.fst), snd_fn(pv.snd))
                    return sigmap
                return sig
            case IndAd(name, trans):
                # the zip in _sem_trans stops before the forced indices
                trans_c = self._sem_trans(desc(name).params_ctx, trans)
                map_c = self._tree_map(name)
                return lambda env: map_c(trans_c(env))
            case _:
                return _failing(ModelError, f"cannot evaluate adapter {ad!r}")

    def _end(self, ad, want_src: bool):
        """Set of an adapter's source (or target) end, read off the
        adapter; an inductive adapter's ends are its datatype's set."""
        match ad:
            case AdId(ty):
                return self.compile_ty(ty)
            case Chain(parts):
                return self._end(parts[0] if want_src else parts[-1], want_src)
            case Post(_, s, t) | PiAd(_, _, s, t) | SigAd(_, _, s, t):
                return self.compile_ty(s if want_src else t)
            case IndAd(name, _):
                s = SInd(name)
                return lambda env: s
            case _:
                return _failing(ModelError, f"cannot evaluate adapter {ad!r}")

    # -- semantic transformations from syntax

    def _sem_trans(self, ctx: Context, trans: Trans):
        """Semantic transformation from a component spine, run in the
        environment of the ambient context the spine's syntax lives
        over."""
        steps = tuple(
            self._tm_step(entry, c) if isinstance(entry, TmEntry)
            else self._ad_step(entry, c)
            for entry, c in zip(ctx, trans.comps))

        def sem_trans(env):
            tr = NO_TRANS
            for step in steps:
                tr = step(env, tr)
            return tr
        return sem_trans

    def _tm_step(self, entry: TmEntry, c: Term):
        tm_c, push_c = self.compile_tm(c), self._push(entry.ty)
        if entry.dir is POS:
            def step(env, tr):
                v = tm_c(env)
                return tr.with_tm(v, push_c(tr)(v))
        else:
            def step(env, tr):
                w = tm_c(env)
                return tr.with_tm(push_c(tr.dual())(w), w)
        return step

    def _ad_step(self, entry: TyEntry, c: KAd):
        """Semantic entry of an adapter component, by the oracle's own copy
        of the direction table: the adapter sits on the source side iff the
        telescope direction is positive, its free end is its source iff the
        two directions agree, and the stored other is the other side."""
        free_c = self._end(c.ad, entry.dir is entry.tel_dir)
        other_c, ad_c = self.compile_ty(c.forced_ty), self.compile_ad(c.ad)

        def step(env, tr):
            free, other = _family(free_c, env), _family(other_c, env)
            ad = SemAd(entry.dir, entry.tel_dir, _family(ad_c, env))
            if entry.tel_dir is POS:
                return tr.with_ad(free, other, ad)
            return tr.with_ad(other, free, ad)
        return step

    def _whisker(self, ctx: Context, sub: Sub):
        """Semantic left whisker: a transformation pushed through a
        substitution spine into ``ctx`` (the spine's syntax lives over the
        transformation's target context).  The code returns the new
        entries alone."""
        steps = tuple(
            self._whisker_tm(c) if isinstance(entry, TmEntry)
            else self._whisker_ty(entry, c)
            for entry, c in zip(ctx, sub.comps))

        def whisker(tr):
            out = NO_TRANS
            for step in steps:
                tr, out = step(tr, out)
            return out
        return whisker

    def _whisker_tm(self, c: Term):
        tm_c = self.compile_tm(c)

        def step(tr, out):
            v, w = tm_c(tr.src), tm_c(tr.tgt)
            return tr.with_tm(v, w), out.with_tm(v, w)
        return step

    def _whisker_ty(self, entry: TyEntry, c: STy):
        """A type component maps each block of its dependency telescope:
        the given values on the side the block lives on, transported
        across on the other side, with the telescope's types read through
        the (possibly dualized) transformation so far."""
        ty_c, push_c = self.compile_ty(c.ty), self._push(c.ty)
        tel_c = tuple(self._push(ty) for ty in entry.tel)
        tel_pos, same = entry.tel_dir is POS, entry.dir is entry.tel_dir

        def step(tr, out):
            def fn(vals):
                read = tr if tel_pos else tr.dual()
                for block_c, v in zip(tel_c, vals):
                    read = read.with_tm(v, block_c(read)(v))
                return push_c(read if same else read.dual())
            src, tgt = _family(ty_c, tr.src), _family(ty_c, tr.tgt)
            ad = SemAd(entry.dir, entry.tel_dir, fn)
            return tr.with_ad(src, tgt, ad), out.with_ad(src, tgt, ad)
        return step

    # -- the semantic functorial action

    @_compiled
    def _push(self, ty):
        """Code from a semantic transformation to the function from the
        source instance of ``ty`` to its target instance."""
        match ty:
            case Base(_):
                return lambda tr: _identity
            case TyVarRef(j, inst):
                k = -1 - j
                inst_c = tuple(self.compile_tm(t) for t in inst)

                def tyvar(tr):
                    e = tr.ads[k]
                    if e.dir is not POS:
                        raise ModelError("contravariant type variable "
                                         "accessed covariantly")
                    env = tr.src if e.tel_dir is POS else tr.tgt
                    return e.fn(tuple(c(env) for c in inst_c))
                return tyvar
            case Pi(dom, cod):
                back_c, cod_c = self._push(dom), self._push(cod)
                new_dom_c = self.compile_ty(dom)

                def pi(tr):
                    dual = tr.dual()
                    return _table_map(
                        back_c(dual), new_dom_c(dual.src),
                        lambda b, u: cod_c(tr.with_tm(b, u)),
                        "branching over a non-enumerable domain")
                return pi
            case Sig(fst, snd):
                fst_c, snd_c = self._push(fst), self._push(snd)

                def sig(tr):
                    fst_fn = fst_c(tr)

                    def sigmap(pv):
                        a = fst_fn(pv.fst)
                        return VPair(a, snd_c(tr.with_tm(pv.fst, a))(pv.snd))
                    return sigmap
                return sig
            case Ind(name, params, _):
                whisker_c = self._whisker(desc(name).params_ctx, params)
                map_c = self._tree_map(name)
                return lambda tr: map_c(whisker_c(tr))
            case _:
                return _failing(ModelError, f"cannot map over type {ty!r}")

    @_compiled
    def _tree_map(self, name: str):
        """Code from a semantic parameter transformation to the map of
        constructor trees along it: the initial-algebra functorial action.
        The datatype is one more type variable outside the parameters, so
        the declared argument types are read as they stand."""
        d = desc(name)
        self_ix = ty_count(d.params_ctx)
        cons = []
        for c in d.cons:
            rec = []
            for r in c.rec:
                ty = TyVarRef(self_ix, r.rind)
                for a in reversed(r.arit):
                    ty = Pi(a, ty)
                rec.append(self._push(ty))
            cons.append((tuple(self._push(ty) for ty in c.nrec), tuple(rec)))
        s = SInd(name)

        def self_fam(_vals):
            return s

        def tree_map(params: SemTrans):
            outer = NO_TRANS.with_ad(self_fam, self_fam,
                                     SemAd(POS, POS, lambda _vals: go)) + params

            def go(v):
                if not isinstance(v, VCon) or v.desc != name:
                    raise ModelError("inductive map applied to a non-tree "
                                     "value")
                nrec, rec = cons[v.tag]
                # recursive arguments sit over the non-recursive ones only
                tr = outer
                args = []
                for push, arg in zip(nrec, v.args):
                    out = push(tr)(arg)
                    args.append(out)
                    tr = tr.with_tm(arg, out)
                for push, arg in zip(rec, v.args[len(nrec):]):
                    args.append(push(tr)(arg))
                return VCon(name, v.tag, tuple(args))
            return go
        return tree_map


# -- extensional comparison ----------------------------------------------------


def sem_eq(x, y) -> bool:
    if x is y:
        return True
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
        if x.desc != y.desc or x.tag != y.tag or len(x.args) != len(y.args):
            return False
        for a, b in zip(x.args, y.args):
            if not sem_eq(a, b):
                return False
        return True
    return x == y


def needed_entries(ctx: Context, roots: set[int]) -> set[int]:
    """Close a set of needed term variables under their types' own
    dependencies.  Indices count term entries from the inside.  An entry's
    type mentions only entries outside it, so one pass outwards does."""
    n = tm_count(ctx)
    need = set(roots)
    idx = 0
    for entry in reversed(ctx):
        if isinstance(entry, TmEntry):
            if idx in need:
                need.update(k for j in free_tm_vars(entry.ty)
                            if (k := j + idx + 1) < n)
            idx += 1
    return need


class _Unused:
    def __repr__(self):
        return "<unused>"


UNUSED = _Unused()


def enumerate_envs(evalr: Evaluator, ctx: Context, used: set[int]):
    """All environments for a context.  Entries outside ``used`` (term
    indices, innermost = 0) that no used entry's type needs hold an inert
    placeholder, laid down one run at a time."""
    used = needed_entries(ctx, used)
    envs = [()]
    index, idle = tm_count(ctx), 0
    for entry in ctx:
        if isinstance(entry, TyEntry):
            raise NonEnumerable("cannot enumerate type-variable environments")
        index -= 1
        if index not in used:
            idle += 1
            continue
        pad, idle = (UNUSED,) * idle, 0
        ty_c = evalr.compile_ty(entry.ty)
        new = []
        for tms in envs:
            tms += pad
            st = ty_c((tms, ()))
            if not st.enumerable:
                raise NonEnumerable("context entry is not enumerable")
            for v in st.elements():
                new.append(tms + (v,))
        envs = new
    pad = (UNUSED,) * idle
    return [(tms + pad, ()) for tms in envs]
