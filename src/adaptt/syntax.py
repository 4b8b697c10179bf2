"""Abstract syntax for a two-level directed type theory with adapters.

Nine sorts live here: contexts, substitutions, transformations, types,
adapters, terms, telescopes, telescope adapters and instantiations, plus
the signature sorts for inductive types.  All values are immutable.

Representation choices that the rest of the kernel relies on:

* De Bruijn indices are split per namespace.  ``Var(i)`` counts only term
  entries of the context (innermost = 0) and ``TyVarRef(j)`` counts only
  type-variable entries.  The two never alias.
* Dualization is eager.  Dualizing a context flips every entry's
  direction flag (and the telescope direction of type-variable entries);
  substitutions and transformations are self-dual as data, their
  source/target reading flips with the context they are read against.
* Substitutions and transformations are fully eta-expanded component
  spines: one component per target-context entry, no contexts stored on
  the spine itself.  Operations that need the target context take it as
  an argument (it is always known: either the ambient context or the
  parameter context of a registered datatype).
* Nodes are hash-consed.  Constructing a node returns the one live node
  with the same class and fields, however it was built, so ``==`` and
  ``hash`` are identity: O(1) and free of recursion.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from enum import Enum
from typing import Union


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class _Entry(weakref.ref):
    """Weak reference to an interned node that carries the node's table
    key, so the callback fired when the node dies can drop the entry."""

    __slots__ = ("key",)

    def __new__(cls, node, key):
        self = super().__new__(cls, node, _drop)
        self.key = key
        return self

    def __init__(self, node, key):
        super().__init__(node, _drop)


#: The intern table, shared by every node class: ``(cls, *fields)`` to a
#: weak reference to the one live node with those fields.  It is
#: process-wide because identity equality needs one canonical node per
#: value, and the stock datatype descriptions outlive any single file.
INTERNED: dict[tuple, _Entry] = {}


def _drop(entry: _Entry, table=INTERNED) -> None:
    # a node rebuilt after its predecessor died but before this callback
    # ran owns the key now; leave its entry alone.  The table is bound at
    # definition time because module globals are gone at interpreter exit.
    if table.get(entry.key) is entry:
        del table[entry.key]


_NEW_TEMPLATE = """\
def __new__(cls, {params}):
    key = (cls, {params})
    entry = lookup(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = new(cls)
{sets}
    table[key] = Entry(node, key)
    return node
"""


def interned(cls):
    """Class decorator for syntax nodes: a frozen dataclass whose
    constructor returns the canonical node for its fields.  Equality and
    hashing are inherited from ``object``, hence identity."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    names = [f.name for f in fields(cls)]
    src = _NEW_TEMPLATE.format(
        params=", ".join(names),
        sets="\n".join(f"    set(node, {n!r}, {n})" for n in names))
    env = {"lookup": INTERNED.get, "table": INTERNED, "Entry": _Entry,
           "new": object.__new__, "set": object.__setattr__}
    exec(src, env)
    cls.__new__ = staticmethod(env["__new__"])
    cls._fv = None      # free-variable bounds, filled in by ``fv_bounds``
    return cls


class Dir(Enum):
    """Direction (variance) flag; the two-element group."""

    POS = "+"
    NEG = "-"

    def __mul__(self, other: Dir) -> Dir:
        return POS if self is other else NEG

    @property
    def flip(self) -> Dir:
        return NEG if self is POS else POS


POS = Dir.POS
NEG = Dir.NEG


# ---------------------------------------------------------------------------
# Types, terms, adapters
# ---------------------------------------------------------------------------


@interned
class Base:
    """Postulated ground type; closed, so substitution leaves it alone."""

    name: str


@interned
class TyVarRef:
    """Occurrence of a type variable, applied to an instantiation.

    ``inst`` fills the variable's dependency telescope; its terms live in
    the telescope-direction dual of the ambient context.
    """

    index: int
    inst: Inst


@interned
class Pi:
    """Dependent function type.  ``dom`` lives in the dual of the ambient
    context; ``cod`` lives under a negative binder for the argument."""

    dom: Type
    cod: Type


@interned
class Sig:
    """Dependent pair type; both components covariant."""

    fst: Type
    snd: Type


@interned
class Ind:
    """A registered inductive type at concrete parameters and indices.

    ``params`` is a spine into the datatype's parameter context and
    ``indices`` instantiates its index telescope under ``params``.
    """

    desc: str
    params: Sub
    indices: Inst


Type = Union[Base, TyVarRef, Pi, Sig, Ind]


@interned
class Var:
    index: int


@interned
class Lam:
    """Annotated abstraction; the bound variable is contravariant."""

    dom: Type
    body: Term


@interned
class App:
    fn: Term
    arg: Term


@interned
class Pair:
    """Annotated pair; ``ty`` is the Sigma type it inhabits."""

    ty: Sig
    fst: Term
    snd: Term


@interned
class Fst:
    pair: Term


@interned
class Snd:
    pair: Term


@interned
class Cast:
    """Action of an adapter on a term.  Normal forms never carry an
    identity or a composite adapter here; the normalizer splits those."""

    tm: Term
    ad: Adapter


@interned
class Con:
    """Constructor of a registered inductive, fully applied."""

    desc: str
    tag: int
    params: Sub
    args: Inst


Term = Union[Var, Lam, App, Pair, Fst, Snd, Cast, Con]


@interned
class AdId:
    """Identity adapter at a type."""

    ty: Type


@interned
class Chain:
    """Free composition of atomic adapters, outermost (applied last) at
    the end.  Never nested, never contains identities."""

    parts: tuple[Adapter, ...]


@interned
class Post:
    """Postulated ground adapter between closed types."""

    name: str
    src_ty: Type
    tgt_ty: Type


@interned
class PiAd:
    """Structural adapter between function types.

    ``dom_ad`` runs from the target domain to the source domain, in the
    dual context.  ``cod_ad`` lives under a negative binder for the target
    domain and runs from the source codomain (precomposed with ``dom_ad``)
    to the target codomain.  Endpoints are stored because the source
    codomain is not recoverable from the components alone.
    """

    dom_ad: Adapter
    cod_ad: Adapter
    src_ty: Pi
    tgt_ty: Pi


@interned
class SigAd:
    """Structural adapter between pair types; both components forward."""

    fst_ad: Adapter
    snd_ad: Adapter
    src_ty: Sig
    tgt_ty: Sig


@interned
class IndAd:
    """Functorial adapter of an inductive: a transformation between two
    spines into the datatype's parameters-plus-indices context."""

    desc: str
    trans: Trans


Adapter = Union[AdId, Chain, Post, PiAd, SigAd, IndAd]


# ---------------------------------------------------------------------------
# Spines: substitutions, transformations, telescopes
# ---------------------------------------------------------------------------


@interned
class STm:
    """Substitution component for a term entry."""

    tm: Term


@interned
class STy:
    """Substitution component for a type-variable entry: a type over the
    source context extended by the entry's (substituted) telescope.
    ``arity`` caches that telescope's length."""

    ty: Type
    arity: int


SubComp = Union[STm, STy]


@interned
class Sub:
    comps: tuple[SubComp, ...]

    def __len__(self) -> int:
        return len(self.comps)


@interned
class KTm:
    """Transformation component for a term entry: the free-side term
    (source side for positive entries, target side for negative ones);
    the other endpoint is forced and recomputed on demand."""

    tm: Term


@interned
class KAd:
    """Transformation component for a type-variable entry.

    ``ad`` is the free component (its source type is the free-side spine
    component); ``forced_ty`` is the other endpoint's spine component,
    which is not recoverable from ``ad`` alone.
    """

    ad: Adapter
    forced_ty: Type
    arity: int


TransComp = Union[KTm, KAd]


@interned
class Trans:
    comps: tuple[TransComp, ...]

    def __len__(self) -> int:
        return len(self.comps)


Telescope = tuple[Type, ...]
Inst = tuple[Term, ...]
TelAd = tuple[Adapter, ...]


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@interned
class TmEntry:
    """Term variable entry; ``ty`` lives over the dir-dual of the prefix."""

    dir: Dir
    ty: Type


@interned
class TyEntry:
    """Type variable entry; ``tel`` lives over the tel_dir-dual prefix."""

    dir: Dir
    tel_dir: Dir
    tel: Telescope


CtxEntry = Union[TmEntry, TyEntry]
Context = tuple[CtxEntry, ...]

EMPTY: Context = ()


def dual_entry(e: CtxEntry) -> CtxEntry:
    if isinstance(e, TmEntry):
        return TmEntry(e.dir.flip, e.ty)
    return TyEntry(e.dir.flip, e.tel_dir.flip, e.tel)


def dual_ctx(ctx: Context, d: Dir = NEG) -> Context:
    if d is POS:
        return ctx
    return tuple(dual_entry(e) for e in ctx)


def extend_tm(ctx: Context, d: Dir, ty: Type) -> Context:
    return ctx + (TmEntry(d, ty),)


def extend_tel(ctx: Context, d: Dir, tel: Telescope) -> Context:
    """Telescope extension, stored expanded into individual term entries."""
    return ctx + tuple(TmEntry(d, ty) for ty in tel)


def tm_count(ctx: Context) -> int:
    return sum(1 for e in ctx if isinstance(e, TmEntry))


def ty_count(ctx: Context) -> int:
    return sum(1 for e in ctx if isinstance(e, TyEntry))


def tm_entry_position(ctx: Context, index: int) -> int:
    """Absolute position of the term entry with de Bruijn index ``index``."""
    seen = 0
    for pos in range(len(ctx) - 1, -1, -1):
        if isinstance(ctx[pos], TmEntry):
            if seen == index:
                return pos
            seen += 1
    raise IndexError(f"unbound term variable {index}")


def ty_entry_position(ctx: Context, index: int) -> int:
    seen = 0
    for pos in range(len(ctx) - 1, -1, -1):
        if isinstance(ctx[pos], TyEntry):
            if seen == index:
                return pos
            seen += 1
    raise IndexError(f"unbound type variable {index}")


def vinst(tel: Telescope) -> Inst:
    """Variable instantiation of a telescope over its own extension."""
    n = len(tel)
    return tuple(Var(n - 1 - k) for k in range(n))


# ---------------------------------------------------------------------------
# Free-variable bounds
# ---------------------------------------------------------------------------


def fv_bounds(x) -> tuple[int, int]:
    """``(term bound, type bound)`` of a syntax value: one more than its
    largest free index in each namespace, 0 when there is none.  A node
    computes its pair once and keeps it; a bare tuple is read as a
    telescope, as ``shift`` reads it.  The binder offsets are those of
    ``_shift``, so a value whose bounds lie at or below the cutoffs of a
    traversal has no free variable that the traversal would touch."""
    try:
        fv = x._fv
    except AttributeError:
        if not isinstance(x, tuple):
            raise TypeError(f"not a syntax value: {x!r}") from None
        return _join((0, 0), enumerate(x))
    if fv is None:
        fv = _join(*_scopes(x))
        x.__dict__["_fv"] = fv
    return fv


def _join(own, scoped) -> tuple[int, int]:
    tm, ty = own
    for k, child in scoped:
        c_tm, c_ty = fv_bounds(child)
        tm = max(tm, c_tm - k)
        ty = max(ty, c_ty)
    return tm, ty


def _scopes(x):
    """A node's own free indices as ``(term bound, type bound)``, and its
    syntax children, each paired with the term binders it sits under."""
    match x:
        case Var(i):
            return (i + 1, 0), ()
        case Base(_) | Post(_, _, _):
            return (0, 0), ()
        case TyVarRef(j, inst):
            return (0, j + 1), [(0, t) for t in inst]
        case Pi(a, b) | Sig(a, b) | Lam(a, b):
            return (0, 0), ((0, a), (1, b))
        case App(a, b) | Cast(a, b):
            return (0, 0), ((0, a), (0, b))
        case Pair(ty, a, b):
            return (0, 0), ((0, ty), (0, a), (0, b))
        case Fst(p) | Snd(p) | AdId(p) | IndAd(_, p) | STm(p) | KTm(p):
            return (0, 0), ((0, p),)
        case Ind(_, params, inst) | Con(_, _, params, inst):
            return (0, 0), [(0, params)] + [(0, t) for t in inst]
        case Chain(xs) | Sub(xs) | Trans(xs):
            return (0, 0), [(0, c) for c in xs]
        case PiAd(da, ca, s, t) | SigAd(da, ca, s, t):
            return (0, 0), ((0, da), (1, ca), (0, s), (0, t))
        case STy(ty, arity):
            return (0, 0), ((arity, ty),)
        case KAd(ad, forced, arity):
            return (0, 0), ((arity, ad), (arity, forced))
        case _:
            raise TypeError(f"not a syntax value: {x!r}")


# ---------------------------------------------------------------------------
# Weakening (namespace-split index shifting)
# ---------------------------------------------------------------------------


def shift(x, d_tm: int, d_ty: int, c_tm: int = 0, c_ty: int = 0):
    """Shift free indices of any syntax value: term indices at or above
    ``c_tm`` move by ``d_tm``, type-variable indices at or above ``c_ty``
    by ``d_ty``.  Total on every sort that can occur inside another."""
    if d_tm == 0 and d_ty == 0:
        return x
    return _shift(x, d_tm, d_ty, c_tm, c_ty)


def _shift_all(xs, d_tm, d_ty, c_tm, c_ty):
    return tuple(_shift(x, d_tm, d_ty, c_tm, c_ty) for x in xs)


def _shift(x, d_tm, d_ty, c_tm, c_ty):
    if type(x) is tuple:
        # telescope: successive entries see one more bound term var
        return tuple(_shift(t, d_tm, d_ty, c_tm + k, c_ty)
                     for k, t in enumerate(x))
    b_tm, b_ty = fv_bounds(x)
    if b_tm <= c_tm and b_ty <= c_ty:
        # nothing free at or above the cutoffs: the shift is the identity
        return x
    match x:
        case Var(i):
            return Var(i + d_tm)
        case TyVarRef(j, inst):
            j2 = j + d_ty if j >= c_ty else j
            return TyVarRef(j2, _shift_all(inst, d_tm, d_ty, c_tm, c_ty))
        case Pi(dom, cod):
            return Pi(_shift(dom, d_tm, d_ty, c_tm, c_ty),
                      _shift(cod, d_tm, d_ty, c_tm + 1, c_ty))
        case Sig(fst, snd):
            return Sig(_shift(fst, d_tm, d_ty, c_tm, c_ty),
                       _shift(snd, d_tm, d_ty, c_tm + 1, c_ty))
        case Ind(desc, params, indices):
            return Ind(desc, _shift(params, d_tm, d_ty, c_tm, c_ty),
                       _shift_all(indices, d_tm, d_ty, c_tm, c_ty))
        case Lam(dom, body):
            return Lam(_shift(dom, d_tm, d_ty, c_tm, c_ty),
                       _shift(body, d_tm, d_ty, c_tm + 1, c_ty))
        case App(fn, arg):
            return App(_shift(fn, d_tm, d_ty, c_tm, c_ty),
                       _shift(arg, d_tm, d_ty, c_tm, c_ty))
        case Pair(ty, fst, snd):
            return Pair(_shift(ty, d_tm, d_ty, c_tm, c_ty),
                        _shift(fst, d_tm, d_ty, c_tm, c_ty),
                        _shift(snd, d_tm, d_ty, c_tm, c_ty))
        case Fst(p):
            return Fst(_shift(p, d_tm, d_ty, c_tm, c_ty))
        case Snd(p):
            return Snd(_shift(p, d_tm, d_ty, c_tm, c_ty))
        case Cast(tm, ad):
            return Cast(_shift(tm, d_tm, d_ty, c_tm, c_ty),
                        _shift(ad, d_tm, d_ty, c_tm, c_ty))
        case Con(desc, tag, params, args):
            return Con(desc, tag, _shift(params, d_tm, d_ty, c_tm, c_ty),
                       _shift_all(args, d_tm, d_ty, c_tm, c_ty))
        case AdId(ty):
            return AdId(_shift(ty, d_tm, d_ty, c_tm, c_ty))
        case Chain(parts):
            return Chain(_shift_all(parts, d_tm, d_ty, c_tm, c_ty))
        case PiAd(da, ca, s, t):
            return PiAd(_shift(da, d_tm, d_ty, c_tm, c_ty),
                        _shift(ca, d_tm, d_ty, c_tm + 1, c_ty),
                        _shift(s, d_tm, d_ty, c_tm, c_ty),
                        _shift(t, d_tm, d_ty, c_tm, c_ty))
        case SigAd(fa, sa, s, t):
            return SigAd(_shift(fa, d_tm, d_ty, c_tm, c_ty),
                         _shift(sa, d_tm, d_ty, c_tm + 1, c_ty),
                         _shift(s, d_tm, d_ty, c_tm, c_ty),
                         _shift(t, d_tm, d_ty, c_tm, c_ty))
        case IndAd(desc, trans):
            return IndAd(desc, _shift(trans, d_tm, d_ty, c_tm, c_ty))
        case Sub(comps):
            return Sub(_shift_all(comps, d_tm, d_ty, c_tm, c_ty))
        case STm(tm):
            return STm(_shift(tm, d_tm, d_ty, c_tm, c_ty))
        case STy(ty, arity):
            return STy(_shift(ty, d_tm, d_ty, c_tm + arity, c_ty), arity)
        case Trans(comps):
            return Trans(_shift_all(comps, d_tm, d_ty, c_tm, c_ty))
        case KTm(tm):
            return KTm(_shift(tm, d_tm, d_ty, c_tm, c_ty))
        case KAd(ad, forced, arity):
            return KAd(_shift(ad, d_tm, d_ty, c_tm + arity, c_ty),
                       _shift(forced, d_tm, d_ty, c_tm + arity, c_ty), arity)
        case _:
            raise TypeError(f"cannot shift {x!r}")


def shift_tel(tel: Telescope, d_tm: int, d_ty: int,
              c_tm: int = 0, c_ty: int = 0) -> Telescope:
    return tuple(shift(t, d_tm, d_ty, c_tm + k, c_ty) for k, t in enumerate(tel))


# ---------------------------------------------------------------------------
# Identity and weakening spines
# ---------------------------------------------------------------------------


def id_sub(ctx: Context) -> Sub:
    """The identity substitution on ``ctx`` as an eta-expanded spine."""
    comps: list[SubComp] = []
    tm_left = tm_count(ctx)
    ty_left = ty_count(ctx)
    for e in ctx:
        if isinstance(e, TmEntry):
            tm_left -= 1
            comps.append(STm(Var(tm_left)))
        else:
            ty_left -= 1
            comps.append(STy(TyVarRef(ty_left, vinst(e.tel)), len(e.tel)))
    return Sub(tuple(comps))


# ---------------------------------------------------------------------------
# Inductive signatures
# ---------------------------------------------------------------------------


@interned
class RecDesc:
    """Recursive constructor argument: a contravariant arity telescope
    (the branching shape) and the indices of the recursive occurrence."""

    arit: Telescope
    rind: Inst


@interned
class ConDesc:
    """Constructor signature: non-recursive arguments, recursive argument
    descriptions, and the result indices (over params + nrec)."""

    name: str
    nrec: Telescope
    rec: tuple[RecDesc, ...]
    ind: Inst


@interned
class IndDesc:
    name: str
    params_ctx: Context
    index_tel: Telescope
    cons: tuple[ConDesc, ...]

    @cached_property
    def full_ctx(self) -> Context:
        """Parameter context extended by the index telescope."""
        return extend_tel(self.params_ctx, POS, self.index_tel)

    def con_index(self, name: str) -> int:
        for i, c in enumerate(self.cons):
            if c.name == name:
                return i
        raise KeyError(f"no constructor {name!r} in {self.name}")


# The global description table: append-only, registration precedes use.
DESC_TABLE: dict[str, IndDesc] = {}


def desc(name: str) -> IndDesc:
    try:
        return DESC_TABLE[name]
    except KeyError:
        raise KeyError(f"unregistered datatype {name!r}") from None


def install_desc(d: IndDesc) -> None:
    """Raw table insertion; idempotent on structurally equal re-entry.
    Checked registration lives in the inductive engine."""
    old = DESC_TABLE.get(d.name)
    if old is not None and old != d:
        raise ValueError(f"datatype {d.name!r} already registered differently")
    DESC_TABLE[d.name] = d


# ---------------------------------------------------------------------------
# Dualization of the remaining sorts
# ---------------------------------------------------------------------------


def dualize(obj, d: Dir = NEG):
    """Group action of a direction on contexts, substitutions and
    transformations.  Spines are self-dual as data (their components do
    not change); only the context reading flips, so for them this is the
    identity and the flip happens wherever the context is supplied."""
    if d is POS:
        return obj
    if isinstance(obj, tuple):  # Context
        return dual_ctx(obj)
    if isinstance(obj, (Sub, Trans)):
        return obj
    raise TypeError(f"cannot dualize {obj!r}")
