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
  parameter context of a registered datatype).  A term entry's component
  is the term itself, in either spine; only a type-variable entry's is
  wrapped, as a family (``STy``) or an adapter with its forced end
  (``KAd``), the two classes of ``TY_COMPS``.
* Nodes are hash-consed.  Constructing a node returns the one live node
  with the same class and fields, however it was built, so ``==`` and
  ``hash`` are identity: O(1) and free of recursion.
* Binder offsets are written once, in the table ``SHAPE``: which fields
  of each node class are syntax, and under how many term binders each
  sits.  A bare tuple is a telescope, its entry k under k binders.  Every
  traversal is a few leaf cases over ``scoped`` or ``map_scoped``, the
  set-model oracle's ``free_tm_vars`` included; only the oracle's
  evaluator, which must stay independent, walks the syntax on its own.
  Beside it, ``BINDER_DIR`` gives each binder former its bound variable's
  direction, read by every traversal that needs it: ``check_ty``,
  substitution, conversion, ``transform.push_ty`` and the elaborator.
  The printer and the oracle read Pi and Sig alike but need no direction.
"""

from __future__ import annotations

from weakref import KeyedRef
from contextvars import ContextVar
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from functools import cached_property, partial
from math import inf
from enum import Enum
from typing import Union


# ---------------------------------------------------------------------------
# Record classes
# ---------------------------------------------------------------------------
#
# Every node and record class of the package is a dataclass, so that
# ``dataclasses.fields`` lists its fields and ``__match_args__`` names the
# ones its constructor takes.  ``dataclasses`` writes and compiles source
# for each method it adds, most of the package's import time were it to add
# them all, so it adds none but a mutable record's ``__init__``.  A frozen
# record's ``__init__`` and a node's ``__new__``, which run for every value,
# are written below for each class.  ``__repr__``, value ``__eq__`` and
# ``__hash__`` and the frozen ``__setattr__`` and ``__delattr__`` are single
# functions shared by every class, which read its fields off
# ``__match_args__``.


def _repr(self) -> str:
    # the format ``dataclasses`` writes
    shown = ", ".join([f"{n}={getattr(self, n)!r}"
                       for n in self.__match_args__])
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self.__match_args__
    return ([getattr(self, n) for n in names]
            == [getattr(other, n) for n in names])


def _hash(self) -> int:
    return hash(tuple([getattr(self, n) for n in self.__match_args__]))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_INIT_TEMPLATE = """\
def __init__(self, {params}):
{sets}
"""


def _frozen_init(cls):
    """An ``__init__`` for a frozen record: each field its constructor
    takes is written past ``__setattr__``, then ``__post_init__`` runs if
    the class has one."""
    init = [f for f in fields(cls) if f.init]
    sets = [f"    set(self, {f.name!r}, {f.name})" for f in init]
    if hasattr(cls, "__post_init__"):
        sets.append("    self.__post_init__()")
    env = {"set": object.__setattr__}
    exec(_INIT_TEMPLATE.format(params=", ".join([f.name for f in init]),
                               sets="\n".join(sets)), env)
    fn = env["__init__"]
    fn.__defaults__ = tuple([f.default for f in init
                             if f.default is not MISSING]) or None
    return fn


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator for a record: a slotted dataclass with value
    equality and the ``dataclasses`` repr.  A ``frozen`` record is hashable
    and raises ``FrozenInstanceError`` on assignment; any other is
    unhashable."""
    if cls is None:
        return partial(record, frozen=frozen)
    cls = dataclass(cls, init=not frozen, repr=False, eq=False, slots=True)
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    if frozen:
        cls.__init__ = _frozen_init(cls)
        cls.__hash__ = _hash
        cls.__setattr__ = _setattr
        cls.__delattr__ = _delattr
    else:
        cls.__hash__ = None
    return cls


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


#: The intern table, shared by every node class: ``(cls, *fields)`` to a
#: weak reference, carrying that key for ``_drop``, to the one live node
#: with those fields.  Process-wide: identity equality needs one canonical
#: node per value, and the stock datatype descriptions outlive any file.
INTERNED: dict[tuple, KeyedRef] = {}


def _drop(entry: KeyedRef, table=INTERNED) -> None:
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
    table[key] = ref(node, drop, key)
    return node
"""


def interned(cls):
    """Class decorator for syntax nodes: a frozen record whose constructor
    returns the canonical node for its fields.  Equality and hashing are
    inherited from ``object``, hence identity."""
    cls = dataclass(cls, init=False, repr=False, eq=False)
    names = cls.__match_args__
    src = _NEW_TEMPLATE.format(
        params=", ".join(names),
        sets="\n".join(f"    set(node, {n!r}, {n})" for n in names))
    env = {"lookup": INTERNED.get, "table": INTERNED, "ref": KeyedRef,
           "drop": _drop, "new": object.__new__, "set": object.__setattr__}
    exec(src, env)
    cls.__new__ = staticmethod(env["__new__"])
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls._fv = None      # free-variable bounds, filled in by ``fv_bounds``
    cls._lo = None      # least free term index, filled in by ``least_free_tm``
    cls._normal = False  # set by ``normalize.nf`` on each node it returns
    return cls


class Dir(Enum):
    """Direction (variance) flag: covariant or contravariant."""

    POS = "+"
    NEG = "-"

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
    """Occurrence of a term variable, by de Bruijn index."""

    index: int


@interned
class Lam:
    """Annotated abstraction; the bound variable is contravariant."""

    dom: Type
    body: Term


@interned
class App:
    """Application of a function to an argument."""

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
    """First projection of a pair."""

    pair: Term


@interned
class Snd:
    """Second projection of a pair."""

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
class STy:
    """Substitution component for a type-variable entry: a type over the
    source context extended by the entry's (substituted) telescope.
    ``arity`` caches that telescope's length.  A term entry's component is
    the term itself."""

    ty: Type
    arity: int


@interned
class Sub:
    """Substitution: one component per entry of its target context, a
    term for a term entry and an ``STy`` for a type-variable entry."""

    comps: tuple[Term | STy, ...]


@interned
class KAd:
    """Transformation component for a type-variable entry.

    ``ad`` is the free component (its source type is the free-side spine
    component); ``forced_ty`` is the other endpoint's spine component,
    which is not recoverable from ``ad`` alone.  A term entry's component
    is the free-side term itself (source side for positive entries, target
    side for negative ones); its other endpoint is forced and recomputed
    on demand.
    """

    ad: Adapter
    forced_ty: Type
    arity: int


@interned
class Trans:
    """Transformation: one component per entry of its target context, the
    free-side term for a term entry and a ``KAd`` for a type-variable
    entry."""

    comps: tuple[Term | KAd, ...]


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

    @cached_property
    def dual(self) -> TmEntry:
        return TmEntry(self.dir.flip, self.ty)


@interned
class TyEntry:
    """Type variable entry; ``tel`` lives over the tel_dir-dual prefix."""

    dir: Dir
    tel_dir: Dir
    tel: Telescope

    @cached_property
    def dual(self) -> TyEntry:
        return TyEntry(self.dir.flip, self.tel_dir.flip, self.tel)


CtxEntry = Union[TmEntry, TyEntry]
Context = tuple[CtxEntry, ...]

EMPTY: Context = ()


def dual_ctx(ctx: Context, d: Dir = NEG) -> Context:
    """``ctx`` read at direction ``d``: at ``NEG``, every entry flipped.
    Each entry builds its dual once and keeps it."""
    if d is POS:
        return ctx
    return tuple([e.dual for e in ctx])


def extend_tm(ctx: Context, d: Dir, ty: Type) -> Context:
    return ctx + (TmEntry(d, ty),)


def extend_tel(ctx: Context, d: Dir, tel: Telescope) -> Context:
    """Telescope extension, stored expanded into individual term entries."""
    return ctx + tuple(TmEntry(d, ty) for ty in tel)


def tm_count(ctx: Context) -> int:
    return sum(1 for e in ctx if isinstance(e, TmEntry))


def ty_count(ctx: Context) -> int:
    return sum(1 for e in ctx if isinstance(e, TyEntry))


def entry_position(ctx: Context, cls: type, index: int) -> int:
    """Absolute position of the ``cls`` entry (``TmEntry`` or ``TyEntry``)
    with de Bruijn index ``index`` in its namespace."""
    seen = 0
    for pos in range(len(ctx) - 1, -1, -1):
        if isinstance(ctx[pos], cls):
            if seen == index:
                return pos
            seen += 1
    raise IndexError(f"unbound {cls.__name__} variable {index}")


def vinst(tel: Telescope) -> Inst:
    """Variable instantiation of a telescope over its own extension."""
    n = len(tel)
    return tuple(Var(n - 1 - k) for k in range(n))


# ---------------------------------------------------------------------------
# The binder table
# ---------------------------------------------------------------------------


#: Field kinds besides ``None`` (not syntax) and an int k (a child under k
#: more term binders): a tuple of children, and a child under ``arity``.
SEQ = "seq"
ARITY = "arity"

#: Each syntax node class's fields in order, with their kinds: the one
#: place binder offsets are written.  A postulate's types are closed.
SHAPE: dict[type, tuple[tuple[str, object], ...]] = {
    Base: (("name", None),),
    TyVarRef: (("index", None), ("inst", SEQ)),
    Pi: (("dom", 0), ("cod", 1)),
    Sig: (("fst", 0), ("snd", 1)),
    Ind: (("desc", None), ("params", 0), ("indices", SEQ)),
    Var: (("index", None),),
    Lam: (("dom", 0), ("body", 1)),
    App: (("fn", 0), ("arg", 0)),
    Pair: (("ty", 0), ("fst", 0), ("snd", 0)),
    Fst: (("pair", 0),),
    Snd: (("pair", 0),),
    Cast: (("tm", 0), ("ad", 0)),
    Con: (("desc", None), ("tag", None), ("params", 0), ("args", SEQ)),
    AdId: (("ty", 0),),
    Chain: (("parts", SEQ),),
    Post: (("name", None), ("src_ty", None), ("tgt_ty", None)),
    PiAd: (("dom_ad", 0), ("cod_ad", 1), ("src_ty", 0), ("tgt_ty", 0)),
    SigAd: (("fst_ad", 0), ("snd_ad", 1), ("src_ty", 0), ("tgt_ty", 0)),
    IndAd: (("desc", None), ("trans", 0)),
    STy: (("ty", ARITY), ("arity", None)),
    Sub: (("comps", SEQ),),
    KAd: (("ad", ARITY), ("forced_ty", ARITY), ("arity", None)),
    Trans: (("comps", SEQ),),
}

#: The classes of a spine's type components.  A component at a term entry
#: is the term itself, so it is told apart as an instance of neither.
TY_COMPS = (STy, KAd)

#: The binder formers of types and terms, each with its bound variable's
#: direction ``d``: the first child is read at ``dual_ctx(ctx, d)`` and
#: the second under a ``d`` entry.  Pi and Lam bind contravariantly, Sig
#: covariantly.
BINDER_DIR: dict[type, Dir] = {Pi: NEG, Lam: NEG, Sig: POS}


def _row(x):
    try:
        return SHAPE[type(x)]
    except KeyError:
        raise TypeError(f"not a syntax value: {x!r}") from None


def scoped(x):
    """Yield the syntax children of ``x``, each as ``(extra_binders,
    child)``.  A bare tuple is read as a telescope: entry k sits under k
    binders."""
    if type(x) is tuple:
        yield from enumerate(x)
        return
    for name, k in _row(x):
        if k is not None:
            v = getattr(x, name)
            if k is SEQ:
                for c in v:
                    yield 0, c
            else:
                yield (x.arity if k is ARITY else k), v


def map_scoped(x, fn, args, depth, build):
    """Rebuild ``x`` with each syntax child replaced by ``fn(child, *args,
    depth + k)``, k being the binders the child sits under, and every other
    field kept.  ``build`` maps a node class to the constructor to rebuild
    it with (a smart constructor, say); a class it lacks uses its own.  A
    bare tuple is read as a telescope, as in ``scoped``."""
    if type(x) is tuple:
        return tuple([fn(t, *args, depth + k) for k, t in enumerate(x)])
    out = []
    for name, k in _row(x):
        v = getattr(x, name)
        if k is None:
            out.append(v)
        elif k is SEQ:
            out.append(tuple([fn(c, *args, depth) for c in v]))
        else:
            out.append(fn(v, *args, depth + (x.arity if k is ARITY else k)))
    cls = type(x)
    return build.get(cls, cls)(*out)


# ---------------------------------------------------------------------------
# Free-variable bounds
# ---------------------------------------------------------------------------


def fv_bounds(x) -> tuple[int, int]:
    """``(term bound, type bound)`` of a syntax value: one more than its
    largest free index in each namespace, 0 when there is none.  A node
    computes its pair once and keeps it; a bare tuple is read as a
    telescope.  The binder offsets are those of ``SHAPE``, so a value whose
    bounds lie at or below the cutoffs of a traversal has no free variable
    that the traversal would touch."""
    try:
        fv = x._fv
    except AttributeError:
        fv = None       # a bare tuple: computed on every call
    if fv is not None:
        return fv
    cls = type(x)
    tm = x.index + 1 if cls is Var else 0
    ty = x.index + 1 if cls is TyVarRef else 0
    for k, child in scoped(x):
        c_tm, c_ty = fv_bounds(child)
        tm = max(tm, c_tm - k)
        ty = max(ty, c_ty)
    if cls is not tuple:
        x.__dict__["_fv"] = (tm, ty)
    return tm, ty


def free_tm_vars(x) -> set[int]:
    """Free term-variable indices of any syntax value, a bare tuple read
    as a telescope.  A subterm whose term bound lies at or below its depth
    has none and is skipped."""
    out: set[int] = set()
    stack = [(0, x)]
    while stack:
        d, x = stack.pop()
        if fv_bounds(x)[0] <= d:
            continue
        if type(x) is Var:
            out.add(x.index - d)
        else:
            stack.extend((d + k, c) for k, c in scoped(x))
    return out


def least_free_tm(x) -> int | float:
    """The least free term index of any syntax value, ``inf`` when it has
    none, so an index below k occurs free in ``x`` exactly when
    ``least_free_tm(x) < k``; a bare tuple is read as a telescope.  A node
    computes it once and keeps it beside its bounds, from each child's
    least index at or above the binders the child sits under: the child's
    own when it is that large, else one found below the child, where a
    subterm whose term bound lies at or below its depth is skipped."""
    try:
        lo = x._lo
    except AttributeError:
        lo = None       # a bare tuple: computed on every call
    if lo is not None:
        return lo
    if type(x) is Var:
        lo = x.index
    else:
        lo, stack = inf, list(scoped(x))
        while stack:
            d, y = stack.pop()
            if fv_bounds(y)[0] <= d:
                continue
            y_lo = least_free_tm(y)
            if y_lo >= d:
                lo = min(lo, y_lo - d)
            else:
                stack.extend((d + k, c) for k, c in scoped(y))
    if type(x) is not tuple:
        x.__dict__["_lo"] = lo
    return lo


# ---------------------------------------------------------------------------
# Weakening (namespace-split index shifting)
# ---------------------------------------------------------------------------


def shift(x, d_tm: int, d_ty: int, c_tm: int = 0):
    """Shift free indices of any syntax value: term indices at or above
    ``c_tm`` move by ``d_tm``, every type-variable index by ``d_ty``.
    Type variables are bound only by context entries, never inside
    syntax, so no cutoff applies to them.  Total on every sort that can
    occur inside another; a bare tuple is shifted as a telescope."""
    if d_tm == 0 and d_ty == 0:
        return x
    return _shift(x, d_tm, d_ty, c_tm)


def _shift(x, d_tm, d_ty, c_tm):
    cls = type(x)
    if cls is not tuple:    # a telescope has no cached bounds to test
        b_tm, b_ty = fv_bounds(x)
        if b_tm <= c_tm and b_ty == 0:
            # nothing free that the shift moves: it is the identity
            return x
        if cls is Var:
            return Var(x.index + d_tm)
        if cls is TyVarRef:
            return TyVarRef(x.index + d_ty,
                            tuple([_shift(t, d_tm, d_ty, c_tm)
                                   for t in x.inst]))
    return map_scoped(x, _shift, (d_tm, d_ty), c_tm, {})


# ---------------------------------------------------------------------------
# Identity and weakening spines
# ---------------------------------------------------------------------------


def id_sub(ctx: Context) -> Sub:
    """The identity substitution on ``ctx`` as an eta-expanded spine."""
    comps: list[Term | STy] = []
    tm_left = tm_count(ctx)
    ty_left = ty_count(ctx)
    for e in ctx:
        if isinstance(e, TmEntry):
            tm_left -= 1
            comps.append(Var(tm_left))
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
    """Signature of an inductive family: parameters, indices, constructors."""

    name: str
    params_ctx: Context
    index_tel: Telescope
    cons: tuple[ConDesc, ...]

    @cached_property
    def full_ctx(self) -> Context:
        """Parameter context extended by the index telescope."""
        return extend_tel(self.params_ctx, POS, self.index_tel)


@record
class Session:
    """State of one command: the datatype table by name, the trace sink
    (called with rule name and path per rewrite step, or None), the stack
    of trace-path segments, the judgment memo (``normalize.session_memo``)
    and the record that rewrite steps go to while a memoized computation
    runs (None outside one).  Judgments read the datatype table by name,
    so their memo lives and dies with it."""
    descs: dict[str, IndDesc]
    sink: object = None
    path: list[str] = field(default_factory=list)
    memo: dict = field(default_factory=dict)
    record: list | None = None


#: the current session; by default the root one, which holds the stock
#: datatypes for library callers
SESSION: ContextVar[Session] = ContextVar("SESSION", default=Session({}))


def desc(name: str) -> IndDesc:
    try:
        return SESSION.get().descs[name]
    except KeyError:
        raise KeyError(f"unregistered datatype {name!r}") from None
