"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` made from the run's seed and
returns inputs together with their known answers.  The answers are built
here, from the shape of the input, without calling the kernel under
test: the expected cast result of a list is written out cell by cell,
the expected verdict of an equation follows from how its two sides were
made, and the expected printout of a rejected equation is the surface
text the generator wrote.

Sizes never depend on the seed; the seed chooses names and which
variable sits in which cell.  So runs with different seeds do the same
amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from adaptt.syntax import (
    POS, NEG, TmEntry, Base, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd,
    Cast, Con, AdId, Chain, Post, PiAd, SigAd, IndAd, Sub, STy, Trans, KAd,
)

A, B, C = Base("A"), Base("B"), Base("C")
NAT = Ind("Nat", Sub(()), ())

#: the adapter cycle A -> B -> C -> A; a ground adapter exists between
#: any two base types by walking it
STEP = {"A": Post("f", A, B), "B": Post("g", B, C), "C": Post("h", C, A)}


def list_ty(elem) -> Ind:
    return Ind("List", Sub((STy(elem, 0),)), ())


def nil(elem) -> Con:
    return Con("List", 0, Sub((STy(elem, 0),)), ())


def cons(elem, head, tail) -> Con:
    return Con("List", 1, Sub((STy(elem, 0),)), (head, tail))


def list_of(elem, heads) -> Con:
    """A list literal, ``heads`` outermost first; built iteratively so the
    generator itself has no depth limit."""
    out = nil(elem)
    for hd in reversed(heads):
        out = cons(elem, hd, out)
    return out


def list_ad(ad, tgt) -> IndAd:
    """``List [[ ad ]]`` for ``ad : X => tgt``."""
    return IndAd("List", Trans((KAd(ad, tgt, 0),)))


def path_adapter(src: str, tgt: str):
    """Ground adapter src => tgt along the cycle, as a flat chain."""
    if src == tgt:
        return AdId(Base(src))
    parts = []
    cur = src
    while cur != tgt:
        parts.append(STEP[cur])
        cur = STEP[cur].tgt_ty.name
    return parts[0] if len(parts) == 1 else Chain(tuple(parts))


# ---------------------------------------------------------------------------
# kernel_scale: List terms built directly, no parsing
# ---------------------------------------------------------------------------

#: element variables of type A, then two of type Nat -> A (innermost last)
KERNEL_A_VARS = 4
KERNEL_CTX = (tuple(TmEntry(POS, A) for _ in range(KERNEL_A_VARS))
              + (TmEntry(POS, Pi(NAT, A)), TmEntry(POS, Pi(NAT, A))))
FUN_A = Pi(NAT, A)


def _a_var(k: int) -> Var:
    """The k-th variable of type A in ``KERNEL_CTX`` (outermost first)."""
    return Var(len(KERNEL_CTX) - 1 - k)


def _h_var(k: int) -> Var:
    return Var(1 - k)


@dataclass(frozen=True)
class KernelCase:
    """One ladder size of ``kernel_scale`` with its known answers."""

    src: Con              # n-cell ``List A`` literal
    ad: IndAd             # List [[ g . f ]] : List A => List C
    cast_expected: Con    # the same cells at C, each head cast along f then g
    fun_lhs: Con          # n-cell ``List (Nat -> A)``
    fun_rhs: Con          # the same, innermost head eta-expanded
    near_lhs: Con         # n-cell ``List A`` ...
    near_rhs: Con         # ... whose innermost head is another variable


def kernel_case(rng: random.Random, n: int) -> KernelCase:
    f, g = STEP["A"], STEP["B"]
    idx = [rng.randrange(KERNEL_A_VARS) for _ in range(n)]
    heads = [_a_var(k) for k in idx]
    src = list_of(A, heads)
    ad = list_ad(Chain((f, g)), C)
    expected = list_of(C, [Cast(Cast(x, f), g) for x in heads])

    hs = [_h_var(rng.randrange(2)) for _ in range(n)]
    eta = Lam(NAT, App(Var(hs[-1].index + 1), Var(0)))
    fun_lhs = list_of(FUN_A, hs)
    fun_rhs = list_of(FUN_A, hs[:-1] + [eta])

    other = _a_var((idx[-1] + 1 + rng.randrange(KERNEL_A_VARS - 1))
                   % KERNEL_A_VARS)
    near_lhs = src
    near_rhs = list_of(A, heads[:-1] + [other])

    return KernelCase(src, ad, expected, fun_lhs, fun_rhs,
                      near_lhs, near_rhs)


def fusible_chain(k: int) -> tuple[Chain, IndAd]:
    """``k`` single-link ``List`` adapters around the cycle from A (``k``
    a multiple of 3, so the chain ends at A again), and the one ``List``
    adapter of the composite of their links, to which it fuses."""
    links, comps = [], []
    for i in range(k):
        post = STEP["ABC"[i % 3]]
        links.append(list_ad(post, post.tgt_ty))
        comps.append(post)
    return Chain(tuple(links)), list_ad(Chain(tuple(comps)), A)


# ---------------------------------------------------------------------------
# surface_scale: generated .adt files
# ---------------------------------------------------------------------------

SURFACE_A_VARS = ("a0", "a1", "a2", "a3")
SURFACE_H_VARS = ("h0", "h1")


def _surface_list(elem: str, heads: list[str]) -> str:
    """Surface list literal in the printer's own layout."""
    out = f"nil {elem}"
    for hd in reversed(heads):
        out = f"cons {elem} {hd} ({out})"
    return out


@dataclass(frozen=True)
class SurfaceFile:
    """A generated file and the exact output ``adaptt check`` must print
    for it (``{path}`` stands for the file name)."""

    text: str
    expected_lines: tuple[str, ...]
    expected_exit: int


def surface_file(rng: random.Random, n: int) -> SurfaceFile:
    heads = [rng.choice(SURFACE_A_VARS) for _ in range(n)]
    cast_rhs = _surface_list("C", [f"({x} <| f <| g)" for x in heads])
    hs = [rng.choice(SURFACE_H_VARS) for _ in range(n)]
    eta_rhs = hs[:-1] + [f"(fun (x : Nat) => {hs[-1]} x)"]
    other = rng.choice([v for v in SURFACE_A_VARS if v != heads[-1]])
    lines = [
        f"-- generated: {n} cells",
        "base A ;",
        "base B ;",
        "base C ;",
        "postulate adapter f : A => B ;",
        "postulate adapter g : B => C ;",
    ]
    lines += [f"var {v} : A ;" for v in SURFACE_A_VARS]
    lines += [f"var {v} : Nat -> A ;" for v in SURFACE_H_VARS]
    near_lhs = _surface_list("A", heads)
    near_rhs = _surface_list("A", heads[:-1] + [other])
    rows = [
        f"asserteq {_surface_list('A', heads)} <| List [[ g . f ]] "
        f"= {cast_rhs} : List C ;",
        f"asserteq {_surface_list('(Nat -> A)', hs)} "
        f"= {_surface_list('(Nat -> A)', eta_rhs)} : List (Nat -> A) ;",
        f"asserteq {near_lhs} = {near_rhs} : List A ;",
    ]
    first = len(lines) + 1
    lines += rows
    expected = (
        f"OK asserteq {{path}}:{first}:1",
        f"OK asserteq {{path}}:{first + 1}:1",
        f"ERROR ConversionFailed {{path}}:{first + 2}:1 "
        f"expected {near_rhs} got {near_lhs}",
        "checked {path}: 0 datatypes, 0 checks, 3 equations",
    )
    return SurfaceFile("\n".join(lines) + "\n", expected, 1)


# ---------------------------------------------------------------------------
# oracle: conversion-equal pairs over a small ambient context
# ---------------------------------------------------------------------------

BASES = ("A", "B", "C")

#: one covariant variable per base type (a, b, c), then one contravariant
#: variable per base type for application arguments
ORACLE_CTX = (TmEntry(POS, A), TmEntry(POS, B), TmEntry(POS, C),
              TmEntry(NEG, A), TmEntry(NEG, B), TmEntry(NEG, C))


def pos_var(name: str, under: int = 0) -> Var:
    return Var(5 - BASES.index(name) + under)


def neg_var(name: str) -> Var:
    return Var(2 - BASES.index(name))


#: the six pair kinds of the acceptance oracle criterion
PAIR_KINDS = ("cast_functor", "cast_id", "beta", "constr_row",
              "app_cast_fun", "proj_cast")


@dataclass(frozen=True)
class OraclePair:
    kind: str
    lhs: object
    rhs: object
    ty: object


def _small_list(name: str, length: int) -> Con:
    return list_of(Base(name), [pos_var(name)] * length)


def _derived_list_cast(lst: Con, post, tgt: str) -> Con:
    """The derived constructor row, written out by hand: each head is cast
    along ``post``, the tail along ``List [[ post ]]``."""
    if lst.tag == 0:
        return nil(Base(tgt))
    head, tail = lst.args
    return cons(Base(tgt), Cast(head, post),
                Cast(tail, list_ad(post, Base(tgt))))


def oracle_pair(rng: random.Random, kind: str, i: int) -> OraclePair:
    """Pair ``i`` of the given kind: two conversion-equal terms, which the
    finite-set model must therefore agree on.  ``i`` fixes the shape
    (list lengths, path lengths along the cycle, which projection); the
    seed only rotates the base types.  The bindings treat A, B and C
    alike, so every seed does the same work."""
    rot = rng.randrange(3)

    def base(k: int) -> str:
        return BASES[(rot + k) % 3]
    s = base(0)
    if kind == "cast_functor":
        # t <| List[[g . f]] as a two-link chain vs the casts one by one
        m, t_ = base(1), base(2)
        fa = list_ad(STEP[s], Base(m))
        ga = list_ad(STEP[m], Base(t_))
        lst = _small_list(s, i % 3)
        return OraclePair(kind, Cast(lst, Chain((fa, ga))),
                          Cast(Cast(lst, fa), ga), list_ty(Base(t_)))
    if kind == "cast_id":
        lst = _small_list(s, i % 3)
        return OraclePair(kind, Cast(lst, AdId(list_ty(Base(s)))), lst,
                          list_ty(Base(s)))
    if kind == "beta":
        body = base(i)
        lhs = App(Lam(Base(s), pos_var(body, under=1)), neg_var(s))
        return OraclePair(kind, lhs, pos_var(body), Base(body))
    if kind == "constr_row":
        t_ = base(1)
        lst = _small_list(s, i % 3)
        lhs = Cast(lst, list_ad(STEP[s], Base(t_)))
        return OraclePair(kind, lhs, _derived_list_cast(lst, STEP[s], t_),
                          list_ty(Base(t_)))
    t_, u_b, v_b = base(i), base(i // 3), base(i // 3 + i)
    if kind == "app_cast_fun":
        # (h <| Pi[[da > cod]]) u  vs  (h (u <| da)) <| cod, with the
        # domain adapter running from the new domain to the old one
        da = path_adapter(s, t_)
        cod = path_adapter(u_b, v_b)
        src = Pi(Base(t_), Base(u_b))
        tgt = Pi(Base(s), Base(v_b))
        h = Lam(Base(t_), pos_var(u_b, under=1))
        u = neg_var(s)
        lhs = App(Cast(h, PiAd(da, cod, src, tgt)), u)
        rhs = Cast(App(h, Cast(u, da)), cod)
        return OraclePair(kind, lhs, rhs, Base(v_b))
    if kind == "proj_cast":
        sig_src = Sig(Base(s), Base(u_b))
        sig_tgt = Sig(Base(t_), Base(v_b))
        fa, sa = path_adapter(s, t_), path_adapter(u_b, v_b)
        p = Pair(sig_src, pos_var(s), pos_var(u_b))
        ad = SigAd(fa, sa, sig_src, sig_tgt)
        if i % 2 == 0:
            return OraclePair(kind, Fst(Cast(p, ad)), Cast(Fst(p), fa),
                              Base(t_))
        return OraclePair(kind, Snd(Cast(p, ad)), Cast(Snd(p), sa), Base(v_b))
    raise ValueError(f"unknown pair kind {kind}")


def oracle_pairs(rng: random.Random, per_kind: int) -> list[OraclePair]:
    """``per_kind`` pairs of each kind, interleaved."""
    return [oracle_pair(rng, kind, i)
            for i in range(per_kind) for kind in PAIR_KINDS]


def oracle_binding_json(size_a: int, size_b: int, size_c: int) -> str:
    """A finite binding for A, B, C and the cycle's adapters, as the JSON
    text ``adaptt model --bindings`` reads."""
    import json
    sizes = {"A": size_a, "B": size_b, "C": size_c}
    types = {n: [f"{n.lower()}{i}" for i in range(k)] for n, k in sizes.items()}

    def table(src, tgt):
        return {f"{src.lower()}{i}": f"{tgt.lower()}{i % sizes[tgt]}"
                for i in range(sizes[src])}
    adapters = {p.name: {f"{p.src_ty.name}->{p.tgt_ty.name}":
                         table(p.src_ty.name, p.tgt_ty.name)}
                for p in STEP.values()}
    return json.dumps({"types": types, "adapters": adapters})


ORACLE_BINDINGS = (oracle_binding_json(1, 1, 1), oracle_binding_json(2, 2, 2),
                   oracle_binding_json(3, 3, 3))
