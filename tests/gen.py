"""Seeded random generators for the property suites.

The universe: three base types in an adapter cycle (so a ground adapter
exists between any two of them), the stock datatypes over that universe,
and an ambient context with one covariant and one contravariant variable
per base type.  The base types, the cycle, the context and the variable
and path builders are those of the benchmark's oracle workload
(``perfbench/gen.py``), so the tests and the benchmark share one universe.

Everything is deterministic given the seed, so suite sizes in the
acceptance criteria are exact counts rather than sampling budgets.
"""

from __future__ import annotations

import random

import adaptt  # noqa: F401
from adaptt.syntax import (
    Base, TyVarRef, Pi, Sig, Ind, Lam, Pair, Con, Sub, STy, Trans, KAd, shift,
)
from adaptt.inductive import nat_zero, nat_succ
from adaptt import setmodel
from perfbench.gen import (  # noqa: F401  (re-exported to the tests)
    A, B, C, BASES, STEP, neg_var, path_adapter, pos_var,
    ORACLE_CTX as AMBIENT,
)

#: names of the ambient context's variables: one covariant variable per
#: base type (a, b, c), then one contravariant one (for arguments)
AMBIENT_NAMES = ["a", "b", "c", "na", "nb", "nc"]


class Gen:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def base_name(self) -> str:
        return self.rng.choice(BASES)

    # -- types over a one-type-variable context ------------------------------

    def ty_over_x(self, depth: int = 2):
        """A type over (X : Ty+) built from the covariant formers."""
        if depth <= 0:
            return self.rng.choice([TyVarRef(0, ()), Base(self.base_name())])
        pick = self.rng.randrange(6)
        if pick == 0:
            return TyVarRef(0, ())
        if pick == 1:
            return Base(self.base_name())
        if pick == 2:
            return Ind("List", Sub((STy(self.ty_over_x(depth - 1), 0),)), ())
        if pick == 3:
            return Ind("Sum", Sub((STy(self.ty_over_x(depth - 1), 0),
                                   STy(self.ty_over_x(depth - 1), 0))), ())
        if pick == 4:
            fst = self.ty_over_x(depth - 1)
            snd = shift(self.ty_over_x(depth - 1), 1, 0)
            return Sig(fst, snd)
        # function type with a closed, enumerable domain
        dom = Base(self.base_name())
        cod = shift(self.ty_over_x(depth - 1), 1, 0)
        return Pi(dom, cod)

    def ty_over_two(self, depth: int = 2):
        """A type over (X : Ty+) |> (Z : Ty+) mentioning both variables."""
        left = self.rng.random() < 0.5
        mk = self.rng.randrange(3)
        x, z = TyVarRef(1, ()), TyVarRef(0, ())
        if mk == 0:
            return Ind("Sum", Sub((STy(x, 0), STy(z, 0))), ())
        if mk == 1:
            inner = Ind("Sum", Sub((STy(x, 0), STy(z, 0))), ())
            return Ind("List", Sub((STy(inner, 0),)), ())
        return Sig(x, shift(z, 1, 0))

    # -- canonical terms of a concrete type ----------------------------------

    def tm_of(self, ty, depth: int = 2):
        """A canonical term of a closed-over-ambient type."""
        match ty:
            case Base(n):
                return pos_var(n)
            case Ind("List", params, _):
                elem = params.comps[0].ty
                n = self.rng.randrange(0, 3) if depth > 0 else 0
                out = Con("List", 0, params, ())
                for _ in range(n):
                    out = Con("List", 1, params,
                              (self.tm_of(elem, depth - 1), out))
                return out
            case Ind("Sum", params, _):
                left = self.rng.random() < 0.5
                which = params.comps[0].ty if left else params.comps[1].ty
                return Con("Sum", 0 if left else 1, params,
                           (self.tm_of(which, depth - 1),))
            case Ind("Nat", _, _):
                n = self.rng.randrange(0, 3)
                out = nat_zero()
                for _ in range(n):
                    out = nat_succ(out)
                return out
            case Ind("Vec", params, (idx,)):
                elem = params.comps[0].ty
                if idx == nat_zero():
                    return Con("Vec", 0, params, ())
                assert isinstance(idx, Con) and idx.tag == 1
                prev = idx.args[0]
                return Con("Vec", 1, params,
                           (self.tm_of(elem, depth - 1), prev,
                            self.tm_of(Ind("Vec", params, (prev,)), depth - 1)))
            case Ind("Id", params, _):
                return Con("Id", 0, params, ())
            case Sig(fst, snd):
                a = self.tm_of(fst, depth - 1)
                from adaptt.normalize import open_tm_block
                b = self.tm_of(open_tm_block(snd, (a,)), depth - 1)
                return Pair(ty, a, b)
            case Pi(dom, cod):
                # constant function (the generated codomain never uses
                # its binder, so dropping it is well-defined)
                body = self.tm_of(shift(cod, -1, 0, c_tm=1), depth - 1)
                return Lam(dom, shift(body, 1, 0))
            case _:
                raise ValueError(f"no canonical term for {ty!r}")

    # -- transformations over (X : Ty+) ---------------------------------------

    def mu_between(self, src: str, tgt: str) -> Trans:
        return Trans((KAd(path_adapter(src, tgt), Base(tgt), 0),))

    def triple(self, depth: int = 2):
        """(A over (X:Ty+), mu, nu, sigma-sub) with composable mu, nu."""
        a = self.ty_over_x(depth)
        s = self.base_name()
        m = self.base_name()
        t = self.base_name()
        # keep the cycle orientation: src -> mid -> tgt along path adapters
        mu = self.mu_between(s, m)
        nu = self.mu_between(m, t)
        sigma = Sub((STy(Base(s), 0),))
        return a, mu, nu, sigma

    # -- bindings --------------------------------------------------------------

    @staticmethod
    def binding(size_a: int, size_b: int, size_c: int) -> setmodel.ModelBinding:
        sizes = {"A": size_a, "B": size_b, "C": size_c}
        types = {n: tuple(f"{n.lower()}{i}" for i in range(k))
                 for n, k in sizes.items()}

        def table(src, tgt):
            return {f"{src.lower()}{i}": f"{tgt.lower()}{i % sizes[tgt]}"
                    for i in range(sizes[src])}
        adapters = {
            "f": {"A->B": table("A", "B")},
            "g": {"B->C": table("B", "C")},
            "h": {"C->A": table("C", "A")},
        }
        return setmodel.ModelBinding(types, adapters)
