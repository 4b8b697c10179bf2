"""A type variable's telescope read under later context entries.

The entries of a telescope bind one another: in ``(n : Nat) (v : Vec A n)``
the second entry refers to the first.  Weakening the telescope past later
context entries must move only what is free in the whole telescope, so
instantiating the variable is judged the same however many entries
follow it.  ``normalize.entry_here`` reads an entry and its classifier so
weakened, for a term entry and a type entry alike.
"""

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, TyVarRef, Var, Con, Sig, Sub, STy,
)
from adaptt.check import CheckError, check_ctx, check_ty
from adaptt.inductive import nat, nat_zero, nat_succ
from adaptt.normalize import entry_here
from helpers import A, id_of, vec_of

#: (X : (n : Nat) (v : Vec A n) Ty+)
FAMILY = TyEntry(POS, POS, (nat(), vec_of(A, Var(0))))
VNIL = Con("Vec", 0, Sub((STy(A, 0),)), ())


@pytest.mark.parametrize("after", [0, 1, 2])
def test_dependent_instantiation_checks_under_later_entries(after):
    ctx = (FAMILY,) + (TmEntry(POS, nat()),) * after
    check_ty(ctx, TyVarRef(0, (nat_zero(), VNIL)))


@pytest.mark.parametrize("after", [0, 1])
def test_ill_typed_instantiation_is_still_rejected(after):
    ctx = (FAMILY,) + (TmEntry(POS, nat()),) * after
    # vnil has length zero, not the successor the first component names
    with pytest.raises(CheckError):
        check_ty(ctx, TyVarRef(0, (nat_succ(nat_zero()), VNIL)))


# V : Ty+, x : V, X : (u : V) (e : Id V u x) Ty+,
# y : (p : Id V x x) ** X x p, Z : Ty-, w : Z (contravariant);
# each classifier written over the entries before its own
V_REF = TyVarRef(0, ())
MIXED = (
    TyEntry(POS, POS, ()),
    TmEntry(POS, V_REF),
    TyEntry(POS, POS, (V_REF, id_of(V_REF, Var(0), Var(1)))),
    TmEntry(POS, Sig(id_of(TyVarRef(1, ()), Var(0), Var(0)),
                    TyVarRef(0, (Var(1), Var(0))))),
    TyEntry(NEG, POS, ()),
    TmEntry(NEG, V_REF),
)


def test_the_mixed_context_is_well_formed():
    check_ctx(MIXED)


# over the whole context the term variables are w 0, y 1, x 2 and the type
# variables Z 0, X 1, V 2; a classifier moves past the entries from its
# own on, itself included, and a telescope's second entry keeps its
# reference to the first (Var 0) while x, bound outside it, moves
@pytest.mark.parametrize("cls, index, pos, classifier", [
    (TmEntry, 0, 5, TyVarRef(0, ())),
    (TmEntry, 1, 3, Sig(id_of(TyVarRef(2, ()), Var(2), Var(2)),
                       TyVarRef(1, (Var(3), Var(0))))),
    (TmEntry, 2, 1, TyVarRef(2, ())),
    (TyEntry, 0, 4, ()),
    (TyEntry, 1, 2, (TyVarRef(2, ()), id_of(TyVarRef(2, ()), Var(0), Var(3)))),
    (TyEntry, 2, 0, ()),
], ids=["w", "y", "x", "Z", "X", "V"])
def test_an_entry_is_read_with_its_classifier_weakened(cls, index, pos,
                                                       classifier):
    entry, here = entry_here(MIXED, cls, index)
    assert entry is MIXED[pos]
    assert here == classifier


@pytest.mark.parametrize("cls", [TmEntry, TyEntry])
def test_an_unbound_entry_raises(cls):
    with pytest.raises(IndexError):
        entry_here(MIXED, cls, 3)
