"""A type variable's telescope read under later context entries.

The entries of a telescope bind one another: in ``(n : Nat) (v : Vec A n)``
the second entry refers to the first.  Weakening the telescope past later
context entries must move only what is free in the whole telescope, so
instantiating the variable is judged the same however many entries
follow it.
"""

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt.syntax import POS, TmEntry, TyEntry, TyVarRef, Var, Con, Sub, STy
from adaptt.check import CheckError, check_ty
from adaptt.inductive import nat, nat_zero, nat_succ
from helpers import A, vec_of

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
