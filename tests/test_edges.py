"""Edge cases across modules: degenerate datatypes, deep values through
the model, stuck casts at function types."""

from adaptt.syntax import (
    POS, NEG, TmEntry, Base, TyVarRef, Pi, Ind, Var, Cast, Con, App,
    Post, Sub, STy, Trans, KAd, shift,
)
from adaptt.normalize import cast, conv_tm, nf
from adaptt.inductive import (
    ind_adapter, nat, nat_zero, nat_succ, derive_rule_doc,
)
from adaptt import setmodel as M
from helpers import A, B, f_AB


def test_derive_nat_has_no_premises():
    doc = derive_rule_doc("Nat")
    assert doc["params"] == []
    assert doc["adapterRule"]["premises"] == []
    # the degenerate adapter is still printable and its rows hold
    assert len(doc["computation"]) == 2


def test_deep_vector_cast_through_model():
    binding = M.ModelBinding.from_json(
        '{"types": {"A": ["a0", "a1"], "B": ["b0", "b1"]},'
        ' "adapters": {"f": {"A->B": {"a0": "b1", "a1": "b0"}}}}')
    ev = M.Evaluator(binding)
    pa = Sub((STy(A, 0),))
    one = nat_succ(nat_zero())
    two = nat_succ(one)
    v1 = Con("Vec", 1, pa, (Var(0), nat_zero(), Con("Vec", 0, pa, ())))
    v2 = Con("Vec", 1, pa, (Var(1), one, v1))
    ad = ind_adapter("Vec", Trans((KAd(f_AB, B, 0),)), (two,))
    env = ((M.VBase("A", "a0"), M.VBase("A", "a1")), ())
    raw = ev.eval_tm(env, Cast(v2, ad))
    computed = ev.eval_tm(env, cast(v2, ad))
    assert M.sem_eq(raw, computed)
    assert raw.args[0] == M.VBase("B", "b1")           # a0 flipped
    assert raw.args[2].args[0] == M.VBase("B", "b0")   # a1 flipped


def test_stuck_cast_at_function_type_converts_via_eta():
    # a postulated adapter between closed function types stays stuck;
    # conversion at the function type goes through application
    pi_ab = Pi(A, shift(B, 1, 0))
    p = Post("pfun", pi_ab, pi_ab)
    ctx = (TmEntry(POS, pi_ab),)
    lhs = Cast(Var(0), p)
    rhs = Cast(Var(0), p)
    assert conv_tm(ctx, pi_ab, lhs, rhs)
    other = Cast(Var(0), Post("qfun", pi_ab, pi_ab))
    assert not conv_tm(ctx, pi_ab, lhs, other)


def test_nat_adapter_is_identity_on_terms():
    ad = ind_adapter("Nat", Trans(()), ())
    t = nat_succ(nat_succ(nat_zero()))
    assert conv_tm((), nat(), cast(t, ad), t)


def test_nf_on_hand_built_redex_tower():
    from adaptt.normalize import nf
    from adaptt.syntax import Lam
    t = App(Lam(A, App(Lam(B, Var(0)), Cast(Var(0), f_AB))), Var(3))
    out = nf(t).value
    assert out == Cast(Var(3), f_AB)
