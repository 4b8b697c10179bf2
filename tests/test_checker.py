"""Well-formedness checking: variable rules, variance, classifier
conversion, signature validation, subject reduction."""

import pytest

from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Sig, Ind,
    Var, Lam, App, Pair, Fst, Cast, Con, AdId, Post, PiAd,
    Sub, STy, Trans, KAd, desc, dual_ctx, shift,
)
from adaptt.check import (
    check_ctx, check_ty, check_ad, check_sub, check_trans, check_desc,
    infer_tm, CheckError,
)
from adaptt.normalize import conv_ty, nf, cast, app
from helpers import A, B, C, f_AB, g_BC, list_ty, cons, mu1, list_ad


X_CTX = (TyEntry(POS, POS, ()),)


def code(exc_info) -> str:
    return exc_info.value.diag.code


def test_var_rule():
    # (X:Ty+) |> (x:X)  |-  0tm : X
    ctx = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
    assert infer_tm(ctx, Var(0)) == TyVarRef(0, ())


def test_var_rule_weakens():
    ctx = (TmEntry(POS, A), TmEntry(POS, B))
    assert infer_tm(ctx, Var(1)) == A


def test_variance_violation():
    ctx = (TyEntry(NEG, POS, ()), TmEntry(NEG, TyVarRef(0, ())))
    with pytest.raises(CheckError) as e:
        infer_tm(ctx, Var(0))
    assert code(e) == "VarianceViolation"


def test_unbound_variable():
    with pytest.raises(CheckError) as e:
        infer_tm((), Var(0))
    assert code(e) == "UnboundVariable"


def test_neg_entry_accessible_in_dual():
    ctx = (TmEntry(NEG, A),)
    assert infer_tm(dual_ctx(ctx), Var(0)) == A


def test_application_argument_lives_in_dual():
    # h : B -> A applied to a covariant variable of type B is rejected
    ctx = (TmEntry(POS, B), TmEntry(POS, Pi(B, shift(A, 1, 0))))
    with pytest.raises(CheckError) as e:
        infer_tm(ctx, App(Var(0), Var(1)))
    assert code(e) == "VarianceViolation"
    # a contravariant variable is fine
    ctx2 = (TmEntry(NEG, B), TmEntry(POS, Pi(B, shift(A, 1, 0))))
    assert infer_tm(ctx2, App(Var(0), Var(1))) == A


def test_lambda_and_pi():
    ctx = (TmEntry(POS, A),)
    t = Lam(B, shift(Var(0), 1, 0))
    assert infer_tm(ctx, t) == Pi(B, shift(A, 1, 0))


def test_cast_checks_source():
    ctx = (TmEntry(POS, B),)
    with pytest.raises(CheckError) as e:
        infer_tm(ctx, Cast(Var(0), f_AB))
    assert code(e) == "ClassifierMismatch"


def test_constructor_inference():
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    got = infer_tm(ctx, cons(A, Var(1), Var(0)))
    assert conv_ty(ctx, got, list_ty(A))


def test_constructor_arity():
    with pytest.raises(CheckError):
        infer_tm((), Con("List", 1, Sub((STy(A, 0),)), ()))


def test_check_adapter_endpoints():
    s, t = check_ad((), f_AB)
    assert (s, t) == (A, B)
    with pytest.raises(CheckError):
        check_ad((), PiAd(f_AB, shift(g_BC, 1, 0),
                          Pi(A, shift(B, 1, 0)), Pi(A, shift(C, 1, 0))))


def test_check_pi_adapter():
    src = Pi(B, shift(B, 1, 0))
    tgt = Pi(A, shift(C, 1, 0))
    ad = PiAd(f_AB, shift(g_BC, 1, 0), src, tgt)
    assert check_ad((), ad) == (src, tgt)


def test_check_ind_adapter():
    ad = list_ad(f_AB, B)
    s, t = check_ad((), ad)
    assert s == list_ty(A) and t == list_ty(B)


def test_check_sub_arity():
    with pytest.raises(CheckError) as e:
        check_sub((), Sub(()), X_CTX)
    assert code(e) == "ArityMismatch"


def test_check_trans_good_and_bad():
    check_trans((), mu1(f_AB, B), X_CTX)
    with pytest.raises(CheckError):
        # forced side disagrees with the adapter's endpoint
        check_trans((), mu1(f_AB, C), X_CTX)


def test_check_telad():
    from adaptt.check import check_telad
    from adaptt.transform import push_tel
    from adaptt.syntax import Trans, KAd
    tel = (TyVarRef(0, ()), shift(TyVarRef(0, ()), 1, 0))
    tr = Trans((KAd(f_AB, B, 0),))
    ads = push_tel(tel, tr, X_CTX)
    src = apply_tel_here(tel, A)
    tgt = apply_tel_here(tel, B)
    check_telad((), ads, src, tgt)
    with pytest.raises(CheckError):
        check_telad((), ads, src, (C, shift(C, 1, 0)))


def apply_tel_here(tel, base):
    from adaptt.normalize import apply
    from adaptt.syntax import Sub, STy
    return apply(tel, Sub((STy(base, 0),)))


def test_check_desc_builtins():
    for name in ("Nat", "List", "Vec", "Sum", "W", "Id"):
        check_desc(desc(name))


def test_check_desc_rejects_bad_index():
    from adaptt.syntax import RecDesc, ConDesc, IndDesc
    from adaptt.inductive import nat
    bad = IndDesc("BadVec", (TyEntry(POS, POS, ()),), (nat(),),
                  (ConDesc("mk", (), (), (Var(0),)),))  # no var in scope
    with pytest.raises((CheckError, IndexError)):
        check_desc(bad)


def test_subject_reduction_samples():
    # if  ctx |- t : T  then  ctx |- nf(t) : T (up to conversion)
    ctx = (TmEntry(NEG, A), TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    samples = [
        App(Lam(A, shift(cons(A, Var(1), Var(0)), 1, 0)), Var(2)),
        Cast(cons(A, Var(1), Var(0)), list_ad(f_AB, B)),
        Fst(Pair(Sig(A, shift(B, 1, 0)), Var(1), Cast(Var(1), f_AB))),
    ]
    for t in samples:
        ty = infer_tm(ctx, t)
        t2 = nf(t).value
        assert conv_ty(ctx, infer_tm(ctx, t2), ty)


def test_checking_is_deterministic():
    ctx = (TmEntry(POS, A),)
    t = Cast(Var(0), f_AB)
    assert infer_tm(ctx, t) == infer_tm(ctx, t)
    with pytest.raises(CheckError) as e1:
        infer_tm(ctx, Var(3))
    with pytest.raises(CheckError) as e2:
        infer_tm(ctx, Var(3))
    assert e1.value.diag == e2.value.diag


def test_diagnostic_render_format():
    from adaptt.check import Diagnostic
    from adaptt.surface import Source
    d = Diagnostic("ClassifierMismatch", "check failed", 8, "B", "A")
    out = d.render("file.adt", Source("\n\n      x"))
    assert out.startswith("ERROR ClassifierMismatch file.adt:3:7 expected B got A")
