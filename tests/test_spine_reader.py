"""The spine reader and its four walkers: ``check_sub``, ``check_trans``,
``conv_sub`` and ``conv_trans`` read component k of a spine against
entry k of its target context under the first k components, and reject
a spine of the wrong length or with a component of the wrong sort.  A
term entry's component is the term itself, so at a term entry the wrong
sort is a type component (``STy`` or ``KAd``), and at a type entry it is
anything but the spine's own type component.  A transformation's
endpoints (``trans_source``, ``trans_target``) reject the same spines,
and on an entry's free side hand back the transformation's own term."""

from collections import Counter

import pytest

from adaptt import transform
from adaptt.syntax import (
    POS, NEG, TmEntry, TyVarRef, Var, Sub, STy, Trans, KAd, desc,
)
from adaptt.check import CheckError, check_ad, check_sub, check_trans
from adaptt.normalize import (
    KernelError, cast, conv_ad, conv_sub, conv_trans, set_trace,
)
from adaptt.inductive import ind_adapter
from adaptt.transform import spine_slots, trans_source, trans_target
from helpers import A, B, f_AB, id_of, mu1

#: (a : A) (b : A); ``Var(0)`` is b
AB_CTX = (TmEntry(POS, A), TmEntry(POS, A))
#: (X : Ty+) (x : X) [X]
ID_CTX = desc("Id").full_ctx
ID_PARAMS = desc("Id").params_ctx
LIST_CTX = desc("List").params_ctx

#: Id [[ f > b > b ]] : Id A b b => Id B (b <| f) (b <| f)
ID_AD = ind_adapter("Id", Trans((KAd(f_AB, B, 0), Var(0))), (Var(0),))
#: the same adapter at a instead of b
ID_AD_A = ind_adapter("Id", Trans((KAd(f_AB, B, 0), Var(1))), (Var(1),))


def test_slots_of_a_transformation_read_the_free_side():
    slots = list(spine_slots(AB_CTX, ID_CTX, ID_AD.trans))
    assert [s[1] for s in slots] == list(ID_AD.trans.comps)
    # the type component lives over the ambient context and has no type
    assert slots[0][2:] == (AB_CTX, None)
    # both term entries are read at the source, where X is A
    assert [s[2:] for s in slots[1:]] == [(AB_CTX, A), (AB_CTX, A)]


def test_slots_of_a_substitution_read_its_prefix():
    sub = Sub((STy(A, 0), Var(0)))
    _, slot = spine_slots(AB_CTX, ID_PARAMS, sub)
    entry, comp, here, ty = slot
    # x : X read under (A), over the ambient context
    assert entry.ty == TyVarRef(0, ())
    assert (comp, here, ty) == (Var(0), AB_CTX, A)


# -- wrong sort and wrong length ---------------------------------------------


@pytest.mark.parametrize("tgt,sub,message", [
    (LIST_CTX, Sub((Var(0),)), "type entry needs a type component"),
    (ID_PARAMS, Sub((STy(A, 0), STy(A, 0))),
     "term entry needs a term component"),
    (ID_PARAMS, Sub((STy(A, 0), KAd(f_AB, B, 0))),
     "term entry needs a term component"),
    (LIST_CTX, Sub((KAd(f_AB, B, 0),)), "type entry needs a type component"),
])
def test_check_sub_rejects_a_component_of_the_wrong_sort(tgt, sub, message):
    with pytest.raises(CheckError, match=message):
        check_sub(AB_CTX, sub, tgt)


def test_check_sub_rejects_a_spine_of_the_wrong_length():
    with pytest.raises(CheckError, match="0 components for a context of 1"):
        check_sub(AB_CTX, Sub(()), LIST_CTX)


@pytest.mark.parametrize("tr,message", [
    (Trans((Var(0), Var(0), Var(0))),
     "type entry needs an adapter component"),
    (Trans((KAd(f_AB, B, 0), KAd(f_AB, B, 0), Var(0))),
     "term entry needs a term component"),
    (Trans((KAd(f_AB, B, 0), STy(A, 0), Var(0))),
     "term entry needs a term component"),
    (Trans((STy(A, 0), Var(0), Var(0))),
     "type entry needs an adapter component"),
])
def test_check_trans_rejects_a_component_of_the_wrong_sort(tr, message):
    with pytest.raises(CheckError, match=message):
        check_trans(AB_CTX, tr, ID_CTX)


def test_check_trans_rejects_a_spine_of_the_wrong_length():
    with pytest.raises(CheckError, match="2 components for a context of 3"):
        check_trans(AB_CTX, Trans(ID_AD.trans.comps[:2]), ID_CTX)


def test_conv_sub_rejects_a_component_of_the_wrong_sort():
    with pytest.raises(KernelError, match="spine component sort mismatch"):
        conv_sub(AB_CTX, LIST_CTX, Sub((Var(0),)), Sub((STy(A, 0),)))


@pytest.mark.parametrize("bad", [STy(A, 0), KAd(f_AB, B, 0)])
def test_conv_sub_rejects_a_type_component_at_a_term_entry(bad):
    good, wrong = Sub((STy(A, 0), Var(0))), Sub((STy(A, 0), bad))
    for s1, s2 in ((good, wrong), (wrong, good)):
        with pytest.raises(KernelError, match="spine component sort mismatch"):
            conv_sub(AB_CTX, ID_PARAMS, s1, s2)


def test_conv_sub_rejects_a_spine_of_the_wrong_length():
    with pytest.raises(KernelError, match="substitution spine length mismatch"):
        conv_sub(AB_CTX, LIST_CTX, Sub(()), Sub(()))


def test_conv_trans_rejects_a_component_of_the_wrong_sort():
    with pytest.raises(KernelError,
                       match="transformation component sort mismatch"):
        conv_trans(AB_CTX, LIST_CTX, Trans((Var(0),)), mu1(f_AB, B))


@pytest.mark.parametrize("bad", [STy(A, 0), KAd(f_AB, B, 0)])
def test_conv_trans_rejects_a_type_component_at_a_term_entry(bad):
    good = ID_AD.trans
    wrong = Trans((good.comps[0], bad, good.comps[2]))
    for t1, t2 in ((good, wrong), (wrong, good)):
        with pytest.raises(KernelError,
                           match="transformation component sort mismatch"):
            conv_trans(AB_CTX, ID_CTX, t1, t2)


def test_conv_trans_rejects_a_spine_of_the_wrong_length():
    with pytest.raises(KernelError,
                       match="transformation spine length mismatch"):
        conv_trans(AB_CTX, LIST_CTX, Trans(()), Trans(()))


def test_conv_trans_compares_term_components_at_their_type():
    # the spines share their adapter component and differ at x
    assert not conv_trans(AB_CTX, ID_CTX, ID_AD.trans, ID_AD_A.trans)


def test_conv_trans_equates_one_spine_without_reading_it(monkeypatch):
    # a spine is equal to itself: no component is compared
    read = []
    monkeypatch.setattr(transform, "spine_slots",
                        lambda *args: read.append(args))
    assert conv_trans(AB_CTX, ID_CTX, ID_AD.trans, ID_AD.trans)
    assert read == []


# -- endpoints ----------------------------------------------------------------


@pytest.mark.parametrize("end", [trans_source, trans_target])
@pytest.mark.parametrize("tr", [
    Trans((KAd(f_AB, B, 0), STy(A, 0), Var(0))),
    Trans((KAd(f_AB, B, 0), KAd(f_AB, B, 0), Var(0))),
    Trans((Var(0), Var(0), Var(0))),
])
def test_an_endpoint_rejects_a_component_of_the_wrong_sort(end, tr):
    with pytest.raises(KernelError,
                       match="transformation component sort mismatch"):
        end(ID_CTX, tr)


@pytest.mark.parametrize("end", [trans_source, trans_target])
def test_an_endpoint_rejects_a_spine_of_the_wrong_length(end):
    with pytest.raises(KernelError, match="does not match its context"):
        end(ID_CTX, Trans(ID_AD.trans.comps[:2]))


def test_an_endpoint_takes_a_term_component_as_is_on_its_free_side():
    # a positive entry a : A and a negative b : A: a's free side is the
    # source, b's the target
    ctx = (TmEntry(POS, A), TmEntry(NEG, A))
    tr = Trans((Var(1), Var(0)))
    assert trans_source(ctx, tr).comps[0] is tr.comps[0]
    assert trans_target(ctx, tr).comps[1] is tr.comps[1]
    # the Id adapter's term entries are positive: their free side is the
    # source
    assert trans_source(ID_CTX, ID_AD.trans).comps[1:] == ID_AD.trans.comps[1:]


# -- an inductive adapter with term entries ----------------------------------


def test_check_ad_accepts_the_id_adapter_with_its_rule_counts():
    seen = []
    set_trace(lambda rule, path: seen.append(rule))
    try:
        src, tgt = check_ad(AB_CTX, ID_AD)
    finally:
        set_trace(None)
    b_f = cast(Var(0), f_AB)
    assert (src, tgt) == (id_of(A, Var(0), Var(0)), id_of(B, b_f, b_f))
    # check_trans reads each prefix at one endpoint only: the target
    # endpoint of (f > b), whose TRANS_TYVAR it never used, is not built
    assert Counter(seen) == Counter({"SUB_TYVAR": 2, "TRANS_TYVAR": 2})


def test_conv_ad_tells_the_id_adapter_apart_at_another_variable():
    check_ad(AB_CTX, ID_AD_A)
    assert conv_ad(AB_CTX, ID_AD, ID_AD_A) is None
    assert conv_ad(AB_CTX, ID_AD_A, ID_AD) is None
