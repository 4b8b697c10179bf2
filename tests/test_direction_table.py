"""Identity spines over random contexts.

Every well-formed context has a well-formed identity substitution and a
well-formed identity transformation, whatever the direction flags of its
entries; and a transformation's source read against the dual context is
its target read against the context itself.
"""

from hypothesis import assume, given, strategies as st

from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, dual_ctx, id_sub,
)
from adaptt.check import CheckError, check_ctx, check_sub, check_trans
from adaptt.transform import id_trans, trans_source, trans_target

dirs = st.sampled_from([POS, NEG])
# mostly closed types, now and then a reference to an earlier type entry
# (kept only when the drawn context checks)
types = st.one_of(
    st.sampled_from([Base("A"), Base("B")]),
    st.integers(0, 2).map(lambda j: TyVarRef(j, ())),
)


@st.composite
def contexts(draw):
    out = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            out.append(TmEntry(draw(dirs), draw(types)))
        else:
            tel = tuple(draw(st.lists(st.sampled_from([Base("A"), Base("B")]),
                                      max_size=2)))
            out.append(TyEntry(draw(dirs), draw(dirs), tel))
    ctx = tuple(out)
    try:
        check_ctx(ctx)
    except CheckError:
        assume(False)
    return ctx


@given(contexts())
def test_identity_substitution_is_well_formed(ctx):
    check_sub(ctx, id_sub(ctx), ctx)


@given(contexts())
def test_identity_transformation_is_well_formed(ctx):
    check_trans(ctx, id_trans(ctx, id_sub(ctx)), ctx)


@given(contexts())
def test_dual_reading_swaps_endpoints(ctx):
    tr = id_trans(ctx, id_sub(ctx))
    assert trans_source(dual_ctx(ctx), tr) == trans_target(ctx, tr)
    assert trans_target(dual_ctx(ctx), tr) == trans_source(ctx, tr)

