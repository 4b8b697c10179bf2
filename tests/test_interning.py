"""Hash-consing: structurally equal syntax is one object, however it was
built; the intern table holds its nodes weakly; equality and hashing do
not recurse."""

import gc
import weakref

from adaptt.normalize import apply, cast, nf
from adaptt.syntax import (
    INTERNED, Base, Cast, Pi, Sub, Var, shift,
)
from helpers import A, B, cons, f_AB, list_ad, list_ty, nil


def cell_list(n, head=Var(0), innermost=Var(0)):
    xs = cons(A, innermost, nil(A))
    for _ in range(n - 1):
        xs = cons(A, head, xs)
    return xs


def test_direct_construction_is_shared():
    assert Base("A") is A
    assert cell_list(3) is cell_list(3)
    assert list_ty(A) is list_ty(A)
    assert cell_list(3) is not cell_list(3, innermost=Var(1))


def test_shift_and_apply_return_the_canonical_node():
    assert shift(Var(0), 1, 0) is Var(1)
    assert shift(cell_list(3), 1, 0) is cell_list(3, Var(1), Var(1))
    assert apply(cell_list(3), Sub((Var(2),))) is \
        cell_list(3, Var(2), Var(2))


def test_cast_and_nf_return_the_canonical_node():
    expected = cons(B, Cast(Var(0), f_AB), nil(B))
    raw = Cast(cons(A, Var(0), nil(A)), list_ad(f_AB, B))
    assert cast(raw.tm, raw.ad) is expected
    assert nf(raw).value is expected


def test_unreferenced_nodes_are_collected():
    node = Pi(Base("gc-probe"), Base("gc-probe"))
    probe = weakref.ref(node)
    assert (Base, "gc-probe") in INTERNED
    del node
    gc.collect()
    assert probe() is None
    assert (Base, "gc-probe") not in INTERNED
    # rebuilding after collection yields a fresh, working node
    assert Base("gc-probe").name == "gc-probe"


def test_equality_and_hash_do_not_recurse_on_deep_terms():
    xs = cell_list(5000)
    ys = cell_list(5000)
    zs = cell_list(5000, innermost=Var(1))
    assert xs == ys
    assert xs != zs
    assert hash(xs) == hash(ys)
    assert len({xs, ys, zs}) == 2
