"""Finite-set oracle: evaluation, extensional comparison, totality
checking, non-enumerability reporting."""

import ast
import collections
import contextvars
import itertools
import pathlib

import pytest

from adaptt import elaborate, setmodel, surface, syntax
from adaptt.syntax import (
    POS, NEG, TmEntry, Base, TyVarRef, Pi, Sig, Ind,
    Var, Lam, App, Pair, Fst, Snd, Cast, Con, AdId, Post, PiAd, SigAd,
    Sub, STy, Trans, KAd, SESSION, Session, shift,
)
from adaptt.normalize import cast as kcast
from adaptt.inductive import (
    builtin_descs, ind_adapter, nat_succ, nat_zero,
)
from adaptt.setmodel import (
    ModelBinding, Evaluator, NonEnumerable, ModelError,
    VBase, VPair, VFun, VCon, EMPTY, sem_eq, enumerate_envs, free_tm_vars,
    needed_entries,
)
from helpers import A, B, C, D, f_AB, g_BC, id_of, list_ty, nil, cons
from test_generic_rows import DECLARED


BINDING = ModelBinding.from_json("""
{
  "types": {"A": ["a0", "a1"], "B": ["b0", "b1", "b2"], "C": ["c0"]},
  "adapters": {
    "f": {"A->B": {"a0": "b0", "a1": "b1"}},
    "g": {"B->C": {"b0": "c0", "b1": "c0", "b2": "c0"}}
  }
}
""")


def ev() -> Evaluator:
    return Evaluator(BINDING)


def a0():
    return VBase("A", "a0")


def test_base_cast_is_table_lookup():
    v = ev().eval_tm(((VBase("A", "a1"),), ()), Cast(Var(0), f_AB))
    assert v == VBase("B", "b1")


def test_identity_cast_semantically():
    for v in BINDING.base("A").elements():
        assert ev().compile_ad(AdId(A))(EMPTY)(v) == v


def test_composition_is_function_composition():
    from adaptt.normalize import compose_ad
    gf = ev().compile_ad(compose_ad(g_BC, f_AB))(EMPTY)
    assert gf(a0()) == VBase("C", "c0")


def test_list_cast_maps_the_tree():
    ad = ind_adapter("List", Trans((KAd(f_AB, B, 0),)), ())
    lst = cons(A, Var(1), cons(A, Var(0), nil(A)))
    env = ((a0(), VBase("A", "a1")), ())
    out = ev().eval_tm(env, Cast(lst, ad))
    assert out == VCon("List", 1, (VBase("B", "b0"),
                                   VCon("List", 1, (VBase("B", "b1"),
                                                    VCon("List", 0, ())))))


def test_kernel_and_model_agree_on_list_cast():
    ad = ind_adapter("List", Trans((KAd(f_AB, B, 0),)), ())
    lst = cons(A, Var(0), nil(A))
    env = ((a0(),), ())
    raw = ev().eval_tm(env, Cast(lst, ad))
    computed = ev().eval_tm(env, kcast(lst, ad))
    assert sem_eq(raw, computed)


def test_function_cast_pointwise():
    # h : B -> A cast along Pi[[f > f]] : (B -> A) => (A -> B)
    src = Pi(B, shift(A, 1, 0))
    tgt = Pi(A, shift(B, 1, 0))
    ad = PiAd(f_AB, shift(f_AB, 1, 0), src, tgt)
    h = Lam(B, shift(Var(0), 1, 0))  # constant function to the env var
    env = ((a0(),), ())
    out = ev().eval_tm(env, Cast(h, ad))
    assert isinstance(out, VFun)
    for arg, res in out.table:
        assert res == VBase("B", "b0")


def test_pair_cast_componentwise():
    sig_a = Sig(A, shift(B, 1, 0))
    sig_b = Sig(B, shift(C, 1, 0))
    ad = SigAd(f_AB, shift(g_BC, 1, 0), sig_a, sig_b)
    p = Pair(sig_a, Var(0), Cast(Var(0), f_AB))
    out = ev().eval_tm(((a0(),), ()), Cast(p, ad))
    assert out == VPair(VBase("B", "b0"), VBase("C", "c0"))


def test_non_enumerable_domain_reported():
    lam = Lam(list_ty(A), shift(Var(0), 1, 0))
    with pytest.raises(NonEnumerable):
        ev().eval_tm(((a0(),), ()), lam)


def test_partial_adapter_table_rejected():
    bad = ModelBinding.from_json(
        '{"types": {"A": ["a0","a1"], "B": ["b0"]},'
        ' "adapters": {"f": {"A->B": {"a0": "b0"}}}}')
    code = Evaluator(bad).compile_ad(f_AB)
    with pytest.raises(ModelError):
        code(EMPTY)


def test_an_adapter_rejects_a_value_outside_its_source():
    fn = BINDING.adapter_fn(f_AB)
    assert fn(VBase("A", "a1")) == VBase("B", "b1")
    # of the wrong set, even under a label of the source
    for wrong in (VBase("B", "b0"), VBase("B", "a0"), VPair(a0(), a0())):
        with pytest.raises(ModelError, match="outside its source A"):
            fn(wrong)


def test_compiled_code_is_kept_per_binding():
    # one interned term under two bindings: each Evaluator reads its own
    lam = Lam(A, Var(0))
    small = ModelBinding.from_json('{"types": {"A": ["x"]}}')
    big = ModelBinding.from_json('{"types": {"A": ["x", "y"]}}')
    assert Evaluator(small).eval_tm(EMPTY, lam) == VFun(
        ((VBase("A", "x"), VBase("A", "x")),))
    assert Evaluator(big).eval_tm(EMPTY, lam) == VFun(
        ((VBase("A", "x"), VBase("A", "x")),
         (VBase("A", "y"), VBase("A", "y"))))


def test_an_unreached_binding_error_is_not_raised():
    # the unbound adapter sits under a function over the empty set, so no
    # environment ever reaches it
    e = Base("E")
    lam = Lam(e, Cast(Var(0), Post("zz", e, A)))
    binding = ModelBinding.from_json('{"types": {"E": [], "A": ["a0"]}}')
    assert Evaluator(binding).eval_tm(EMPTY, lam) == VFun(())


def test_missing_base_type_rejected():
    with pytest.raises(ModelError):
        ev().compile_ty(Base("Zzz"))(EMPTY)


def test_sem_eq_functions_extensionally():
    f1 = VFun(((a0(), VBase("B", "b0")),))
    f2 = VFun(((a0(), VBase("B", "b0")),))
    f3 = VFun(((a0(), VBase("B", "b1")),))
    assert sem_eq(f1, f2)
    assert not sem_eq(f1, f3)


def test_sem_eq_separates_constructors():
    assert not sem_eq(VCon("List", 0, ()),
                      VCon("List", 1, (a0(), VCon("List", 0, ()))))


def test_enumerate_envs_with_pruning():
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)), TmEntry(POS, B))
    # only the A and B variables are needed: 2 * 3 environments
    envs = enumerate_envs(ev(), ctx, used={0, 2})
    assert len(envs) == 6
    with pytest.raises(NonEnumerable):
        enumerate_envs(ev(), ctx, used={1})
    # each placeholder sits at its own entry's position
    lst = list_ty(A)
    for types, used in [
        # used and unused entries interleaved, and a run of unused ones at
        # the end: term indices count from the inside, so x0 is index 7
        ((A, lst, B, lst, lst, C, lst, lst), {7, 5, 2}),
        # a run of unused entries at the start
        ((lst, lst, A, lst), {1}),
        # none used
        ((lst, A), set()),
    ]:
        n = len(types)
        ctx = tuple(TmEntry(POS, ty) for ty in types)
        slots = [BINDING.base(ty.name).elements() if n - 1 - k in used
                 else (setmodel.UNUSED,) for k, ty in enumerate(types)]
        expected = [(tms, ()) for tms in itertools.product(*slots)]
        assert enumerate_envs(ev(), ctx, used) == expected, types


def test_an_entry_needs_the_variables_its_type_mentions():
    # the innermost entry is a proof of a = a for the A variable before it
    ctx = (TmEntry(POS, A), TmEntry(POS, id_of(A, Var(0), Var(0))))
    assert needed_entries(ctx, {0}) == {0, 1}
    assert needed_entries(ctx, {1}) == {1}
    # transitively: x : A, p : Id A x x, q : Id (Id A x x) p p
    ctx += (TmEntry(POS, id_of(id_of(A, Var(1), Var(1)), Var(0), Var(0))),)
    assert needed_entries(ctx, {0}) == {0, 1, 2}
    assert needed_entries(ctx, {1}) == {1, 2}
    assert needed_entries(ctx, {2}) == {2}
    # x : A, y : B, p : Id A x x needs no y
    ctx = (TmEntry(POS, A), TmEntry(POS, B),
           TmEntry(POS, id_of(A, Var(1), Var(1))))
    assert needed_entries(ctx, {0}) == {0, 2}


def test_free_tm_vars():
    # the oracle asks the binder table's own walk
    assert free_tm_vars is syntax.free_tm_vars
    t = App(Lam(A, Var(0)), Var(2))
    assert free_tm_vars(t) == {2}
    assert free_tm_vars(Lam(A, Var(0))) == set()


def test_pi_type_enumeration():
    # all functions from A (2 elements) to C (1 element): exactly one
    st = ev().compile_ty(Pi(A, shift(C, 1, 0)))(EMPTY)
    assert len(st.elements()) == 1
    st2 = ev().compile_ty(Pi(C, shift(A, 1, 0)))(EMPTY)
    assert len(st2.elements()) == 2


def test_nonempty_branching_map_precomposes():
    # the corpus tree former has a leaf, so finite values with nonempty
    # branching exist; the mapped branch table is indexed by the target
    # domain and factors through the reversed component
    from adaptt.inductive import ind_adapter
    from helpers import register_tree
    register_tree()
    binding = ModelBinding.from_json(
        '{"types": {"GA": ["a0"], "GB": ["b0"],'
        '           "GC": ["c0", "c1"], "GD": ["d0"]},'
        ' "adapters": {"gf": {"GA->GB": {"a0": "b0"}},'
        '              "gk": {"GD->GC": {"d0": "c1"}}}}')
    e = Evaluator(binding)
    ga, gb, gc, gd = Base("GA"), Base("GB"), Base("GC"), Base("GD")
    tr = Trans((KAd(Post("gf", ga, gb), gb, 0),
                KAd(Post("gk", gd, gc), gd, 0)))
    fn = e.compile_ad(ind_adapter("Tree", tr, ()))(EMPTY)
    leaf = VCon("Tree", 0, ())
    deeper = VCon("Tree", 1, (VBase("GA", "a0"), VFun((
        (VBase("GC", "c0"), leaf), (VBase("GC", "c1"), leaf)))))
    tree = VCon("Tree", 1, (VBase("GA", "a0"), VFun((
        (VBase("GC", "c0"), leaf), (VBase("GC", "c1"), deeper)))))
    out = fn(tree)
    assert out.args[0] == VBase("GB", "b0")
    branch = out.args[1]
    assert [arg for arg, _ in branch.table] == [VBase("GD", "d0")]
    # d0 |-> c1, whose subtree is `deeper`, mapped recursively
    sub = branch.apply(VBase("GD", "d0"))
    assert sub.args[0] == VBase("GB", "b0")
    assert [arg for arg, _ in sub.args[1].table] == [VBase("GD", "d0")]
    assert sub.args[1].apply(VBase("GD", "d0")) == VCon("Tree", 0, ())


def test_branching_tree_map():
    # every finite well-founded tree has empty branching domains (a
    # nonempty constant family would force infinite depth), so the
    # semantic tree map is exercised at the degenerate-but-total case:
    # the branch table is rebuilt over the (empty) target domain and the
    # label goes through the covariant component
    from adaptt.inductive import ind_adapter
    binding = ModelBinding.from_json(
        '{"types": {"A": ["a0"], "B": ["b0"], "E0": [], "E1": []},'
        ' "adapters": {"f": {"A->B": {"a0": "b0"}}, "k": {"E1->E0": {}}}}')
    e = Evaluator(binding)
    e0, e1 = Base("E0"), Base("E1")
    params = Sub((STy(A, 0), STy(shift(e0, 1, 0), 1)))
    k = Post("k", e1, e0)
    tr = Trans((KAd(Post("f", A, B), B, 0),
                KAd(shift(k, 1, 0), shift(e1, 1, 0), 1)))
    fn = e.compile_ad(ind_adapter("W", tr, ()))(EMPTY)
    tree = VCon("W", 0, (VBase("A", "a0"), VFun(())))
    out = fn(tree)
    assert out.args[0] == VBase("B", "b0")
    assert out.args[1] == VFun(())


def test_a_function_cast_over_a_non_enumerable_domain_is_reported():
    # reached by evaluating a raw cast: the new domain of the function
    # adapter is a datatype, so the table it maps cannot be rebuilt
    lst = list_ty(A)
    fun = Pi(lst, shift(B, 1, 0))
    ad = PiAd(AdId(lst), AdId(shift(B, 1, 0)), fun, fun)
    with pytest.raises(NonEnumerable, match="^function cast over a "
                                            "non-enumerable domain$"):
        ev().eval_tm(((VFun(()),), ()), Cast(Var(0), ad))


def test_branching_over_a_non_enumerable_domain_is_reported():
    # reached by mapping a tree: the branching family of the W
    # transformation is a datatype, so a branch table cannot be rebuilt
    from adaptt.inductive import ind_adapter
    fam = shift(list_ty(A), 1, 0)
    tr = Trans((KAd(f_AB, B, 0), KAd(AdId(fam), fam, 1)))
    fn = ev().compile_ad(ind_adapter("W", tr, ()))(EMPTY)
    with pytest.raises(NonEnumerable, match="^branching over a "
                                            "non-enumerable domain$"):
        fn(VCon("W", 0, (a0(), VFun(()))))


def in_fresh_session(fn, sink=None):
    """Run ``fn`` in a copied context whose session holds the stock
    datatypes, ``Tree`` and ``Bin``, and reports to ``sink``."""
    def go():
        from adaptt.inductive import register, tree_desc
        SESSION.set(Session({d.name: d for d in builtin_descs()}))
        register(tree_desc())
        elaborate.elab_file(surface.parse(DECLARED["Bin"]))
        SESSION.get().sink = sink
        return fn()
    return contextvars.copy_context().run(go)


def bin_tree(p):
    """fork a0 1 (fork a1 0 tip tip) (fork a0 0 tip tip) over (a0, a1)."""
    tip = Con("Bin", 0, p, ())
    one = nat_succ(nat_zero())
    return Con("Bin", 1, p, (
        Var(1), one,
        Con("Bin", 1, p, (Var(0), nat_zero(), tip, tip)),
        Con("Bin", 1, p, (Var(1), nat_zero(), tip, tip))))


def test_kernel_and_model_agree_on_bin_cast():
    # both recursive arguments of a fork are mapped, each at its own index
    def go():
        tree = bin_tree(Sub((STy(A, 0),)))
        ad = ind_adapter("Bin", Trans((KAd(f_AB, B, 0),)),
                         (nat_succ(nat_succ(nat_zero())),))
        env = ((a0(), VBase("A", "a1")), ())
        return (ev().eval_tm(env, Cast(tree, ad)),
                ev().eval_tm(env, kcast(tree, ad)))
    raw, computed = in_fresh_session(go)
    tip = VCon("Bin", 0, ())
    zero = VCon("Nat", 0, ())
    b0, b1 = VBase("B", "b0"), VBase("B", "b1")
    assert raw == VCon("Bin", 1, (
        b0, VCon("Nat", 1, (zero,)),
        VCon("Bin", 1, (b1, zero, tip, tip)),
        VCon("Bin", 1, (b0, zero, tip, tip))))
    assert sem_eq(raw, computed)


def test_oracle_reports_no_rewrite_step():
    # casts along List, Vec, W and Tree adapters, evaluated by the oracle
    # under a counting sink; the kernel's own casts of the same terms
    # reach that sink, and the two agree
    binding = ModelBinding.from_json(
        '{"types": {"A": ["a0", "a1"], "B": ["b0", "b1"], "C": ["c0", "c1"],'
        '           "D": ["d0"], "E0": [], "E1": []},'
        ' "adapters": {"f": {"A->B": {"a0": "b0", "a1": "b1"}},'
        '              "k": {"D->C": {"d0": "c1"}}, "e": {"E1->E0": {}}}}')
    rules = collections.Counter()
    e0, e1 = Base("E0"), Base("E1")
    list_p = Sub((STy(A, 0),))
    w_p = Sub((STy(A, 0), STy(shift(e0, 1, 0), 1)))
    tree_p = Sub((STy(A, 0), STy(C, 0)))
    mu_f = (KAd(f_AB, B, 0),)
    cases = [
        (cons(A, Var(0), nil(A)), ind_adapter("List", Trans(mu_f), ())),
        (Con("Vec", 1, list_p,
             (Var(0), nat_zero(), Con("Vec", 0, list_p, ()))),
         ind_adapter("Vec", Trans(mu_f), (nat_succ(nat_zero()),))),
        # sup a (fun (y : E0) => w) over (w : W A E0, a : A)
        (Con("W", 0, w_p, (Var(0), Lam(e0, Var(2)))),
         ind_adapter("W", Trans(mu_f + (KAd(Post("e", shift(e1, 1, 0),
                                                 shift(e0, 1, 0)),
                                            shift(e1, 1, 0), 1),)), ())),
        (Con("Tree", 1, tree_p, (Var(0), Lam(C, Con("Tree", 0, tree_p, ())))),
         ind_adapter("Tree", Trans(mu_f + (KAd(Post("k", D, C), D, 0),)), ())),
    ]
    env = ((VCon("W", 0, (a0(), VFun(()))), VBase("A", "a1")), ())

    def go():
        e = Evaluator(binding)
        rules.clear()
        raw = [e.eval_tm(env, Cast(tm, ad)) for tm, ad in cases]
        oracle_rules = dict(rules)
        computed = [e.eval_tm(env, kcast(tm, ad)) for tm, ad in cases]
        return raw, oracle_rules, computed
    raw, oracle_rules, computed = in_fresh_session(
        go, lambda rule, _path: rules.update([rule]))
    assert oracle_rules == {}
    assert rules["CAST_CONSTR"] >= len(cases)
    assert all(sem_eq(x, y) for x, y in zip(raw, computed))
    assert raw[0] == VCon("List", 1, (VBase("B", "b1"), VCon("List", 0, ())))


def test_setmodel_imports_only_syntax_from_the_package():
    tree = ast.parse(pathlib.Path(setmodel.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module)
            elif node.module.split(".")[0] == "adaptt":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "adaptt"}
    assert found == {"syntax"}


def _package_imports():
    """The relative imports of every module of the package, as
    ``(module, imported module, enclosing function or None)``."""
    out = []
    for path in sorted(pathlib.Path(setmodel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    local.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = ([node.module.split(".")[0]] if node.module
                           else [a.name for a in node.names])
                out += [(path.stem, t, local.get(node)) for t in targets]
    return out


def test_the_package_has_one_import_cycle_and_no_other_local_import():
    imports = _package_imports()
    edges = collections.defaultdict(set)
    for mod, target, _ in imports:
        edges[mod].add(target)

    def reach(m):
        seen, todo = set(), [m]
        while todo:
            for n in edges[todo.pop()] - seen:
                seen.add(n)
                todo.append(n)
        return seen

    mods = {mod for mod, _, _ in imports} | {t for _, t, _ in imports}
    cycles = {frozenset({m} | {n for n in reach(m) if m in reach(n)})
              for m in mods if m in reach(m)}
    assert cycles == {frozenset({"normalize", "transform"})}
    assert sorted((mod, t, fn) for mod, t, fn in imports if fn) == [
        ("normalize", "transform", fn)
        for fn in sorted(["cast", "ad_end", "conv_sub", "conv_trans",
                          "conv_ad"])]
    assert edges["pretty"] == edges["setmodel"] == {"syntax"}
    assert "golden" not in mods


#: datatypes whose casts reach the rest of the semantic action: a
#: parameter under two function arrows (so the map reads an adapter's
#: end), a family with a dependency telescope, term parameters and
#: arguments whose types are themselves datatypes over the parameters,
#: and a term parameter passed on to a datatype that reads it through a
#: family
RAW_PRELUDE = """base A ; base B ; base C ;
postulate adapter f : A => B ;
data K (X : Ty+) { k : (h : (X -> B) -> C) -> K X }
data Fam (F : (n : Nat) Ty+) (j : Nat) { fam : (v : F j) -> Fam F j }
data Q (X : Ty+) (x : X)
  { q : (e : Id X x x) (v : Fam (n => Vec X n) zero) -> Q X x }
data Dep (Y : Ty+) (F : (y : Y) Ty+) (y : Y) { dep : (v : F y) -> Dep Y F y }
data R (X : Ty+) (x : X) { r : (d : Dep X (z => A) x) -> R X x }
var a : A ;
var c : C ;
"""

#: (source type, term, adapter): each term is cast raw along the adapter
RAW_CASTS = [
    ("Vec A (succ (succ zero))",
     "vcons A a (succ zero) (vcons A a zero (vnil A))",
     "Vec [[ f > succ (succ zero) ]]"),
    ("Id A a a", "refl A a", "Id [[ f > a > a ]]"),
    ("List (List A)", "cons (List A) (cons A a (nil A)) (nil (List A))",
     "List [[ List [[ f ]] ]]"),
    ("(A ** A) -> A", "fun (p : A ** A) => a", "Pi [[ id (A ** A) > f ]]"),
    ("K A", "k A (fun (h : A -> B) => c)", "K [[ f ]]"),
    ("Q A a", "q A a (refl A a) (fam (n => Vec A n) zero (vnil A))",
     "Q [[ f > a ]]"),
    # the whisker into Dep carries x across f, and F's component reads
    # it on the source side: read on the target side, it would be f a
    ("R A a", "r A a (dep A (z => A) a a)", "R [[ f > a ]]"),
]


def test_model_agrees_with_conversion_on_raw_casts():
    # the kernel computes each cast and converts it to the raw one; the
    # model must then give the raw cast and the computed one the same
    # value in every environment
    from adaptt.normalize import ad_tgt, conv_tm, nf
    binding = ModelBinding.from_json(
        '{"types": {"A": ["a0", "a1"], "B": ["b0", "b1"], "C": ["c0", "c1"]},'
        ' "adapters": {"f": {"A->B": {"a0": "b1", "a1": "b0"}}}}')

    def go():
        SESSION.set(Session({d.name: d for d in builtin_descs()}))
        text = RAW_PRELUDE + "".join(
            f"var s{i} : {ty} ;\n" for i, (ty, _, _) in enumerate(RAW_CASTS))
        sc = elaborate.elab_file(surface.parse(text)).scope
        e = Evaluator(binding)
        out = []
        for i, (_, tm, ad) in enumerate(RAW_CASTS):
            t, _ = elaborate.elab_expr_in(sc, tm)
            # a cast of a variable stays put, so it carries the adapter
            ad = elaborate.elab_expr_in(sc, f"s{i} <| {ad}")[0].ad
            raw, computed = Cast(t, ad), kcast(t, ad)
            converts = conv_tm(sc.ctx, ad_tgt(ad), nf(raw).value, computed)
            envs = enumerate_envs(e, sc.ctx, free_tm_vars(raw))
            out.append((tm, converts, len(envs), all(
                sem_eq(e.eval_tm(env, raw), e.eval_tm(env, computed))
                for env in envs)))
        return out
    for tm, converts, n_envs, agrees in contextvars.copy_context().run(go):
        assert converts, tm
        assert n_envs == 2, tm
        assert agrees, tm
