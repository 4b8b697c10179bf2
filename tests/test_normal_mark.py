"""``nf`` marks each node it returns as normal and returns a marked node
as is.  A second ``nf`` of a list, or of any suffix of it, costs the same
at every length; the mark is only set on normal nodes, and it depends on
the node alone, not on the session's datatype table."""

import contextvars
from random import Random

from adaptt.normalize import _nf, assert_normal, nf
from adaptt.syntax import SESSION, Session, Cast, Var, scoped
from perfbench import gen
from test_growth import calls
from test_session_memo import in_fresh_session, traced


def fresh_list(seed: int, n: int):
    """An n-cell ``List A`` of the kernel's element variables, drawn from
    its own seed so that no other test has normalized it."""
    rng = Random(seed)
    return gen.list_of(gen.A, [Var(rng.randrange(gen.KERNEL_A_VARS))
                               for _ in range(n)])


def subnodes(x):
    """Every node of ``x``, ``x`` included; a shared node may repeat."""
    stack, out = [x], []
    while stack:
        y = stack.pop()
        out.append(y)
        stack.extend(c for _, c in scoped(y))
    return out


def rewalk(x):
    """``_nf(x)`` with the mark test bypassed: every mark under ``x`` is
    cleared first, so the walk rebuilds each node; it marks them again."""
    for y in subnodes(x):
        y.__dict__.pop("_normal", None)
    return traced(lambda: _nf(x))


def test_a_second_nf_of_a_list_or_its_tail_costs_the_same_at_every_length():
    again, tails = [], []
    for n in (24, 192):
        lst = fresh_list(11, n)
        nf(lst)
        again.append(calls(nf, lst))
        tails.append(calls(nf, lst.args[-1]))
    assert again[0] == again[1] <= 8, again
    assert tails[0] == tails[1] <= 8, tails


def test_a_cell_consed_onto_a_normal_list_costs_the_same_at_every_length():
    # the spine walk stops at the marked suffix
    counts = []
    for n in (24, 192):
        lst = fresh_list(12, n)
        nf(lst)
        counts.append(calls(nf, gen.cons(gen.A, Var(9), lst)))
    assert counts[0] == counts[1], counts


def test_a_first_nf_of_a_list_grows_linearly():
    counts = [calls(nf, fresh_list(13, n)) for n in (24, 48, 96, 192)]
    for k in range(3):
        assert counts[k + 1] / counts[k] <= 2.1, counts


def test_the_mark_is_set_on_normal_nodes_only():
    for p in gen.oracle_pairs(Random(5), 10):
        for raw in (p.lhs, p.rhs):
            def twice():
                return (traced(lambda: nf(raw).value),
                        traced(lambda: nf(raw).value))
            ((out, rules), (again, rules_again)), _ = in_fresh_session(twice)
            assert again is out and rules_again == rules, (p.kind, raw)
            assert out._normal
            for y in subnodes(raw) + subnodes(out):
                if y._normal:
                    assert_normal(y)
                    assert in_fresh_session(lambda: rewalk(y))[0] == (y, [])


def test_the_mark_hides_no_datatype_lookup():
    # the cast of a list variable stays a cast, carrying the List adapter
    lst = gen.cons(gen.A, Var(0), Var(1))
    cases = [Cast(lst, gen.kernel_case(Random(14), 3).ad),
             gen.kernel_case(Random(14), 3).src,
             Cast(Var(1), gen.list_ad(gen.STEP["A"], gen.B))]
    for raw in cases:
        out = in_fresh_session(lambda: nf(raw).value)[0]
        assert out._normal

        def bare():
            SESSION.set(Session({}))
            return rewalk(out)
        assert contextvars.copy_context().run(bare) == (out, [])
