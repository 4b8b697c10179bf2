"""Shared fixtures: a small universe of postulated base types and ground
adapters, plus builders for the stock datatypes at concrete arguments.
The base types A, B, C, their first two adapters and the List builders
are the benchmark generators' own."""

from __future__ import annotations

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt.syntax import Base, Ind, Post, Sub, STy, Trans, KAd
from perfbench.gen import (  # noqa: F401  (re-exported to the tests)
    A, B, C, STEP, cons, list_ad, list_ty, nil,
)

D = Base("D")

f_AB = STEP["A"]
g_BC = STEP["B"]
h_CD = Post("h", C, D)
q_DC = Post("q", D, C)
r_CB = Post("r", C, B)


def vec_of(ty, n):
    return Ind("Vec", Sub((STy(ty, 0),)), (n,))


def sum_of(x, y):
    return Ind("Sum", Sub((STy(x, 0), STy(y, 0))), ())


def w_of(x, fam, arity=1):
    return Ind("W", Sub((STy(x, 0), STy(fam, arity))), ())


def id_of(x, a, b):
    return Ind("Id", Sub((STy(x, 0), a)), (b,))


def mu1(ad, forced):
    """One-type-parameter transformation spine."""
    return Trans((KAd(ad, forced, 0),))


def register_tree():
    from adaptt.inductive import register, tree_desc
    register(tree_desc())
