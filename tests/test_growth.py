"""Work counts on doubling ladders: the Python calls a computation makes,
counted with ``sys.setprofile``, grow at most 2.1x when its input doubles.
Call counts vary across Python versions, so only ratios are asserted."""

import sys

import pytest

from adaptt.pretty import ty_string
from adaptt.syntax import Pi, Sig, fv_bounds
from helpers import A


def calls(fn, *args) -> int:
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n


def chain(former, n):
    """``A -> … -> A`` (or ``A ** … ** A``), ``n`` links, nested right."""
    ty = A
    for _ in range(n):
        ty = former(A, ty)
    return ty


@pytest.mark.parametrize("former", [Pi, Sig])
def test_printing_a_chain_grows_linearly(former):
    counts = []
    for n in (64, 128, 256):
        ty = chain(former, n)
        fv_bounds(ty)       # filled once per node, outside the count
        counts.append(calls(ty_string, (), ty))
    assert counts[2] / counts[1] <= 2.1, counts
