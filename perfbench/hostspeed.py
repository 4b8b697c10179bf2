"""Host-speed calibration.

The shared host's speed drifts: the same loop of ``adaptt`` calls runs up
to 1.8 times slower for tens of seconds at a time.  Not every kind of
work slows alike: allocation-heavy interpreter work (building frozen
dataclass nodes and comparing trees of them, as the kernel does) can slow
by 1.9 times while plain integer arithmetic slows by 1.3.  The program's
own slowdown lies in between, so the benchmark times one chunk of each
next to the program and takes ``alloc ** 0.75 * arith ** 0.25`` as the
host's current speed.  Of the weights tried (1, 0.75, 0.5 and 0 on the
allocation chunk), 0.75 gave the smallest worst run-to-run spread over
``corpus`` and ``kernel_scale`` measured side by side.  Times are
reported scaled to a host on which that figure is ``REFERENCE_S``: a
time ``t`` measured while it was ``c`` is reported as
``t * REFERENCE_S / c``.

The chunks use no ``adaptt`` code, so a change to the program cannot move
them; the collector is off while they run, so the size of the program's
heap does not either.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

#: the weighted chunk time on the reference host: a shared two-core
#: x86-64 virtual machine with CPython 3.11, in a quiet period
REFERENCE_S = 0.0004

CELLS = 300
STEPS = 3000
#: chunks on either side of a sample whose median scales it
WINDOW = 2


@dataclass(frozen=True)
class _Cell:
    head: object
    tail: object


def _alloc_chunk() -> None:
    """Build two equal 300-cell chains and compare them structurally."""
    x = y = None
    for i in range(CELLS):
        x = _Cell(i, x)
    for i in range(CELLS):
        y = _Cell(i, y)
    if x != y:
        raise RuntimeError("calibration chains differ")


def _arith_chunk() -> int:
    s = 0
    for i in range(STEPS):
        s += i * i % 7
    return s


def chunk_seconds() -> float:
    """The weighted geometric mean of the times of one allocation chunk
    and one arithmetic chunk."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _alloc_chunk()
        t1 = time.perf_counter()
        _arith_chunk()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) ** 0.75 * (t2 - t1) ** 0.25


def scales(chunks: list[float]) -> list[float]:
    """Per sample, the factor that scales a time measured next to it to
    the reference host: ``REFERENCE_S`` over the median chunk time of
    the ``WINDOW`` samples on either side, which damps the chunk's own
    jitter while still following drift."""
    out = []
    for i in range(len(chunks)):
        near = chunks[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(near))
    return out
