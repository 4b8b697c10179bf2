"""Per-layer tracing from outside the program.

The layers are the ``adaptt`` modules (``normalize`` split into its
rewrite engine and its conversion checker).  ``Tracer.install`` wraps
each layer's public functions and rebinds every name under which an
``adaptt`` module holds them, because modules import each other's
functions by name (``elaborate`` does ``from .check import infer_tm``).
``uninstall`` puts the originals back.

A span opens only when control crosses from one layer into another; a
call within the current layer only counts.  Spans are kept in flat
arrays (layer, start, end, parent) until the run ends; self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

#: layer -> (module, public functions wrapped); ``Class.method`` wraps a
#: method on the class
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "surface": ("surface", ("lex", "parse", "Parser.expr")),
    "elaborate": ("elaborate", ("elab_file", "elab_expr_in")),
    "check": ("check", ("infer_tm", "check_ty", "check_ad", "check_sub",
                        "check_trans", "check_desc")),
    "normalize.rewrite": ("normalize", ("apply", "open_tm_block", "cast",
                                        "nf", "app", "fst_", "snd_")),
    "normalize.conv": ("normalize", ("conv", "conv_ty", "conv_tm", "conv_ad",
                                     "conv_sub", "conv_inst", "conv_trans")),
    "transform": ("transform", ("push_ty", "push_tel", "cast_inst", "vcomp",
                                "whisker_left", "whisker_right",
                                "fuse_chain")),
    "inductive": ("inductive", ("cast_con", "con_data_tied", "ind_adapter",
                                "register", "derive_rule_doc")),
    "syntax": ("syntax", ("shift", "id_sub", "dual_ctx")),
    "pretty": ("pretty", ("tm_string", "ty_string", "ad_string",
                          "data_decl_string")),
    "setmodel": ("setmodel", ("Evaluator.eval_tm", "enumerate_envs",
                              "sem_eq", "free_tm_vars",
                              "ModelBinding.from_json")),
    "cli": ("cli", ("main",)),
}
LAYER_NAMES = tuple(LAYERS)

#: wrapper frames sit between every traced call and its callee, so a
#: recursion that fits the stock limit untraced needs up to this many
#: times the frames traced
FRAME_FACTOR = 3


def own_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the durations of the
    spans whose parent it is (children never overlap: one thread)."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def self_times(layer, own, n_layers: int) -> list[float]:
    """Self time per layer: the sum of its spans' own times."""
    out = [0.0] * n_layers
    for lid, t in zip(layer, own):
        out[lid] += t
    return out


class Tracer:
    """Wrappers, span arrays and counters for one traced phase."""

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.calls = Counter()          # "module.function" -> calls
        self.rules = Counter()          # rewrite rule name -> firings
        self.tokens = 0
        self.decls = 0
        self.envs = 0
        self.out_nodes = 0
        self.evaluated = 0
        self.skipped = 0
        self.elaborated: list = []      # counted after each op, untimed
        self._saved: list = []
        self._stack = [(-1, -1)]        # (layer id, span index)
        self._recursion_limit = None
        self._cache_start = None
        self._cache_end = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from adaptt import normalize
        layer_mods = {modname: importlib.import_module(f"adaptt.{modname}")
                      for modname, _ in LAYERS.values()}
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "adaptt" or name.startswith("adaptt."))
                and m is not None]
        # a function the program no longer has is skipped: its layer then
        # counts the calls of the rest
        for lid, (modname, funcs) in enumerate(LAYERS.values()):
            mod = layer_mods[modname]
            for qual in funcs:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        continue
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    w = self._wrap(fn, lid, f"{modname}.{qual}")
                    self._rebind(cls, meth, staticmethod(w)
                                 if isinstance(raw, staticmethod) else w)
                    continue
                fn = getattr(mod, qual, None)
                if fn is None:
                    continue
                w = self._wrap(fn, lid, f"{modname}.{qual}")
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._rebind(m, attr, w)
        # rule counts come from the public trace sink; the CLI resets the
        # sink to None after each command, which here means "back to the
        # counting sink"
        set_trace = normalize.set_trace

        def count_rule(rule, _path):
            self.rules[rule] += 1

        def keep_counting(sink):
            set_trace(count_rule if sink is None else sink)
        set_trace(count_rule)
        for m in mods:
            if vars(m).get("set_trace") is set_trace:
                self._rebind(m, "set_trace", keep_counting)
        self._cache_start = _cache_info()
        self._recursion_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(self._recursion_limit * FRAME_FACTOR)

    def uninstall(self) -> None:
        from adaptt import normalize
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        normalize.set_trace(None)
        self._cache_end = _cache_info()
        if self._recursion_limit is not None:
            sys.setrecursionlimit(self._recursion_limit)
            self._recursion_limit = None

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, lid: int, key: str):
        stack = self._stack
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        calls = self.calls
        perf = time.perf_counter
        inner = self._hooked(fn, key)

        def traced(*args, **kwargs):
            calls[key] += 1
            top_layer, top_span = stack[-1]
            if top_layer == lid:
                return inner(*args, **kwargs)
            idx = len(layer)
            layer.append(lid)
            parent.append(top_span)
            end.append(0.0)
            stack.append((lid, idx))
            start.append(perf())
            try:
                return inner(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
        return traced

    def _hooked(self, fn, key: str):
        """``fn`` itself, or ``fn`` followed by the counter update that
        needs its arguments, result or exception."""
        if key == "surface.lex":
            def lex(text, *rest):
                out = fn(text, *rest)
                self.tokens += len(out)
                return out
            return lex
        if key == "elaborate.elab_file":
            def elab_file(decls, *rest):
                self.decls += len(decls)
                out = fn(decls, *rest)
                self.elaborated.append(out)
                return out
            return elab_file
        if key == "setmodel.enumerate_envs":
            from adaptt.setmodel import NonEnumerable

            def enumerate_envs(*args, **kwargs):
                try:
                    out = fn(*args, **kwargs)
                except NonEnumerable:
                    self.skipped += 1
                    raise
                self.envs += len(out)
                self.evaluated += 1
                return out
            return enumerate_envs
        return fn

    # -- reading -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.layer)

    def own_times(self) -> list[float]:
        return own_times(self.start, self.end, self.parent)

    def cache_hit_ratio(self) -> float:
        """Hits over lookups of the constructor-telescope cache during the
        traced phase; 0 when the program has no such cache."""
        if self._cache_start is None or self._cache_end is None:
            return 0.0
        hits = self._cache_end.hits - self._cache_start.hits
        misses = self._cache_end.misses - self._cache_start.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path) -> None:
        """All spans, gzipped, as tab-separated layer, start, end and
        parent index (-1 for a span the benchmark opened)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer\tstart_s\tend_s\tparent\n")
            for lid, s, e, p in zip(self.layer, self.start, self.end,
                                    self.parent):
                fh.write(f"{LAYER_NAMES[lid]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def _cache_info():
    """``cache_info`` of the name-keyed constructor-telescope cache in
    ``adaptt.inductive``, while that cache exists."""
    from adaptt import inductive
    cached = getattr(inductive, "_con_data_tied", None)
    info = getattr(cached, "cache_info", None)
    return info() if info is not None else None
