"""Spans around the calls into each layer of ``decoybb84``, recorded from the
benchmark's own files: nothing under ``src/`` changes.

``LAYER_MAP`` is the single table of what is traced.  Each row names a
layer (the module that defines the function), a public function, and every
other module that binds the same function object (``from .gf2 import rank``
in ``protocol`` binds ``protocol.rank``).  Calls go through whichever
binding the caller's module holds, so each binding is replaced by one
shared wrapper.  ``Tracer.install`` stops with the row's name when a listed
function or binding no longer exists, and when some module of the package
still holds the unwrapped function after wrapping.

Only the dispatch names of ``kernels`` are listed; the backend-specific
twins are aliases inside ``kernels`` and are never named here.

A span is (function id, start, end, parent span).  Spans stay in memory and
are written out by ``Tracer.save`` when the run ends.  Counts are taken in
the wrappers from call arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "decoybb84"

# (layer, function, modules besides the layer's own that bind it)
LAYER_MAP = (
    ("kernels", "nearest_index", ()),
    ("kernels", "decode_table", ()),
    ("kernels", "restricted_decode_flags", ()),
    ("kernels", "toeplitz_image_counts", ()),
    ("protocol", "run_session", ("cli", PACKAGE)),
    ("protocol", "decode_to_seed", ()),
    ("protocol", "random_full_rank_matrix", ()),
    ("channel", "classify", ("protocol", PACKAGE)),
    ("gf2", "solve", ("protocol",)),
    ("gf2", "rank", ("protocol", "bounds", "oracle", PACKAGE)),
    ("gf2", "kernel_basis", ("bounds", "oracle", PACKAGE)),
    ("gf2", "span_ints", ("bounds", "oracle")),
    ("gf2", "mat_vec_mul", ("protocol", "bounds", "oracle", "hashing", PACKAGE)),
    ("hashing", "universality_profile", ("cli", PACKAGE)),
    ("hashing", "profile_summary", ("cli",)),
    ("hashing", "build_toeplitz", ("bounds", PACKAGE)),
    ("hashing", "sample_seed", ("protocol", PACKAGE)),
    ("oracle", "reduce_code_channel", (PACKAGE,)),
    ("oracle", "pairwise_figures", (PACKAGE,)),
    ("bounds", "verify_proposition_decoding", (PACKAGE,)),
    ("reports", "build_report", ("cli",)),
    ("reports", "to_json", ("cli",)),
    ("cli", "main", ()),
)

SPAN_NAMES = tuple(f"{layer}.{func}" for layer, func, _ in LAYER_MAP)


class LayerMapError(RuntimeError):
    """The layer map no longer matches the package."""


def _module(name: str):
    return importlib.import_module(name if name == PACKAGE else f"{PACKAGE}.{name}")


# ----------------------------------------------------------------------
# Counts taken from call arguments and results.  Each hook gets the tracer,
# the span index, the bound arguments and the result.


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _count(key, fn):
    def hook(tracer, span, args, result):
        _add(tracer.counts, key, fn(args, result))
    return hook


def _proposition(tracer, span, args, result):
    _add(tracer.counts, "bounds.seeds", result.n_seeds)
    _add(tracer.counts, "bounds.patterns", result.n_patterns)


def _decode_to_seed(tracer, span, args, result):
    """Decode path, codewords scanned and guard headroom of one EC decode.

    A decode is exhaustive when it reached ``kernels.nearest_index``, i.e.
    ``solve`` found no exact preimage.
    """
    lm = args["m_e"].cols
    nearest = tracer.ids["kernels.nearest_index"]
    exhaustive = any(tracer.name[j] == nearest and tracer.parent[j] == span
                     for j in range(span + 1, len(tracer.name)))
    c = tracer.counts
    _add(c, "protocol.ec.decodes", 1)
    _add(c, "protocol.ec.exhaustive", int(exhaustive))
    _add(c, "protocol.ec.codewords", int(exhaustive) << lm)
    headroom = math.log2(args["guard"]) - lm
    c["protocol.ec.guard_headroom_bits"] = min(c.get("protocol.ec.guard_headroom_bits", headroom),
                                               headroom)


HOOKS = {
    "kernels.nearest_index": _count("kernels.nearest_index.codewords",
                                    lambda a, r: len(a["code"])),
    "kernels.decode_table": _count("kernels.decode_table.pairs",
                                   lambda a, r: len(a["code"]) << a["n_bits"]),
    "kernels.restricted_decode_flags": _count("kernels.restricted_decode_flags.pairs",
                                              lambda a, r: len(a["cands"]) * len(a["ys"])),
    "kernels.toeplitz_image_counts": _count("kernels.toeplitz_image_counts.seeds",
                                            lambda a, r: 1 << (a["l"] + a["m"] - 1)),
    "channel.classify": _count("channel.classify.labels", lambda a, r: len(a["labels"])),
    "gf2.span_ints": _count("gf2.span_ints.words", lambda a, r: len(r)),
    "bounds.verify_proposition_decoding": _proposition,
    "protocol.decode_to_seed": _decode_to_seed,
}

# Counters the hooks add to; a pass reports each (0 when never counted).
COUNTERS = ("kernels.nearest_index.codewords", "kernels.decode_table.pairs",
            "kernels.restricted_decode_flags.pairs", "kernels.toeplitz_image_counts.seeds",
            "channel.classify.labels", "gf2.span_ints.words", "bounds.seeds",
            "bounds.patterns", "protocol.ec.codewords")

# The span a metric not named "<span>.<suffix>" is read from.
DERIVED_SPAN = {
    "bounds.seeds": "bounds.verify_proposition_decoding",
    "bounds.patterns": "bounds.verify_proposition_decoding",
    "protocol.ec.codewords": "protocol.decode_to_seed",
    "protocol.ec.exhaustive_frac": "protocol.decode_to_seed",
    "protocol.ec.guard_headroom_bits": "protocol.decode_to_seed",
    "protocol.full_rank.tries": "protocol.random_full_rank_matrix",
}


class Tracer:
    """Wraps every binding in ``LAYER_MAP`` while installed (a context manager)."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        originals = {}
        try:
            for layer, func, binders in LAYER_MAP:
                span = f"{layer}.{func}"
                home = _module(layer)
                original = getattr(home, func, None)
                if not callable(original):
                    raise LayerMapError(f"{span}: {home.__name__} has no function {func!r}")
                wrapper = self._wrap(span, original)
                for site in (home,) + tuple(_module(b) for b in binders):
                    if getattr(site, func, None) is not original:
                        raise LayerMapError(f"{span}: {site.__name__}.{func} is missing "
                                            f"or is not {home.__name__}.{func}")
                    setattr(site, func, wrapper)
                    self._restore.append((site, func, original))
                originals[id(original)] = (span, home)
            self._check_all_wrapped(originals)
        except BaseException:
            self.uninstall()
            raise

    @staticmethod
    def _check_all_wrapped(originals) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and mod is not hit[1]:
                    raise LayerMapError(f"{hit[0]}: binding {modname}.{attr} is not wrapped; "
                                        f"add {modname!r} to its LAYER_MAP row")

    def uninstall(self) -> None:
        for site, func, original in reversed(self._restore):
            setattr(site, func, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, span: str, fn):
        sid = self.ids[span]
        hook = HOOKS.get(span)
        sig = inspect.signature(fn) if hook else None
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, idx, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------

    def mark(self) -> int:
        """Span index where the next pass starts; also resets the counts."""
        self.counts = {}
        return len(self.name)

    def pass_metrics(self, first: int) -> tuple[dict, dict, set]:
        """(times, counts, present span names) of the spans from ``first`` on."""
        ids = np.array(self.name[first:], dtype=np.int64)
        par = np.array(self.parent[first:], dtype=np.int64)
        dur = np.array(self.end[first:]) - np.array(self.start[first:])
        n_ids = len(SPAN_NAMES)
        total = np.bincount(ids, weights=dur, minlength=n_ids)
        calls = np.bincount(ids, minlength=n_ids)
        has_parent = par >= first
        child = np.bincount(par[has_parent] - first, weights=dur[has_parent], minlength=len(ids))
        self_total = np.bincount(ids, weights=dur - child[:len(ids)], minlength=n_ids)
        times, counts = {}, {}
        present = set()
        for i, span in enumerate(SPAN_NAMES):
            if calls[i]:
                present.add(span)
            times[f"{span}.s"] = float(total[i])
            times[f"{span}.self_s"] = float(self_total[i])
            counts[f"{span}.calls"] = int(calls[i])
        c = self.counts
        for key in COUNTERS:
            counts[key] = c.get(key, 0)
        decodes = c.get("protocol.ec.decodes", 0)
        counts["protocol.ec.exhaustive_frac"] = c.get("protocol.ec.exhaustive", 0) / decodes \
            if decodes else 0.0
        counts["protocol.ec.guard_headroom_bits"] = c.get("protocol.ec.guard_headroom_bits", 0.0)
        rfr = self.ids["protocol.random_full_rank_matrix"]
        under_rfr = has_parent & (ids[np.clip(par - first, 0, None)] == rfr)
        counts["protocol.full_rank.tries"] = \
            int((under_rfr & (ids == self.ids["gf2.rank"])).sum()) / int(calls[rfr]) \
            if calls[rfr] else 0.0
        return times, counts, present

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=np.array(self.name),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))


def span_of(metric: str) -> str:
    """The span a per-layer metric is read from."""
    if metric in DERIVED_SPAN:
        return DERIVED_SPAN[metric]
    for span in SPAN_NAMES:
        if metric.startswith(span + "."):
            return span
    raise KeyError(f"per-layer metric {metric!r} names no span of LAYER_MAP")
