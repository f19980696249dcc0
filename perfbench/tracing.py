"""In-memory span tracer for the public functions of the cartanquiver layers.

`Tracer.install()` replaces the traced functions on their module attributes
(and `contains_rows` on the `Subspace` class).  Library modules call across
modules through those attributes (`la.rref`, `hmod.sub_quotient`,
`homext.hom_space`, ...) and within a module through its globals, which are
the same attributes, so the wrappers see every call.  `uninstall()` puts the
originals back.

Every wrapped call becomes a span (name, start, end, parent span, item id).
Generators are timed across their `next()` calls only.  The hottest leaves
(`rref`, `matpow`, `contains_rows`) are aggregated into counters (calls and
busy time) instead of one span per call.  Self time is a span's busy time
minus the time covered by its child spans; leaf calls are not spans, so
their time stays in the self time of the span that made them.
"""

from __future__ import annotations

import collections
import functools
import json
import time

perf = time.perf_counter

# (module attribute path, metric prefix, kind); kind is "span", "gen",
# "leaf" (timed counter) or "count" (call counter only)
TRACED = (
    ("exactlinalg.rref", "exactlinalg.rref", "leaf"),
    ("exactlinalg.matpow", "exactlinalg.matpow", "leaf"),
    ("exactlinalg.Subspace.contains_rows", "exactlinalg.subspace_contains",
     "leaf"),
    ("exactlinalg.kernel_basis_and_support", "exactlinalg.kernel", "count"),
    ("hmod.from_structure_matrices", "hmod.from_structure_matrices", "span"),
    ("hmod.sub_quotient", "hmod.sub_quotient", "span"),
    ("hmod.reduce_mod_p", "hmod.reduce_mod_p", "span"),
    ("homext.hom_space", "homext.hom_space", "span"),
    ("homext.intertwiner_rows", "homext.intertwiner_rows", "span"),
    ("homext.are_isomorphic", "homext.are_isomorphic", "span"),
    ("homext.find_rigid", "homext.find_rigid", "span"),
    ("reduction.reduce", "reduction.reduce", "span"),
    ("gendecomp.canonical_decomposition", "gendecomp.canonical_decomposition",
     "span"),
    ("gendecomp.krull_schmidt", "gendecomp.krull_schmidt", "span"),
    ("gendecomp.ext_generic", "gendecomp.ext_generic", "span"),
    ("gendecomp.is_schur_root", "gendecomp.is_schur_root", "span"),
    ("flagvar.iter_locally_free_submodules", "flagvar.iter_submodules", "gen"),
    ("flagvar.count_locally_free_submodules", "flagvar.count_submodules",
     "span"),
    ("flagvar.point_count", "flagvar.point_count", "span"),
    ("flagvar.iter_flags", "flagvar.iter_flags", "gen"),
    ("flagvar.hom_tensor", "flagvar.hom_tensor", "span"),
    ("flagvar.tangent_dimension", "flagvar.tangent_dimension", "span"),
    ("flagvar.fiber_of_reduction", "flagvar.fiber_of_reduction", "span"),
    ("flagvar.bundle_ratio_check", "flagvar.bundle_ratio_check", "span"),
    ("flagvar.counting_polynomial", "flagvar.counting_polynomial", "span"),
)

ENUMERATION = ("flagvar.iter_submodules", "flagvar.count_submodules")


class Span:
    __slots__ = ("sid", "name", "parent", "item", "start", "end", "busy",
                 "child", "entered", "under")

    def __init__(self, sid, name, parent, item):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.item = item
        self.start = None
        self.end = None
        self.busy = 0.0
        self.child = 0.0
        self.entered = 0.0
        self.under = None


class Tracer:
    """Records spans and counters while installed; one per process."""

    def __init__(self, package):
        self.package = package
        self.item = "setup"
        self.stack: list[Span] = []
        self.spans: list[tuple] = []
        self.calls = collections.Counter()
        self.busy = collections.Counter()
        self.self_s = collections.Counter()
        self.extra = collections.Counter()
        self._depth = collections.Counter()
        self._outer_start: dict[str, float] = {}
        self._next_sid = 0
        self._patches: list[tuple] = []

    # --- span bookkeeping ----------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1].sid if self.stack else None
        sid = self._next_sid
        self._next_sid += 1
        self.calls[name] += 1
        return Span(sid, name, parent, self.item)

    def _enter(self, span):
        now = perf()
        if span.start is None:
            span.start = now
        span.entered = now
        span.under = self.stack[-1] if self.stack else None
        self.stack.append(span)
        if self._depth[span.name] == 0:
            self._outer_start[span.name] = now
        self._depth[span.name] += 1

    def _leave(self, span):
        now = perf()
        dur = now - span.entered
        span.busy += dur
        span.end = now
        self.stack.pop()
        if span.under is not None:
            span.under.child += dur
        span.under = None
        self._depth[span.name] -= 1
        if self._depth[span.name] == 0:
            self.busy[span.name] += now - self._outer_start[span.name]

    def _close(self, span):
        self.self_s[span.name] += span.busy - span.child
        self.spans.append((span.sid, span.name, span.parent, span.item,
                           span.start, span.end, span.busy))

    # --- wrappers ------------------------------------------------------------

    def _wrap_span(self, name, fn):
        hook = SPAN_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            before = self.extra["flagvar.closure.tests"]
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span)
                self._close(span)
            if hook is not None:
                hook(self, args, result, before)
            return result

        return wrapper

    def _wrap_gen(self, name, fn):
        key = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open(name)
            try:
                while True:
                    self._enter(span)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span)
                    if not self._depth[name]:
                        self.extra[key] += 1
                    yield value
            finally:
                inner.close()
                if span.start is not None:
                    self._close(span)

        return wrapper

    def _wrap_leaf(self, name, fn):
        hook = LEAF_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                self.calls[name] += 1
                self.busy[name] += dur
                if hook is not None:
                    hook(self, args)

        return wrapper

    def _wrap_count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        wrap = {"span": self._wrap_span, "gen": self._wrap_gen,
                "leaf": self._wrap_leaf, "count": self._wrap_count}
        for path, name, kind in TRACED:
            *owner_path, attr = path.split(".")
            owner = self.package
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrap[kind](name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, item, start, end, busy in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "parent": parent, "item": item,
                                     "start": start, "end": end,
                                     "busy": busy}) + "\n")

    def self_time_by_layer(self) -> dict:
        """Self time of the spans of each library module."""
        out = collections.Counter()
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return {layer: round(value, 6) for layer, value in sorted(out.items())}

    def metrics(self, cache_info) -> dict:
        """Per-layer values by metric name (see layers.json)."""
        c, b, s, x = self.calls, self.busy, self.self_s, self.extra
        ks_matpow = x["gendecomp.fitting.matpow_calls"]
        ks_calls = c["gendecomp.krull_schmidt"]
        tests = x["flagvar.closure.tests"]
        out = {}
        for name in ("exactlinalg.rref", "exactlinalg.matpow",
                     "exactlinalg.subspace_contains", "hmod.from_structure_matrices",
                     "hmod.sub_quotient", "hmod.reduce_mod_p", "homext.hom_space",
                     "homext.intertwiner_rows", "homext.are_isomorphic",
                     "homext.find_rigid", "reduction.reduce",
                     "gendecomp.krull_schmidt", "gendecomp.ext_generic",
                     "gendecomp.is_schur_root", "flagvar.count_submodules",
                     "flagvar.point_count", "flagvar.hom_tensor",
                     "flagvar.tangent_dimension", "flagvar.fiber_of_reduction"):
            out[name + ".calls"] = c[name]
            out[name + ".busy_s"] = b[name]
        for name in ("homext.hom_space", "gendecomp.krull_schmidt",
                     "flagvar.hom_tensor"):
            out[name + ".self_s"] = s[name]
        out["exactlinalg.rref.cells"] = x["exactlinalg.rref.cells"]
        out["exactlinalg.kernel.calls"] = c["exactlinalg.kernel"]
        out["homext.hom_space.unknowns"] = x["homext.hom_space.unknowns"]
        out["homext.intertwiner_rows.equations"] = \
            x["homext.intertwiner_rows.equations"]
        out["homext.find_rigid.trials"] = x["homext.find_rigid.trials"]
        out["gendecomp.krull_schmidt.splits"] = x["gendecomp.krull_schmidt.splits"]
        out["gendecomp.fitting.matpow_calls"] = ks_matpow
        out["gendecomp.fitting.yield"] = (
            x["gendecomp.krull_schmidt.splits"] / ks_matpow if ks_matpow else 0.0)
        out["gendecomp.monte_carlo_frac"] = (
            x["gendecomp.krull_schmidt.monte_carlo"] / ks_calls
            if ks_calls else 0.0)
        out["flagvar.submodules.yielded"] = x["flagvar.iter_submodules.yielded"]
        out["flagvar.iter_submodules.busy_s"] = b["flagvar.iter_submodules"]
        out["flagvar.closure.tests"] = tests
        accepted = (x["flagvar.iter_submodules.yielded"]
                    + x["flagvar.closure.accepted"])
        out["flagvar.closure.yield"] = accepted / tests if tests else 0.0
        out["flagvar.candidate_cache.hits"] = cache_info.hits
        out["flagvar.candidate_cache.misses"] = cache_info.misses
        out["flagvar.candidate_cache.currsize"] = cache_info.currsize
        out["flagvar.hom_tensor.unknowns"] = x["flagvar.hom_tensor.unknowns"]
        out["flagvar.iter_flags.points"] = x["flagvar.iter_flags.yielded"]
        return out


# --- per-call hooks: counts read from arguments and results ------------------

def _rref_cells(tracer, args):
    shape = getattr(args[0], "shape", ())
    if len(shape) == 2:
        tracer.extra["exactlinalg.rref.cells"] += shape[0] * shape[1]


def _matpow_under_krull_schmidt(tracer, args):
    if tracer._depth["gendecomp.krull_schmidt"]:
        tracer.extra["gendecomp.fitting.matpow_calls"] += 1


def _closure_test(tracer, args):
    if tracer.stack and tracer.stack[-1].name in ENUMERATION:
        tracer.extra["flagvar.closure.tests"] += 1


LEAF_HOOKS = {
    "exactlinalg.rref": _rref_cells,
    "exactlinalg.matpow": _matpow_under_krull_schmidt,
    "exactlinalg.subspace_contains": _closure_test,
}


def _hom_unknowns(tracer, args, result, before):
    m, n = args[0], args[1]
    tracer.extra["homext.hom_space.unknowns"] += sum(
        a * b for a, b in zip(m.dims, n.dims))


def _equations(tracer, args, result, before):
    tracer.extra["homext.intertwiner_rows.equations"] += sum(
        block.shape[0] for block in result)


def _rigid_trials(tracer, args, result, before):
    tracer.extra["homext.find_rigid.trials"] += result.trials_used


def _ks_outcome(tracer, args, result, before):
    if args[0].total_dim():
        tracer.extra["gendecomp.krull_schmidt.splits"] += \
            result.summand_count() - 1
    if result.certainty == "monte_carlo":
        tracer.extra["gendecomp.krull_schmidt.monte_carlo"] += 1


def _tensor_unknowns(tracer, args, result, before):
    x, y = args[0], args[1]
    tracer.extra["flagvar.hom_tensor.unknowns"] += sum(
        a * b for xs, ys in zip(x.slots, y.slots)
        for a, b in zip(xs.dims, ys.dims))


def _counted_submodules(tracer, args, result, before):
    if tracer.extra["flagvar.closure.tests"] > before:
        tracer.extra["flagvar.closure.accepted"] += result


SPAN_HOOKS = {
    "homext.hom_space": _hom_unknowns,
    "homext.intertwiner_rows": _equations,
    "homext.find_rigid": _rigid_trials,
    "gendecomp.krull_schmidt": _ks_outcome,
    "flagvar.hom_tensor": _tensor_unknowns,
    "flagvar.count_submodules": _counted_submodules,
}
