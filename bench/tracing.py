"""Span tracing of mckaykit's layers, installed from outside the package.

``Tracer.install()`` wraps every public function of each layer module,
plus a few private names that carry a layer's work, and puts the wrapper
wherever a module of the package holds the function, so calls between
layers pass through it (``graded_algebra.rref`` is the wrapped
``linalg.rref``).  ``Echelon``'s methods and the graded layer builder are
wrapped on their classes.  Each call records a span (name, start, end,
parent) in flat arrays; the per-layer metrics are derived from the spans
after the run, and ``write()`` stores them.

Only traced runs install the wrappers; an untraced run never imports this
module.
"""

import inspect
import json
import sys
import time
from array import array

import checks

LAYERS = ("gamma_data", "quiver_core", "graded_algebra", "rep_theory",
          "corner_functors", "moduli_tools", "linalg", "io_formats", "cli")

# private functions wrapped besides the public ones
PRIVATE = {"graded_algebra": ("_expand_path_on",)}

# methods wrapped on their class: (layer, class) -> method names
METHODS = {
    ("linalg", "Echelon"): ("insert", "reduce", "contains"),
    ("graded_algebra", "_LayerTable"): ("_build_next",),
}

# per-layer metrics besides <layer>.self_s and <layer>.calls: the time
# inside a traced name (nested calls of the same name counted once) ...
INCLUSIVE = {
    "gamma_data.build_group_s": "gamma_data.build_group",
    "graded_algebra.hilbert_sequence_s": "graded_algebra.hilbert_sequence",
    "linalg.rref_s": "linalg.rref",
    "linalg.nullspace_s": "linalg.nullspace",
    "linalg.echelon_reduce_s": "linalg.Echelon.reduce",
    "rep_theory.random_flat_rep_s": "rep_theory.random_flat_rep",
    "rep_theory.stability_verdict_s": "rep_theory.stability_verdict",
    "rep_theory.brute_force_stability_s": "rep_theory.brute_force_stability",
    "corner_functors.generation_degree_s": "corner_functors.generation_degree",
    "corner_functors.j_star_s": "corner_functors.j_star",
    "corner_functors.j_shriek_s": "corner_functors.j_shriek",
    "corner_functors.cornered_isomorphic_s": "corner_functors.cornered_isomorphic",
    "corner_functors.submodule_closed_s": "corner_functors.cornered_submodule_is_closed",
    "moduli_tools.vgit_pushforward_s": "moduli_tools.vgit_pushforward",
    "moduli_tools.truncated_corner_column_s": "moduli_tools.truncated_corner_column",
    "moduli_tools.check_quot_correspondence_s": "moduli_tools.check_quot_correspondence",
    "io_formats.rep_from_dict_s": "io_formats.rep_from_dict",
    "cli.main_s": "cli.main",
}
# ... and the number of calls of a traced name
CALLS = {
    "graded_algebra.multiply_classes_calls": "graded_algebra.multiply_classes",
    "linalg.rref_calls": "linalg.rref",
    "linalg.echelon_inserts": "linalg.Echelon.insert",
    "rep_theory.are_isomorphic_calls": "rep_theory.are_isomorphic",
    "corner_functors.submodule_closed_calls": "corner_functors.cornered_submodule_is_closed",
}


def _rref_cells(counters, args, result):
    rows = args[1]
    counters["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _brute_force_subspaces(counters, args, result):
    rep = args[0]
    p = rep.field.p
    counters["brute_force_subspaces"] += sum(
        checks.subspace_count(rep.dims.get(v), p) for v in rep.quiver.vertices)


def _closed(counters, args, result):
    counters["closed"] += bool(result)


# counters computed from a call's arguments or result
PROBES = {
    "linalg.rref": _rref_cells,
    "rep_theory.brute_force_stability": _brute_force_subspaces,
    "corner_functors.cornered_submodule_is_closed": _closed,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = {"rref_cells": 0, "brute_force_subspaces": 0, "closed": 0}

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, name, layer, fn):
        nid = self._name_id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, calls = self.span_start, self.span_end, self.stack, self.calls
        clock = time.monotonic
        probe = PROBES.get(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            # one call per generator; one span per item it produces
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    stack.append(idx)
                    ends.append(0.0)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers of the imported mckaykit package in place."""
        modules = {layer: sys.modules[f"mckaykit.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in PRIVATE.get(layer, ()))):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", layer, obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "mckaykit" or n.startswith("mckaykit.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for m in methods:
                setattr(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", layer,
                                          getattr(cls, m)))

    def metrics(self, t0, t1):
        """Per-layer metrics from the spans; [t0, t1] is the timed section."""
        n = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        names, parents, layer_of = self.span_name, self.span_parent, self.layer_of
        dur = [ends[i] - starts[i] for i in range(n)]
        covered = [0.0] * n
        top_in_window = 0.0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
            elif starts[i] >= t0:
                top_in_window += dur[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            self_s[layer_of[names[i]]] += dur[i] - covered[i]
        calls = {layer: 0 for layer in LAYERS}
        for nid, c in enumerate(self.calls):
            calls[layer_of[nid]] += c

        # inclusive time of a name: spans not nested in a span of the same name
        index = {name: nid for nid, name in enumerate(self.names)}
        wanted = {index[name] for name in INCLUSIVE.values()}
        inclusive = dict.fromkeys(wanted, 0.0)
        outer_end = dict.fromkeys(wanted, float("-inf"))
        rref = index["linalg.rref"]
        rref_under_graded = 0.0
        for i in range(n):
            nid = names[i]
            if nid in wanted and starts[i] >= outer_end[nid]:
                inclusive[nid] += dur[i]
                outer_end[nid] = ends[i]
            if nid == rref and parents[i] >= 0 and \
                    layer_of[names[parents[i]]] == "graded_algebra":
                rref_under_graded += dur[i]

        wall = t1 - t0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for metric, name in INCLUSIVE.items():
            out[metric] = inclusive[index[name]]
        for metric, name in CALLS.items():
            out[metric] = self.calls[index[name]]
        tested = self.calls[index["corner_functors.cornered_submodule_is_closed"]]
        out["linalg.rref_cells"] = self.counters["rref_cells"]
        out["linalg.rref_under_graded_algebra_share"] = rref_under_graded / wall
        out["rep_theory.brute_force_subspaces"] = self.counters["brute_force_subspaces"]
        out["corner_functors.closed_per_candidate"] = (
            self.counters["closed"] / tested if tested else 0.0)
        out["bench.self_s"] = wall - top_in_window
        return out

    def write(self, path):
        """Store the spans: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": ["name int32", "parent int32 (-1: none)",
                       "start float64 s", "end float64 s"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
