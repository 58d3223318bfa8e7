"""Layer spans recorded from outside the tjcm package.

The recorder wraps the public functions that ``tjcm.cli`` and ``tjcm.scan``
reach through their module namespaces (the names they import from
``params``, ``blocks``, ``reduced`` and ``scan``) plus the public functions
of ``tjcm.jcm`` and ``tjcm.oracle``, which ``scan`` calls as module
attributes.  Each call becomes a span: layer, function name, start, end,
parent span and op id, with a few exact counts taken from the call's
arguments or result.  Spans stay in memory until the caller writes them out.

Wrapping is by name at install time, so a function that a later version of
the package removes or renames simply drops out of the trace.  Observables
are not wrapped: they are called once per time point and are part of the
per-atom channel assembly that ``run_scan``'s self time measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

LAYER_OF_MODULE = {
    "tjcm.params": "params",
    "tjcm.blocks": "blocks",
    "tjcm.reduced": "reduced",
    "tjcm.scan": "scan",
    "tjcm.jcm": "jcm",
    "tjcm.oracle": "oracle",
}
# Namespaces whose imported layer functions are wrapped, and modules whose
# own functions are wrapped because callers reach them as attributes.
NAMESPACES = ("tjcm.cli", "tjcm.scan")
ATTRIBUTE_MODULES = ("tjcm.scan", "tjcm.jcm", "tjcm.oracle")

ORACLE_BUILD = frozenset({"build_joint_hamiltonian", "initial_state", "suggest_dt"})
ORACLE_TRACE = frozenset({"partial_trace_atom"})
CSV_WRITERS = frozenset({"write_csv"})

# Span record layout; a list so the recorder can fill end and attrs in place.
ID, PARENT, OP, LAYER, NAME, START, END, ATTRS = range(8)


class Recorder:
    """Collects spans for the op currently set in ``op``.

    ``enabled`` switches recording off without unwrapping, so one process
    can alternate traced and untraced ops over the same wrapped functions.
    """

    def __init__(self, op: int = 0) -> None:
        self.spans: list[list] = []
        self.op = op
        self.enabled = True
        self._stack: list[list] = []

    def _open(self, layer: str, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, self.op, layer, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        name = fn.__name__
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                return self._iterate(layer, name, fn(*args, **kwargs),
                                     _arg_attrs(layer, name, args, kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[ATTRS] = _arg_attrs(layer, name, args, kwargs)
            span[ATTRS].update(_result_attrs(layer, name, args, kwargs, result))
            return result
        return wrapper

    def _iterate(self, layer: str, name: str, it, attrs: dict):
        """One span per item a generator produces, so the time spent inside
        the generator is attributed to it rather than to its consumer."""
        while True:
            span = self._open(layer, name)
            span[ATTRS], attrs = attrs, {}
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item


def _arg_attrs(layer: str, name: str, args: tuple, kwargs: dict) -> dict:
    if layer == "reduced":
        for a in (*args, *kwargs.values()):
            if getattr(a, "ndim", 0) == 3:
                return {"terms": int(a.shape[1] * a.shape[2])}
    if layer == "oracle" and name == "sample_states":
        times = kwargs.get("times", args[2] if len(args) > 2 else None)
        if times is not None:
            return {"times": [float(t) for t in times]}
    return {}


def _result_attrs(layer: str, name: str, args: tuple, kwargs: dict, result) -> dict:
    if layer == "blocks" and name.startswith("evolve") and getattr(result, "ndim", 0) == 3:
        return {"blocks": int(result.shape[-1]), "amplitudes": int(result.size)}
    if layer == "scan" and name in CSV_WRITERS:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        if isinstance(path, str) and os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    if layer == "scan" and hasattr(result, "max_state_dev"):
        return {"max_state_dev": float(result.max_state_dev),
                "dim": int(getattr(result, "oracle_dim", 0))}
    if layer == "oracle" and name == "suggest_dt" and isinstance(result, float):
        return {"dt": result}
    return {}


def install(recorder: Recorder) -> list[tuple]:
    """Wrap the layer functions in place; returns the patches for
    ``uninstall``.  A function reachable under several names gets one
    wrapper, so a call is recorded once."""
    wrappers: dict[int, object] = {}
    patches: list[tuple] = []

    def patch(module, name: str, fn, layer: str) -> None:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = recorder.wrap(layer, fn)
        patches.append((module, name, fn))
        setattr(module, name, wrappers[id(fn)])

    for modname in dict.fromkeys(NAMESPACES + ATTRIBUTE_MODULES):
        try:
            module = importlib.import_module(modname)
        except ModuleNotFoundError:
            continue
        own_only = modname not in NAMESPACES
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            layer = LAYER_OF_MODULE.get(fn.__module__)
            if layer is None or (own_only and fn.__module__ != modname):
                continue
            patch(module, name, fn, layer)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, name, fn in reversed(patches):
        setattr(module, name, fn)


def self_times(spans: list[list]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def rk4_steps(dt: float, times: list[float]) -> int:
    """Steps a fixed-step integrator takes to visit ``times`` in order from
    T = 0, each interval split into ceil(interval / dt) equal steps."""
    steps, prev = 0, 0.0
    for t in times:
        if t > prev:
            steps += max(1, math.ceil((t - prev) / dt))
            prev = t
    return steps


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over a set of spans (one or more ops).

    Busy time of a layer counts only spans whose parent lies in another
    layer, so nested calls within a layer are not counted twice.  The
    ``top_s`` total covers spans with no parent at all.
    """
    by_id = {s[ID]: s for s in spans}
    selfs = self_times(spans)
    tot: dict[str, float] = defaultdict(float)
    dts: dict[int, float] = {}
    for s in spans:
        dur = s[END] - s[START]
        layer, name, attrs = s[LAYER], s[NAME], s[ATTRS]
        parent = by_id.get(s[PARENT])
        if parent is None:
            tot["top_s"] += dur
        outermost = parent is None or parent[LAYER] != layer
        if layer == "scan":
            if name in CSV_WRITERS:
                tot["scan.csv_s"] += dur
                tot["scan.csv_bytes"] += attrs.get("bytes", 0)
            else:
                tot["scan.self_s"] += selfs[s[ID]]
            if "max_state_dev" in attrs:
                tot["oracle.max_state_dev"] = max(tot["oracle.max_state_dev"],
                                                  attrs["max_state_dev"])
                tot["oracle.dim"] = max(tot["oracle.dim"], attrs["dim"])
            continue
        if not outermost:
            continue
        if layer == "blocks":
            key = "blocks.evolve_s" if name.startswith("evolve") else "blocks.spectrum_s"
            tot[key] += dur
            tot["blocks.n_blocks"] += attrs.get("blocks", 0)
            tot["blocks.amplitudes"] += attrs.get("amplitudes", 0)
        elif layer == "oracle":
            if name in ORACLE_BUILD:
                tot["oracle.build_s"] += dur
            elif name in ORACLE_TRACE:
                tot["oracle.trace_s"] += dur
            else:
                tot["oracle.integrate_s"] += dur
            if "dt" in attrs:
                dts[s[OP]] = attrs["dt"]
            if "times" in attrs and s[OP] in dts:
                tot["oracle.rk4_steps"] += rk4_steps(dts[s[OP]], attrs["times"])
        else:
            tot[f"{layer}.busy_s"] += dur
            tot[f"{layer}.calls"] += 1
            if "terms" in attrs:
                tot["reduced.terms"] += attrs["terms"]
    return dict(tot)
