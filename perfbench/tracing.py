"""Layer spans for the traced run, installed from outside the program.

``install`` replaces the public names each caller looks up (a module global
or a class attribute) with a wrapper that records a span: layer name, op
index, parent span, start and end in ns, and a few attributes read from the
arguments or the result.  Spans stay in memory until the worker writes them
out at the end.  A name a later version of qocsim no longer has is recorded as
absent, and every metric that depends on it is reported as ``null``.

``layer_metrics`` turns the spans of the steady ops (op index ≥ 1) into the
per-layer metrics, averaged per op.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict


def _build_attrs(args, result):
    return {"d": math.isqrt(result.matrix.shape[0])}


def _apply_attrs(args, result):
    arr, state_modes, cutoff, _mat, op_modes = args[:5]
    d, m, k = cutoff.d, len(state_modes), len(op_modes)
    members = math.prod(arr.shape[1:])
    return {"K": members, "flop": 8 * d ** (2 * k) * d ** (m - k) * members}


def _execute_attrs(args, result):
    return {"planned": args[0].cutoff, "used": result.cutoff}


def _wigner_attrs(args, result):
    return {"points": int(result.values.size)}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def targets():
    """(owner, attribute, span name, attribute reader) for every wrapped name."""
    engine, measurement, scheme = (
        _module(f"qocsim.{m}") for m in ("engine", "measurement", "scheme")
    )
    ensemble = getattr(engine, "Ensemble", None)
    return [
        (engine, "beam_splitter_unitary", "elements.build", _build_attrs),
        (engine, "two_mode_squeezer_unitary", "elements.build", _build_attrs),
        (engine, "apply_matrix", "core.apply", _apply_attrs),
        (scheme, "execute_plan", "engine.execute", _execute_attrs),
        (ensemble, "compact", "engine.compact", None),
        (ensemble, "top_level_population", "engine.leak_check", None),
        (measurement, "povm_element", "measurement.povm", None),
        (scheme, "compile_circuit", "dsl.compile", None),
        (scheme, "run_interferometer", "scheme.solve", None),
        (scheme, "wigner", "phasespace.wigner", _wigner_attrs),
        # branch fidelities are computed both by the scheme and, for the
        # plans' fidelity outputs, by the engine
        (scheme, "fidelity", "phasespace.fidelity", None),
        (scheme, "uhlmann_fidelity", "phasespace.fidelity", None),
        (engine, "fidelity", "phasespace.fidelity", None),
        (engine, "uhlmann_fidelity", "phasespace.fidelity", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, op, parent, start_ns, end_ns, attrs]
        self.stack: list[int] = []
        self.op = -1
        self.wrapped: set[str] = set()

    def install(self) -> None:
        for owner, attr, name, reader in targets():
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, self._wrap(fn, name, reader))
                self.wrapped.add(name)

    def _wrap(self, fn, name, reader):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else None, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if reader is not None:
                try:
                    span[5] = reader(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature loses the attributes, not the span
            return result

        return traced


# span names each per-layer metric is computed from
_SOURCES = {
    "elements.build_s": ("elements.build",),
    "elements.builds_per_op": ("elements.build",),
    "elements.build_d_max": ("elements.build",),
    "elements.cache_hit_ratio": ("elements.build", "core.apply"),
    "elements.first_op_build_s": ("elements.build",),
    "core.apply_s": ("core.apply",),
    "core.apply_calls_per_op": ("core.apply",),
    "core.apply_gflop_per_op": ("core.apply",),
    "core.apply_gflops": ("core.apply",),
    "engine.execute_s": ("engine.execute",),
    "engine.members_max": ("core.apply",),
    "engine.compact_s": ("engine.compact",),
    "engine.compact_calls_per_op": ("engine.compact",),
    "engine.leak_check_s": ("engine.leak_check",),
    "engine.cutoff_retries_per_op": ("engine.execute",),
    "engine.first_cutoff_kept_ratio": ("engine.execute",),
    "scheme.solve_s": ("scheme.solve",),
    "scheme.executions_per_op": ("scheme.solve", "engine.execute"),
    "dsl.compile_s": ("dsl.compile",),
    "measurement.povm_s": ("measurement.povm",),
    "phasespace.wigner_s": ("phasespace.wigner",),
    "phasespace.wigner_points_per_s": ("phasespace.wigner",),
    "phasespace.fidelity_s": ("phasespace.fidelity",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wrapped: set[str], op_seconds: list[float]) -> dict:
    """Per-layer metrics over the steady ops, plus each layer's self-time share.

    ``op_seconds[i]`` is the wall time of op ``i`` in the traced worker.
    """
    child_ns = defaultdict(int)
    for name, op, parent, start, end, attrs in spans:
        if parent is not None:
            child_ns[parent] += end - start
    busy = defaultdict(float)  # inclusive seconds per span name, steady ops
    self_s = defaultdict(float)
    calls = defaultdict(int)
    first_op_build_s = 0.0
    d_max = 0
    k_max = 0
    flop = 0
    points = 0
    retries = 0
    for i, (name, op, parent, start, end, attrs) in enumerate(spans):
        attrs = attrs or {}
        if name == "elements.build":
            d_max = max(d_max, attrs.get("d", 0))
            if op == 0:
                first_op_build_s += (end - start) * 1e-9
        if op < 1:
            continue
        busy[name] += (end - start) * 1e-9
        self_s[name] += (end - start - child_ns[i]) * 1e-9
        calls[name] += 1
        if name == "core.apply":
            k_max = max(k_max, attrs.get("K", 0))
            flop += attrs.get("flop", 0)
        elif name == "engine.execute":
            retries += attrs.get("used") != attrs.get("planned")
        elif name == "phasespace.wigner":
            points += attrs.get("points", 0)

    steady = op_seconds[1:]
    n = len(steady)
    values = {
        "elements.build_s": busy["elements.build"] / n,
        "elements.builds_per_op": calls["elements.build"] / n,
        "elements.build_d_max": d_max,
        "elements.cache_hit_ratio": 1.0 - _ratio(calls["elements.build"], calls["core.apply"]),
        "elements.first_op_build_s": first_op_build_s,
        "core.apply_s": busy["core.apply"] / n,
        "core.apply_calls_per_op": calls["core.apply"] / n,
        "core.apply_gflop_per_op": flop * 1e-9 / n,
        "core.apply_gflops": _ratio(flop * 1e-9, busy["core.apply"]),
        "engine.execute_s": self_s["engine.execute"] / n,
        "engine.members_max": k_max,
        "engine.compact_s": busy["engine.compact"] / n,
        "engine.compact_calls_per_op": calls["engine.compact"] / n,
        "engine.leak_check_s": busy["engine.leak_check"] / n,
        "engine.cutoff_retries_per_op": retries / n,
        "engine.first_cutoff_kept_ratio": 1.0 - _ratio(retries, calls["engine.execute"]),
        "scheme.solve_s": busy["scheme.solve"] / n,
        "scheme.executions_per_op": _ratio(calls["engine.execute"], calls["scheme.solve"]),
        "dsl.compile_s": busy["dsl.compile"] / n,
        "measurement.povm_s": busy["measurement.povm"] / n,
        "phasespace.wigner_s": busy["phasespace.wigner"] / n,
        "phasespace.wigner_points_per_s": _ratio(points, busy["phasespace.wigner"]),
        "phasespace.fidelity_s": busy["phasespace.fidelity"] / n,
        "trace.coverage_frac": _ratio(sum(self_s.values()), sum(steady)),
    }
    for metric, sources in _SOURCES.items():
        if not all(s in wrapped for s in sources):
            values[metric] = None
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".")[0]] += seconds
    shares = {layer: _ratio(s, sum(steady)) for layer, s in layer_self.items()}
    return {"values": values, "self_share": shares, "steady_ops": n}
