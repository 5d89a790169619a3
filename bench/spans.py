"""Spans around calls into the nsverify layers, installed from outside.

:func:`instrument` replaces every module-level binding of a layer's public
function (``from .spectral import phys_to_spec`` in ``dynamics`` binds its
own name, so each importing module is patched) and the two ``RecordsBuilder``
methods with wrappers that record a span per call. Spans nest: a span's
self time is its duration minus the time of the spans it encloses.

Transforms and projections are charged to the innermost open layer span
(``dynamics`` for ``simulate``, ``weak`` for ``weak_residual``, ``ledger``
for ``RecordsBuilder.feed``/``finish``, ``fields`` for ``generate``; calls
outside all of them go to ``other``, which is not reported), so the same
transform is counted separately for each layer that calls it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

CALLER_LAYERS = ("dynamics", "ledger", "weak", "fields")

# spectral entry point -> transform kind; the *_forward/_inverse field
# wrappers count as transforms of their samples/coefficients
_SPECTRAL = {
    "phys_to_spec": "forward",
    "transform_forward": "forward",
    "spec_to_phys": "inverse",
    "transform_inverse": "inverse",
    "leray_project": "leray",
}


class Tracer:
    """In-memory span totals: seconds, self seconds and call counts."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._children: list[float] = []
        self._layers: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        self._children.append(0.0)
        if layer is not None:
            self._layers.append(layer)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if layer is not None:
                self._layers.pop()
            child = self._children.pop()
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - child
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def layer(self, default: str) -> str:
        return self._layers[-1] if self._layers else default


class NullTracer:
    """Stand-in for untraced passes: spans cost one attribute lookup."""

    def span(self, name: str, layer: str | None = None):
        return contextlib.nullcontext()


def _points(kind: str, arg) -> int:
    """Grid points produced or consumed by one transform call."""
    if kind == "leray":
        return 0
    for attr in ("samples", "coeffs"):
        if hasattr(arg, attr):
            return int(getattr(arg, attr).size)
    return int(arg.size)


def instrument(tracer: Tracer):
    """Install span wrappers on the nsverify layers; returns an undo callable."""
    from nsverify import cutoffs, dynamics, fields, harness, ledger, spectral

    # modules that bind layer functions; spectral's calls to its own
    # functions are not calls between layers
    modules = (harness, dynamics, ledger, fields, cutoffs)
    wrappers = {}  # id of the original function -> its wrapper

    for fn_name, kind in _SPECTRAL.items():
        original = getattr(spectral, fn_name)

        def spectral_wrapper(arg, *args, _fn=original, _kind=kind, **kwargs):
            layer = tracer.layer("other")
            with tracer.span(f"spectral.{_kind}.{layer}"):
                out = _fn(arg, *args, **kwargs)
            tracer.counts[f"spectral.points.{layer}"] += _points(_kind, arg)
            return out

        wrappers[id(original)] = spectral_wrapper

    def plain(name, layer, original):
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return original(*args, **kwargs)

        return wrapper

    simulate = dynamics.simulate

    def traced_simulate(*args, **kwargs):
        gen = simulate(*args, **kwargs)
        while True:
            with tracer.span("dynamics.simulate", "dynamics"):
                try:
                    snap = next(gen)
                except StopIteration:
                    return
            yield snap

    weight_tables = cutoffs.weight_tables

    def traced_weight_tables(r, alpha):
        with tracer.span("cutoffs.weight_tables"):
            out = weight_tables(r, alpha)
        tracer.counts["cutoffs.weight_points"] += int(r.size)
        return out

    for original, wrapper in (
        (simulate, traced_simulate),
        (dynamics.weak_residual,
         plain("dynamics.weak_residual", "weak", dynamics.weak_residual)),
        (fields.generate, plain("fields.generate", "fields", fields.generate)),
        (weight_tables, traced_weight_tables),
    ):
        wrappers[id(original)] = wrapper

    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    builder = ledger.RecordsBuilder
    for method in ("feed", "finish"):
        original = getattr(builder, method)
        setattr(builder, method, plain(f"ledger.{method}", "ledger", original))
        undo.append((builder, method, original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from one traced pass."""
    out = {}
    for kind in ("forward", "inverse", "leray"):
        for layer in CALLER_LAYERS:
            span = f"spectral.{kind}.{layer}"
            out[f"spectral.{kind}_calls.{layer}"] = tracer.calls[span]
            out[f"spectral.{kind}_s.{layer}"] = tracer.seconds[span]
    for layer in CALLER_LAYERS:
        out[f"spectral.points_transformed.{layer}"] = tracer.counts[
            f"spectral.points.{layer}"
        ]
    out["dynamics.simulate_s"] = tracer.seconds["dynamics.simulate"]
    out["dynamics.simulate_self_s"] = tracer.self_seconds["dynamics.simulate"]
    # each integrator tendency evaluation ends in exactly one projection
    out["dynamics.tendency_evals"] = tracer.calls["spectral.leray.dynamics"]
    out["dynamics.weak_residual_s"] = tracer.seconds["dynamics.weak_residual"]
    out["ledger.feed_s"] = tracer.seconds["ledger.feed"]
    out["ledger.feed_self_s"] = tracer.self_seconds["ledger.feed"]
    out["ledger.finish_s"] = tracer.seconds["ledger.finish"]
    out["ledger.checks_s"] = tracer.seconds["ledger.checks"]
    out["ledger.write_s"] = tracer.seconds["ledger.write"]
    out["cutoffs.weight_tables_s"] = tracer.seconds["cutoffs.weight_tables"]
    out["cutoffs.weight_points"] = tracer.counts["cutoffs.weight_points"]
    out["fields.generate_s"] = tracer.seconds["fields.generate"]
    return out
