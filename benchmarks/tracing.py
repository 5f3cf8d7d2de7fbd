"""Spans around the public calls of delayheom, recorded from outside the package.

A :class:`Tracer` swaps selected module attributes of the program for thin
wrappers while a traced pass runs (:meth:`Tracer.installed`), and puts the
originals back afterwards.  The program looks those attributes up at call
time (``engine.run``, ``cli.load_config``, ...), so the traced pass runs the
same code path as an untraced one, with each call recorded as a span: name,
start, end, parent span and operation id.  Spans stay in memory;
:func:`layer_metrics` turns the spans of one pass into per-layer numbers,
using self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from delayheom import cli, engine, models, oracle


def _steps_of(result):
    return {"steps": len(result.times) - 1}


# (module, attribute, span name, what to record from args/kwargs/result)
_TARGETS = (
    (cli, "main", "cli.main", lambda a, kw, r: {"code": r}),
    (cli, "read_config_file", "cli.read_config_file", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "write_csv", "cli.write_csv", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    # cli binds the name at import, so the binding inside cli is the one to wrap
    (cli, "derive_cavity_params", "qnm.derive_cavity_params", None),
    (models, "build_single_excitation", "models.build", None),
    (models, "build_two_photon", "models.build", None),
    (engine, "HierarchyIntegrator", "engine.construct",
     lambda a, kw, r: {"band_bytes": int(r.buffer.data.nbytes)}),
    (engine, "run", "engine.run",
     lambda a, kw, r: {"steps": r.n_steps, "K": r.steps_per_delay}),
    (oracle, "run_wavefunction", "oracle.wavefunction", lambda a, kw, r: _steps_of(r)),
    (oracle, "run_discretized_bath", "oracle.bath", lambda a, kw, r: _steps_of(r)),
)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.passes = 0

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "pass": self.passes,
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, op):
        """Root span of one benchmark operation."""
        self.op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.op = None

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span["error"] = type(e).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of one traced pass."""
        self.passes += 1
        saved = []
        try:
            for module, attr, name, note in _TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def split_passes(spans):
    """The spans of each traced pass, in order."""
    passes = {}
    for s in spans:
        passes.setdefault(s["pass"], []).append(s)
    return list(passes.values())


def self_times(spans):
    """Duration of each span minus the time covered by its direct children.

    Calls are sequential (one thread), so children never overlap and the
    covered time is the sum of their durations.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans, engine_ks):
    """Per-layer metrics of one traced pass (see ``benchmarks/README.md``)."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(own[s["id"]] for s in named(name))

    runs = named("engine.run")
    metrics = {
        "cli.load_s": (busy("cli.read_config_file") + busy("cli.load_config"), "s"),
        "cli.ops": (len(named("cli.main")), "count"),
        "cli.write_s": (busy("cli.write_csv"), "s"),
        "cli.write_mb": (sum(s.get("bytes", 0) for s in named("cli.write_csv")) / 1e6, "MB"),
        "cli.main_self_s": (busy("cli.main"), "s"),
        "cli.errors": (sum(1 for s in named("cli.main") if s.get("code", 1) != 0), "count"),
        "qnm.derive_s": (busy("qnm.derive_cavity_params"), "s"),
        "qnm.calls": (len(named("qnm.derive_cavity_params")), "count"),
        "models.build_s": (busy("models.build"), "s"),
        "models.builds": (len(named("models.build")), "count"),
        "engine.construct_s": (busy("engine.construct"), "s"),
        "engine.run_s": (busy("engine.run"), "s"),
        "engine.steps": (sum(s.get("steps", 0) for s in runs), "count"),
    }
    for k in engine_ks:
        at_k = [s for s in runs if s.get("K") == k]
        steps = sum(s["steps"] for s in at_k)
        per_step = sum(own[s["id"]] for s in at_k) / steps * 1e6 if steps else 0.0
        metrics[f"engine.us_per_step.K{k}"] = (per_step, "us/step")
    band = [s["band_bytes"] for s in named("engine.construct") if "band_bytes" in s]
    bath = named("oracle.bath")
    bath_steps = sum(s.get("steps", 0) for s in bath)
    metrics.update({
        "engine.band_mb": (max(band, default=0) / 1e6, "MB"),
        "engine.errors": (
            sum(1 for s in runs if s.get("error") == "NonFiniteStateError"), "count"),
        "oracle.wavefunction_s": (busy("oracle.wavefunction"), "s"),
        "oracle.bath_s": (busy("oracle.bath"), "s"),
        "oracle.bath_us_per_step": (
            busy("oracle.bath") / bath_steps * 1e6 if bath_steps else 0.0, "us/step"),
        "oracle.steps": (
            sum(s.get("steps", 0) for s in named("oracle.wavefunction") + bath), "count"),
    })
    return metrics
