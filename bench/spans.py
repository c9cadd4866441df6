"""Span tracing around the calls into g2glue's layers.

``Tracer.install`` replaces the public functions listed in ``FUNCTIONS``
and ``METHODS`` with wrappers that record a span per call: name, layer,
start and end on ``time.perf_counter``, parent span and run id.  It also
wraps ``sympy.lambdify``, ``sympy.simplify`` and numpy's real FFTs to
count their calls, attributed to the innermost enclosing layer span.
Spans stay in memory; ``write_jsonl`` writes them out once the run ends,
and ``summary`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np
import sympy

LAYERS = ("forms", "torus", "eguchi_hanson", "kummer", "cone")

# (module, function, metric stem, batch-size function or None)
FUNCTIONS = (
    ("forms", "theta", "forms.theta", lambda a, k: _batch(a[0])),
    ("forms", "metric_from_g2", "forms.metric_from_g2", None),
    ("forms", "hodge_star", "forms.hodge_star", None),
    ("forms", "inner_product", "forms.inner_product", None),
    ("forms", "wedge", "forms.wedge", None),
    ("torus", "solve", "torus.solve", None),
    ("torus", "make_model_problem", "torus.make_model_problem", None),
    ("torus", "picard_step", "torus.picard_step", None),
    ("torus", "residual", "torus.residual", None),
    ("eguchi_hanson", "radial_distance_many",
     "eguchi_hanson.radial_distance_many", lambda a, k: np.size(a[1])),
    ("kummer", "torsion_form", "kummer.torsion_form",
     lambda a, k: np.size(a[1])),
    ("kummer", "glued_structure", "kummer.glued_structure", None),
    ("kummer", "torsion_decay_fit", "kummer.torsion_decay_fit", None),
    ("kummer", "positivity_threshold", "kummer.positivity_threshold", None),
    ("kummer", "closedness_residual", "kummer.closedness_residual", None),
    ("cone", "harmonic_oracle_r4", "cone.harmonic_oracle_r4", None),
    ("cone", "s3_function_spectrum_check", "cone.s3_function_spectrum_check",
     None),
    ("cone", "critical_rates", "cone.critical_rates", None),
    ("cone", "jk_rate_bound", "cone.jk_rate_bound", None),
)

# (module, class, method, metric stem)
METHODS = tuple(
    ("torus", "SpectralOps", m, "torus.spectral_ops")
    for m in ("d", "delta", "laplacian", "inv_laplacian", "band_limit",
              "mean_zero")
) + (
    ("eguchi_hanson", "RadialForm", "evaluate_onb",
     "eguchi_hanson.evaluate_onb"),
    ("eguchi_hanson", "RadialForm", "d", "eguchi_hanson.radialform_d"),
    ("eguchi_hanson", "RadialForm", "is_zero", "eguchi_hanson.is_zero"),
)


def _batch(form) -> int:
    return int(np.prod(form.coeffs.shape[1:], dtype=np.int64))


class Tracer:
    """Records spans and library-call counts for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _layer_now(self) -> str:
        return self.spans[self._stack[-1]]["layer"] if self._stack else "none"

    def _span_wrapper(self, stem: str, fn, work=None):
        layer = stem.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": stem, "layer": layer,
                   "parent": self._stack[-1] if self._stack else None,
                   "run": self.run_id,
                   "work": work(args, kwargs) if work else None,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _count_wrapper(self, what: str, fn, nbytes=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self._layer_now()
            out = fn(*args, **kwargs)
            self.counts[f"{layer}.{what}.calls"] += 1
            if nbytes:
                self.counts[f"{layer}.{what}.bytes"] += (
                    np.asarray(args[0]).nbytes + out.nbytes)
            return out
        return wrapper

    # -- installation ---------------------------------------------------
    def _setattr(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Wrap the traced functions in every g2glue module that binds
        them, so calls through ``from .forms import theta`` are seen."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "g2glue" or n.startswith("g2glue.")]
        for mod, name, stem, work in FUNCTIONS:
            orig = getattr(sys.modules[f"g2glue.{mod}"], name)
            wrapped = self._span_wrapper(stem, orig, work)
            for m in modules:
                if getattr(m, name, None) is orig:
                    self._setattr(m, name, wrapped)
        for mod, cls_name, meth, stem in METHODS:
            cls = getattr(sys.modules[f"g2glue.{mod}"], cls_name)
            self._setattr(cls, meth,
                          self._span_wrapper(stem, getattr(cls, meth)))
        self._setattr(sympy, "lambdify",
                      self._count_wrapper("lambdify", sympy.lambdify))
        self._setattr(sympy, "simplify",
                      self._count_wrapper("simplify", sympy.simplify))
        for fft in ("rfftn", "irfftn"):
            self._setattr(np.fft, fft, self._count_wrapper(
                "fft", getattr(np.fft, fft), nbytes=True))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"run": self.run_id,
                                 "counts": dict(self.counts)}) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics: calls, work and time per span name (time of
        the outermost span of each name only, so recursion is not counted
        twice), self time per layer and the library-call counts."""
        spans = self.spans
        dur = [s["end"] - s["start"] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s["parent"] is not None:
                child_time[s["parent"]] += d
        calls, work, total, firsts = Counter(), Counter(), Counter(), {}
        self_by_layer = Counter({layer: 0.0 for layer in LAYERS})
        for s, d, c in zip(spans, dur, child_time):
            name = s["name"]
            calls[name] += 1
            if s["work"] is not None:
                work[name] += s["work"]
            self_by_layer[s["layer"]] += d - c
            firsts.setdefault(name, d)
            p = s["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if p is None:
                total[name] += d
        return {"calls": calls, "work": work, "seconds": total,
                "first_seconds": firsts, "self_seconds": self_by_layer,
                "counts": self.counts}


def per_layer_metrics(summary: dict) -> dict:
    """The named per-layer metrics (value only) from ``Tracer.summary``."""
    calls, work = summary["calls"], summary["work"]
    sec, counts = summary["seconds"], summary["counts"]
    theta_s = sec["forms.theta"]
    first = summary["first_seconds"].get("torus.picard_step", 0.0)
    out = {
        "forms.theta.calls": calls["forms.theta"],
        "forms.theta.points": work["forms.theta"],
        "forms.theta.s": theta_s,
        "forms.theta.points_per_s":
            work["forms.theta"] / theta_s if theta_s > 0 else 0.0,
        "forms.metric_from_g2.calls": calls["forms.metric_from_g2"],
        "forms.metric_from_g2.s": sec["forms.metric_from_g2"],
        "forms.hodge_star.calls": calls["forms.hodge_star"],
        "forms.hodge_star.s": sec["forms.hodge_star"],
        "forms.inner_product.s": sec["forms.inner_product"],
        "forms.wedge.s": sec["forms.wedge"],
        "torus.make_model_problem.s": sec["torus.make_model_problem"],
        "torus.picard_step.calls": calls["torus.picard_step"],
        "torus.picard_step.first_s": first,
        "torus.picard_step.rest_s": sec["torus.picard_step"] - first,
        "torus.residual.s": sec["torus.residual"],
        "torus.spectral_ops.calls": calls["torus.spectral_ops"],
        "torus.spectral_ops.s": sec["torus.spectral_ops"],
        "torus.fft.calls": counts["torus.fft.calls"],
        "torus.fft.bytes": counts["torus.fft.bytes"],
        "eguchi_hanson.evaluate_onb.calls":
            calls["eguchi_hanson.evaluate_onb"],
        "eguchi_hanson.evaluate_onb.s": sec["eguchi_hanson.evaluate_onb"],
        "eguchi_hanson.lambdify.calls": counts["eguchi_hanson.lambdify.calls"],
        "eguchi_hanson.simplify.calls": counts["eguchi_hanson.simplify.calls"],
        "eguchi_hanson.radialform_d.s": sec["eguchi_hanson.radialform_d"],
        "eguchi_hanson.is_zero.s": sec["eguchi_hanson.is_zero"],
        "eguchi_hanson.radial_distance_many.radii":
            work["eguchi_hanson.radial_distance_many"],
        "eguchi_hanson.radial_distance_many.s":
            sec["eguchi_hanson.radial_distance_many"],
        "kummer.torsion_form.calls": calls["kummer.torsion_form"],
        "kummer.torsion_form.points": work["kummer.torsion_form"],
        "kummer.torsion_form.s": sec["kummer.torsion_form"],
        "kummer.glued_structure.s": sec["kummer.glued_structure"],
        "kummer.torsion_decay_fit.s": sec["kummer.torsion_decay_fit"],
        "kummer.positivity_threshold.s": sec["kummer.positivity_threshold"],
        "kummer.closedness_residual.s": sec["kummer.closedness_residual"],
        "cone.harmonic_oracle_r4.calls": calls["cone.harmonic_oracle_r4"],
        "cone.harmonic_oracle_r4.s": sec["cone.harmonic_oracle_r4"],
        "cone.simplify.calls": counts["cone.simplify.calls"],
        "cone.s3_function_spectrum_check.s":
            sec["cone.s3_function_spectrum_check"],
        "cone.critical_rates.s": sec["cone.critical_rates"],
        "cone.jk_rate_bound.s": sec["cone.jk_rate_bound"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["self_seconds"][layer]
    return out
