"""Span tracing for traced benchmark passes, recorded from outside the program.

While a `Tracer` is installed, every public module-level function of the
traced `levygibbs` modules is replaced, under every name it is bound to in the
package, by a wrapper that records one span per call.  Two methods carry the
per-block work and are wrapped as well: `BasisSystem.evaluate_all` (span
`basis.evaluate_all`) and `IncrementSeries.iter_chunks`, whose every step is
one `processes.block` span, so block generation inside a streamed fold or a
file write is separated from the consumer's own work.  `uninstall` restores
the originals; untraced passes run the unmodified package.

A span's self time is its duration minus that of its direct children (calls
in one thread never overlap), so the self times of all spans of a pass add up
to the duration of the root span `bench.pass`.  The root's own self time is
the benchmark's glue between calls and is reported as `self_s.unaccounted`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("processes", "basis", "estimator", "posterior", "experiment", "cli")

# (name, unit, better) of every per-layer metric a traced run reports.  A layer
# a workload does not exercise reads 0.
LAYER_METRICS = [
    ("processes.simulate_s", "s", "lower"),
    ("processes.block_ms", "ms", "lower"),
    ("processes.blocks", "count", "lower"),
    ("processes.zero_increments", "count", "lower"),
    ("processes.write_s", "s", "lower"),
    ("processes.write_bytes", "bytes", "lower"),
    ("processes.read_s", "s", "lower"),
    ("processes.read_lines", "count", "lower"),
    ("processes.speedup_2w", "x", "higher"),
    ("basis.evaluate_s", "s", "lower"),
    ("basis.evals", "count", "lower"),
    ("estimator.fold_s", "s", "lower"),
    ("estimator.in_window", "count", "higher"),
    ("estimator.in_window_ratio", "ratio", "higher"),
    ("posterior.marginal_k_s", "s", "lower"),
    ("posterior.sample_s", "s", "lower"),
    ("posterior.draws_per_s", "1/s", "higher"),
    ("posterior.mean_k", "count", "lower"),
    ("posterior.band_s", "s", "lower"),
    ("experiment.run_regime_s.j1", "s", "lower"),
    ("experiment.run_regime_s.j2", "s", "lower"),
    ("experiment.write_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.estimate_s", "s", "lower"),
    ("cli.posterior_s", "s", "lower"),
    ("self_s.processes", "s", "lower"),
    ("self_s.basis", "s", "lower"),
    ("self_s.estimator", "s", "lower"),
    ("self_s.posterior", "s", "lower"),
    ("self_s.experiment", "s", "lower"),
    ("self_s.cli", "s", "lower"),
    ("self_s.trace", "s", "lower"),
    ("self_s.unaccounted", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _mean_k(probs) -> float:
    probs = np.asarray(probs, dtype=float)
    return float(np.arange(1, len(probs) + 1) @ probs)


# Attributes recorded on a span once its call has returned: (bound arguments, result) -> dict.
_ATTRS = {
    "experiment.run_regime": lambda a, r: {"j": int(a["spec"].j)},
    "estimator.empirical_coefficients": lambda a, r: {"scanned": len(a["series"])},
    "basis.evaluate_all": lambda a, r: {"points": int(r.shape[1]), "K": int(r.shape[0])},
    "posterior.marginal_k": lambda a, r: {"mean_k": _mean_k(r.probs)},
    "posterior.sample_posterior": lambda a, r: {"draws": int(a["num_draws"])},
    "processes.write_increments": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "processes.read_increments": lambda a, r: {"values": len(r)},
    "cli.main": lambda a, r: {"command": (a.get("argv") or [""])[0]},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, workload: str, pass_index: int) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "workload": workload,
            "pass": pass_index,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder; `install` patches the package, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def _wrap(self, name: str, fn):
        attrs_fn = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                attrs.update(attrs_fn(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def _wrap_iter_chunks(self, original):
        tracer = self

        @functools.wraps(original)
        def iter_chunks(series):
            generated = not series.materialized
            chunks = original(series)
            while True:
                with tracer.span("processes.block", generated=generated) as attrs:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                attrs["size"] = len(chunk)
                if generated:
                    with tracer.span("trace.count") as counts:
                        counts["zeros"] = int(np.count_nonzero(chunk == 0.0))
                yield chunk

        return iter_chunks

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "levygibbs" or n.startswith("levygibbs.")]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"levygibbs.{short}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        basis_cls = sys.modules["levygibbs.basis"].BasisSystem
        series_cls = sys.modules["levygibbs.processes"].IncrementSeries
        self._patch(basis_cls, "evaluate_all", self._wrap("basis.evaluate_all", basis_cls.evaluate_all))
        self._patch(series_cls, "iter_chunks", self._wrap_iter_chunks(series_cls.iter_chunks))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span is `bench.pass`."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s.name

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str, pred=lambda s: True) -> float:
        return sum(s.duration for s in named(name) if pred(s))

    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for s in spans:
        layer = "unaccounted" if s.name == "bench.pass" else s.name.split(".")[0]
        out[f"self_s.{layer}"] += s.duration - sum(c.duration for c in children[s.id])

    generated = [s for s in named("processes.block") if s.attrs["generated"]]
    blocks = [s for s in generated if s.attrs.get("size")]
    out["processes.simulate_s"] = sum(s.duration for s in generated)
    out["processes.blocks"] = len(blocks)
    out["processes.block_ms"] = 1e3 * out["processes.simulate_s"] / len(blocks) if blocks else 0.0
    out["processes.zero_increments"] = sum(s.attrs["zeros"] for s in named("trace.count"))
    for s in named("processes.write_increments"):
        out["processes.write_s"] += s.duration - sum(c.duration for c in children[s.id])
        out["processes.write_bytes"] += s.attrs["bytes"]
    out["processes.read_s"] = total("processes.read_increments")
    out["processes.read_lines"] = sum(s.attrs["values"] for s in named("processes.read_increments"))

    folds = named("estimator.empirical_coefficients")
    in_fold = [s for s in named("basis.evaluate_all") if "estimator.empirical_coefficients" in ancestors(s)]
    out["basis.evaluate_s"] = sum(s.duration for s in in_fold)
    out["basis.evals"] = sum(s.attrs["K"] * s.attrs["points"] for s in in_fold)
    for s in folds:
        out["estimator.fold_s"] += s.duration - sum(
            c.duration for c in children[s.id] if c.name in ("processes.block", "trace.count")
        )
    out["estimator.in_window"] = sum(s.attrs["points"] for s in in_fold)
    scanned = sum(s.attrs["scanned"] for s in folds)
    out["estimator.in_window_ratio"] = out["estimator.in_window"] / scanned if scanned else 0.0

    out["posterior.marginal_k_s"] = total("posterior.marginal_k")
    out["posterior.sample_s"] = total("posterior.sample_posterior")
    draws = sum(s.attrs["draws"] for s in named("posterior.sample_posterior"))
    out["posterior.draws_per_s"] = draws / out["posterior.sample_s"] if draws else 0.0
    mean_ks = [s.attrs["mean_k"] for s in named("posterior.marginal_k")]
    out["posterior.mean_k"] = float(np.mean(mean_ks)) if mean_ks else 0.0
    out["posterior.band_s"] = total("posterior.credible_band")

    for j in (1, 2):
        out[f"experiment.run_regime_s.j{j}"] = total("experiment.run_regime", lambda s: s.attrs["j"] == j)
    out["experiment.write_s"] = sum(s.duration for s in spans if s.name.startswith("experiment.write_"))
    for command in ("simulate", "estimate", "posterior"):
        out[f"cli.{command}_s"] = total("cli.main", lambda s: s.attrs["command"] == command)

    out["trace.wall_s"] = total("bench.pass")
    out["trace.spans"] = len(spans)
    return out
