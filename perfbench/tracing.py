"""Spans around calls into fermisep's public functions, recorded from outside.

Tracer.install() replaces every public function of the traced modules, in
every fermisep namespace that binds it, with a wrapper that records a span
(name, start, end, parent, operation). It also wraps OrbitalBasisIndex.tuples
and numpy.linalg.eigvalsh, and splits rdm.compute_rdm into its first call per
(d, n) in the process (cold, with the peak-RSS growth across it) and later
calls (warm). Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter_ns

MODULES = ("cli", "states", "basis", "rdm", "spectral", "separability", "reporting")
SETUP = -1
ESBL = "separability.esbl_check"


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, op), where op is
        # SETUP outside the timed operations and 0 within them.
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.cold_rss_mb: list[float] = []
        self.op = SETUP
        self._stack: list[int] = []
        self._cold_seen: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter_ns(), parent, self.op)
                stack.pop()

        return traced

    def _compute_rdm(self, fn):
        cold, warm = self._wrap("rdm.compute_rdm_cold", fn), self._wrap("rdm.compute_rdm_warm", fn)

        @functools.wraps(fn)
        def traced(state, *args, **kwargs):
            key = (state.d, state.n)
            if key in self._cold_seen:
                return warm(state, *args, **kwargs)
            self._cold_seen.add(key)
            before = max_rss_mb()
            try:
                return cold(state, *args, **kwargs)
            finally:
                self.cold_rss_mb.append(max_rss_mb() - before)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Route calls through span-recording wrappers until uninstall()."""
        import numpy

        package = importlib.import_module("fermisep")
        modules = {m: importlib.import_module(f"fermisep.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self._compute_rdm(fn) if name == "rdm.compute_rdm" else self._wrap(name, fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapped)
        basis_index = modules["basis"].OrbitalBasisIndex
        self._patch(basis_index, "tuples", self._wrap("basis.tuples", basis_index.tuples))
        self._patch(numpy.linalg, "eigvalsh", self._wrap("spectral.eigh", numpy.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span timed by the caller, such as an import."""
        self.spans.append((name, start_ns, end_ns, -1, self.op))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "cold_rss_mb": self.cold_rss_mb}))


def ancestors(spans, index):
    """Names of the spans enclosing spans[index], innermost first."""
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _load_child_spans(spans_dir: Path | None):
    """Spans the traced command-line children wrote.

    A child's file is named ``op-<i>.json`` for a timed operation and
    ``setup-<step>.json`` otherwise.
    """
    if spans_dir is None:
        return
    for path in sorted(spans_dir.glob("*.json")):
        op = 0 if path.name.startswith("op-") else SETUP
        doc = json.loads(path.read_text())
        yield [(name, start, end, parent, op) for name, start, end, parent, _ in doc["spans"]], doc["cold_rss_mb"]


def layer_metrics(tracer: Tracer, spans_dir: Path | None, ops: int) -> dict:
    """Per-layer figures from one traced run of ``ops`` operations.

    For each span name X: ``X_ms`` is the median duration of its calls during
    the traced operations, or of its set-up calls when the operations make
    none (the cold build of an in-process workload, ``states.save_state`` of
    cli-analyze); ``X_calls`` is its calls per operation, except that
    ``spectral.eigh_calls`` is eigvalsh calls per analyze call. Calls made
    inside esbl_check count only in esbl_check's own time, so that every other
    layer shows the workload's own (d, n) and not that of the projected
    states. ``rdm.cold_rss_mb`` is the largest peak-RSS growth across a cold
    build.
    """
    groups = [(tracer.spans, tracer.cold_rss_mb), *_load_child_spans(spans_dir)]
    timed: dict[str, list[float]] = {}
    setup: dict[str, list[float]] = {}
    cold_rss: list[float] = []
    for spans, rss in groups:
        cold_rss += rss
        for index, (name, start, end, _, op) in enumerate(spans):
            if ESBL in ancestors(spans, index):
                continue
            (timed if op >= 0 else setup).setdefault(name, []).append((end - start) / 1e6)
    out = {f"{name}_ms": statistics.median(values) for name, values in {**setup, **timed}.items()}
    out.update({f"{name}_calls": len(values) / ops for name, values in timed.items()})
    if "separability.analyze" in timed:
        out["spectral.eigh_calls"] = len(timed.get("spectral.eigh", [])) / len(timed["separability.analyze"])
    if cold_rss:
        out["rdm.cold_rss_mb"] = max(cold_rss)
    return out
