"""Spans recorded from outside the program, and the per-layer metrics built from them.

Timing wrappers are installed where callers look the functions up:
``pipeline`` imports ``propose``, ``augment_rotations``, ``embed_patches``,
``save_descriptors``, ``read_pgm`` and ``describe_image`` by name, so those
wrappers go on ``patchkernel.pipeline``; the ``encode``, ``index`` and
``raster`` wrappers go on their module attributes.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "request", "attrs")

    def __init__(self, span_id, name, parent, request):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans with a parent link; one client thread issues the operations.

    Each thread keeps its own stack of open spans, because ``describe_image``
    and ``aggregate`` run in the program's thread pool.  A span opened on a
    pool thread with an empty stack takes as parent the innermost span open
    on the client thread at that moment, so the work it does is charged to
    the call that fanned it out (``run_pipeline``).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []
        self.enabled = True

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._client_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id, name,
            parent.id if parent is not None else None,
            request if request is not None else (parent.request if parent is not None else None),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def operation(self, request):
        """Root span of one client operation; this thread is the client."""
        self._client_stack = self._stack()
        with self.span("bench.op", request=request) as span:
            yield span

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        ``observe(attrs, args, result)`` runs after the span has closed, so
        what it costs (a file stat, a shape read) is not charged to the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if observe is not None:
                observe(span.attrs, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    @contextmanager
    def paused(self):
        """Call through the wrappers without recording (output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(span.as_dict()) + "\n")


def _add(key, value_of):
    def observe(attrs, args, result):
        attrs[key] = attrs.get(key, 0) + value_of(args, result)
    return observe


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _observe_propose(attrs, args, result):
    img = args[0]
    attrs["patches"] = len(result)
    last = result[-1] if result else None
    # The proposer appends the full frame when fewer than n windows survive NMS.
    attrs["fallback"] = int(
        last is not None and (last.x, last.y, last.w, last.h) == (0, 0, img.width, img.height)
    )


def _observe_gmm(attrs, args, result):
    from patchkernel import encode

    data, components = args[0], args[1]
    history = result.log_likelihoods
    attrs["iterations"] = len(history)
    attrs["n"], attrs["dim"] = data.shape
    attrs["components"] = components
    # The program's own stopping rule, re-applied to the recorded trace.
    attrs["converged"] = int(
        len(history) >= 2 and history[-1] - history[-2] < encode.EM_REL_TOL * abs(history[-2])
    )


def _observe_search(attrs, args, result):
    idx = args[0]
    attrs["rows"] = len(idx)
    attrs["matrix_bytes"] = len(idx) * (idx.dim or 0) * 4
    attrs["results"] = len(result)


def install_layers(tracer: Tracer) -> None:
    """Put a timing wrapper on every public function the layers expose."""
    from patchkernel import encode, index, pipeline, raster

    wrap = tracer.wrap
    wrap(raster, "read_pgm", "raster.read_pgm")
    wrap(pipeline, "read_pgm", "raster.read_pgm")
    wrap(pipeline, "propose", "proposals.propose", _observe_propose)
    wrap(pipeline, "augment_rotations", "proposals.rotate")
    wrap(pipeline, "embed_patches", "embed.embed", _add("rasters", lambda a, r: len(r)))
    wrap(pipeline, "save_descriptors", "embed.save", _add("bytes", _file_bytes))
    wrap(pipeline, "describe_image", "pipeline.describe")
    wrap(pipeline, "run_pipeline", "pipeline.run")
    wrap(pipeline, "evaluate_index", "evaluation.evaluate", _add("queries", lambda a, r: len(r[0])))
    wrap(encode, "pca_train", "encode.pca_train")
    wrap(encode, "gmm_train", "encode.gmm_train", _observe_gmm)
    wrap(encode, "pca_project", "encode.pca_project")
    wrap(encode, "aggregate", "encode.aggregate", _add("descriptors", lambda a, r: len(a[1])))
    wrap(encode, "load_model", "encode.load_model")
    wrap(index, "build", "index.build")
    wrap(index, "save", "index.save", _add("bytes", _file_bytes))
    wrap(index, "load", "index.load")
    wrap(index, "search", "index.search", _observe_search)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if e > span.start and s < span.end
        ]
        out[span.id] = span.duration - _union(clipped)
    return out


def layer_metrics(spans: list[Span], overhead_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer values from the spans, named as in BENCHMARK.json's per_layer list.

    A layer the workload never calls reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    selfs = self_times(spans)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    describe = by_name.get("pipeline.describe", [])
    describe_wall = _union((s.start, s.end) for s in describe)
    gmm = by_name.get("encode.gmm_train", [])
    gmm_s = busy("encode.gmm_train")
    iterations = attr("encode.gmm_train", "iterations")
    em_flops = sum(
        8.0 * s.attrs["n"] * s.attrs["components"] * s.attrs["dim"] * s.attrs["iterations"]
        for s in gmm
    )
    search_s = busy("index.search")

    values = {
        "raster.read_pgm_ms": 1000.0 * busy("raster.read_pgm"),
        "proposals.propose_s": busy("proposals.propose"),
        "proposals.propose_calls": calls("proposals.propose"),
        "proposals.patches_per_image": ratio(
            attr("proposals.propose", "patches"), calls("proposals.propose")
        ),
        "proposals.fallback_frames": attr("proposals.propose", "fallback"),
        "proposals.rotate_s": busy("proposals.rotate"),
        "proposals.rotate_calls": calls("proposals.rotate"),
        "embed.embed_s": busy("embed.embed"),
        "embed.embed_calls": calls("embed.embed"),
        "embed.rasters": attr("embed.embed", "rasters"),
        "embed.save_s": busy("embed.save"),
        "embed.kdesc_bytes": attr("embed.save", "bytes"),
        "pipeline.describe_busy_s": busy("pipeline.describe"),
        "pipeline.describe_wall_s": describe_wall,
        "pipeline.describe_self_s": sum(selfs[s.id] for s in describe),
        "pipeline.describe_parallelism": ratio(busy("pipeline.describe"), describe_wall),
        "pipeline.self_s": sum(selfs[s.id] for s in by_name.get("pipeline.run", ())),
        "encode.pca_train_s": busy("encode.pca_train"),
        "encode.gmm_train_s": gmm_s,
        "encode.em_iterations": iterations,
        "encode.em_converged": attr("encode.gmm_train", "converged"),
        "encode.em_ms_per_iter": ratio(1000.0 * gmm_s, iterations),
        "encode.em_gflops": ratio(em_flops / 1e9, gmm_s),
        "encode.train_descriptors": attr("encode.gmm_train", "n"),
        "encode.pca_project_s": busy("encode.pca_project"),
        "encode.aggregate_s": busy("encode.aggregate"),
        "encode.aggregate_calls": calls("encode.aggregate"),
        "encode.descriptors_aggregated": attr("encode.aggregate", "descriptors"),
        "encode.load_model_s": busy("encode.load_model"),
        "index.build_s": busy("index.build"),
        "index.save_s": busy("index.save"),
        "index.kidx_bytes": attr("index.save", "bytes"),
        "index.load_s": busy("index.load"),
        "index.search_s": search_s,
        "index.search_calls": calls("index.search"),
        "index.rows_scored": attr("index.search", "rows"),
        "index.results_returned": attr("index.search", "results"),
        "index.scan_gbps": ratio(attr("index.search", "matrix_bytes") / 1e9, search_s),
        "evaluation.evaluate_s": busy("evaluation.evaluate"),
        "evaluation.queries": attr("evaluation.evaluate", "queries"),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": ratio(overhead_s, untraced_s),
        "trace.spans": len(spans),
    }
    return values
