"""Span tracing around medtriplet's public functions, applied from outside.

The package binds its callees with ``from .x import y``, so a wrapper has
to replace the name inside the *calling* module (``medtriplet.mining.score``,
not ``medtriplet.scoring.score``). :func:`traced` installs every wrapper in
:data:`LAYER_PATCHES` for the duration of a ``with`` block and restores the
originals afterwards, so an untraced run in the same process sees the
unmodified package.

Spans are aggregated in memory rather than stored one by one: the desk
workload makes ~640 thousand ``cosine`` calls. Each span still records its
parent, which gives per-name self time (duration minus child spans) and a
parent/child call tree that is printed when the benchmark ends.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass
class Tracer:
    """Aggregated perf_counter spans keyed by name, with parent links.

    ``edges`` holds the same statistics per (name, parent span), so a count
    can be read for one caller (e.g. ``cosine`` calls made by
    ``retrieval_report``, not by zero-shot classification). Spans wrapped
    with ``keep_samples=True`` also keep every call's (start, duration) in
    ``samples``.
    """

    spans: dict[str, SpanStats] = field(default_factory=dict)
    edges: dict[tuple[str, str | None], SpanStats] = field(default_factory=dict)
    distinct: dict[str, set] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None, keep_samples: bool = False) -> Callable:
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.seconds += dt
                stats.child_seconds += frame[1]
                edge = self.edges.setdefault((name, parent[0] if parent is not None else None), SpanStats())
                edge.calls += 1
                edge.seconds += dt
                edge.child_seconds += frame[1]
                if keep_samples:
                    self.samples.setdefault(name, []).append((t0, dt))
            if observe is not None:
                observe(self, args, kwargs, result)
            if parent is not None:
                # The whole wrapper, bookkeeping and observer included, counts
                # as child time, so tracing cost stays out of the parent's self time.
                parent[1] += clock() - entered
            return result

        return wrapper

    def see(self, name: str, key: Any) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def useful_ratio(self, name: str) -> float:
        calls = self.calls(name)
        return len(self.distinct.get(name, ())) / calls if calls else 0.0

    def tree_lines(self) -> list[str]:
        """One line per (parent, span) edge, roots first, then by name."""
        return [
            f"  {parent or '<root>':>36} -> {name:<36} calls={s.calls:<9d} "
            f"total_s={s.seconds:.4f} self_s={s.self_seconds:.4f}"
            for (name, parent), s in sorted(self.edges.items(), key=lambda kv: (kv[0][1] or "", kv[0][0]))
        ]


def _observe_extract(tracer: Tracer, args, kwargs, result) -> None:
    report = args[0]
    tracer.see("extraction.extract", (report.id, report.text))


def _observe_score(tracer: Tracer, args, kwargs, result) -> None:
    tracer.see("scoring.score", frozenset(args[:2]))


def _observe_mine_batch(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("mining.anchors", len(args[0]))
    tracer.add("mining.returned", len(result))


def _observe_load_image(tracer: Tracer, args, kwargs, result) -> None:
    tracer.see("images.load_image", os.fspath(args[0]))


def _observe_trunk_encode(tracer: Tracer, args, kwargs, result) -> None:
    sample = args[0]
    ids = getattr(sample, "ids", None)
    key = ("text", ids) if ids is not None else ("image", sample.pixels.tobytes())
    tracer.see("encoder.trunk_encode", key)


def _observe_save_checkpoint(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


def _observe_sha256(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("pipeline.sha256_file.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, observer). The module is the one that
# *calls* the function; see the module docstring.
LAYER_PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("medtriplet.extraction", "lemmatize", "lemma.lemmatize", None),
    ("medtriplet.encoder", "lemmatize", "lemma.lemmatize", None),
    ("medtriplet.pipeline", "extract", "extraction.extract", _observe_extract),
    ("medtriplet.mining", "score", "scoring.score", _observe_score),
    ("medtriplet.mining", "mine_batch", "mining.mine_batch", _observe_mine_batch),
    ("medtriplet.pipeline", "load_image", "images.load_image", _observe_load_image),
    ("medtriplet.pipeline", "tokenize_text", "encoder.tokenize_text", None),
    ("medtriplet.pipeline", "trunk_encode", "encoder.trunk_encode", _observe_trunk_encode),
    ("medtriplet.alignment", "head_gradients", "alignment.head_gradients", None),
    ("medtriplet.pipeline", "train_heads", "alignment.train_heads", None),
    ("medtriplet.evaluation", "cosine", "evaluation.cosine", None),
    ("medtriplet.pipeline", "retrieval_report", "evaluation.retrieval_report", None),
    ("medtriplet.pipeline", "zero_shot_classify", "evaluation.zero_shot_classify", None),
    ("medtriplet.pipeline", "classification_metrics", "evaluation.classification_metrics", None),
    ("medtriplet.pipeline", "save_checkpoint", "checkpoint.save_checkpoint", _observe_save_checkpoint),
    ("medtriplet.pipeline", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("medtriplet.pipeline", "ingest", "corpus.ingest", None),
    ("medtriplet.pipeline", "read_entities", "corpus.read_entities", None),
    ("medtriplet.pipeline", "write_entities", "corpus.write_entities", None),
    ("medtriplet.pipeline", "sha256_file", "pipeline.sha256_file", _observe_sha256),
)


@contextmanager
def patched(replacements: list[tuple[Any, str, Any]]):
    """Set ``obj.attr = value`` (or ``obj[attr] = value`` for dicts) and undo on exit."""
    saved = []
    try:
        for obj, attr, value in replacements:
            if isinstance(obj, dict):
                saved.append((obj, attr, obj[attr]))
                obj[attr] = value
            else:
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper on every layer in LAYER_PATCHES plus ``Adam.step``."""
    from medtriplet import alignment

    replacements = []
    for module_name, attr, span, observer in LAYER_PATCHES:
        module = importlib.import_module(module_name)
        replacements.append((module, attr, tracer.wrap(getattr(module, attr), span, observer)))
    replacements.append((alignment.Adam, "step", tracer.wrap(alignment.Adam.step, "alignment.Adam.step")))
    with patched(replacements):
        yield tracer
