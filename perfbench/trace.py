"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program.  A traced run replaces each
layer's function with a wrapper that records a :class:`Span` (name,
start, end, parent, request id) and calls the original; leaving the
:func:`patched` block puts every original back.  A function imported by
name into another module (``from repro.radar.range_processing import
estimate_range_zoom``) is bound there too, so the wrapper is installed at
every module-level binding, not only where the function is defined.

Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# A failed or rejected request misses every latency limit; it enters the
# latency samples as the benchmark's per-run deadline.
FAILED_LATENCY_S = 180.0

# A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    span_id: int
    parent_id: "int | None"
    name: str
    start: float
    end: float
    request_id: "str | None"
    #: ``"ok"`` or the name of the exception the call raised.
    outcome: str = "ok"
    #: Work the call carried (frames, bytes), as the layer counts it.
    size: int = 0
    #: ``id()`` of the object the call is about (queue-wait matching).
    key: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> "list[tuple[int, str | None]]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self) -> "str | None":
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, *, request_id: "str | None" = None, key: int = 0):
        """Record the enclosed block as a span (re-raises what it raises).

        Yields a dict; a ``"size"`` set in it is stored on the span.
        """
        stack = self._stack()
        parent_id, inherited = stack[-1] if stack else (None, None)
        request_id = request_id if request_id is not None else inherited
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        box = {"size": 0}
        outcome = "ok"
        start = time.perf_counter()
        try:
            yield box
        except BaseException as error:
            outcome = type(error).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, parent_id, name, start, end, request_id,
                outcome, box["size"], key,
            ))

    def wrap(self, name: str, func: Callable, *,
             size_of: "Callable[..., int] | None" = None,
             key_of: "Callable[..., int] | None" = None,
             request_of: "Callable[..., str | None] | None" = None,
             ) -> Callable:
        """``func`` with every call recorded as a span named ``name``.

        ``size_of(args, kwargs, result)``, ``key_of(args, kwargs)`` and
        ``request_of(args, kwargs)`` fill the span's ``size``, ``key`` and
        ``request_id`` fields; without ``request_of`` a span inherits its
        parent's request id.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            key = key_of(args, kwargs) if key_of is not None else 0
            request_id = request_of(args, kwargs) if request_of is not None else None
            with tracer.span(name, request_id=request_id, key=key) as box:
                result = func(*args, **kwargs)
                if size_of is not None:
                    box["size"] = size_of(args, kwargs, result)
                return result

        return traced

    def to_json(self) -> "dict[str, Any]":
        return {
            "spans": [
                [s.span_id, s.parent_id, s.name, s.start, s.end,
                 s.request_id, s.outcome, s.size, s.key]
                for s in self.spans
            ],
        }

    @staticmethod
    def from_json(data: "dict[str, Any]") -> "Tracer":
        tracer = Tracer()
        tracer.spans = [Span(*row) for row in data["spans"]]
        return tracer


# -- installing wrappers --------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``qualname`` inside ``module``."""

    layer: str
    module: str
    qualname: str
    size_of: "Callable[..., int] | None" = None
    key_of: "Callable[..., int] | None" = None
    request_of: "Callable[..., str | None] | None" = None


@dataclass
class Installed:
    """What :func:`patched` did: the bindings it replaced, the absent layers."""

    #: ``(owner, attribute, original)`` for every replaced binding.
    bindings: "list[tuple[Any, str, Any]]" = field(default_factory=list)
    absent: "list[str]" = field(default_factory=list)


def import_all(package: str) -> None:
    """Import every module of ``package`` so no later import binds a wrapper."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def _resolve(target: Target) -> "tuple[Any, str, Any] | None":
    """``(owner, attribute, original)`` or ``None`` when the name is gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attribute = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        original = inspect.getattr_static(owner, attribute)
    except AttributeError:
        return None
    if not callable(original):
        return None
    return owner, attribute, original


@contextlib.contextmanager
def patched(tracer: Tracer, targets: "Iterable[Target]", *,
            package: str = "repro"):
    """Wrap every target for the duration of the block; restore on exit.

    A module-level function is replaced at each binding in an imported
    ``package`` module, so callers that imported it by name see the
    wrapper too.  A method is replaced on its class.  A target whose
    module or name no longer exists is listed in ``Installed.absent``.
    """
    installed = Installed()
    try:
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                installed.absent.append(target.layer)
                continue
            owner, attribute, original = resolved
            wrapper = tracer.wrap(
                target.layer, original,
                size_of=target.size_of, key_of=target.key_of,
                request_of=target.request_of,
            )
            if inspect.isclass(owner):
                setattr(owner, attribute, wrapper)
                installed.bindings.append((owner, attribute, original))
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (
                    name == package or name.startswith(package + ".")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        installed.bindings.append((module, key, original))
        yield installed
    finally:
        for owner, attribute, original in reversed(installed.bindings):
            setattr(owner, attribute, original)


# -- span arithmetic --------------------------------------------------------


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: "Iterable[Span]") -> "dict[int, float]":
    """Span id -> duration minus the part its child spans cover."""
    spans = list(spans)
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        result[span.span_id] = max(0.0, span.duration - _covered(clipped))
    return result


# -- percentiles ------------------------------------------------------------


def tail_percentile(samples: "Iterable[float]", q: float) -> "float | None":
    """The nearest-rank ``q``-th percentile, or ``None`` when unsupported.

    A tail percentile is reported only when at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples_for(q: float) -> int:
    """The smallest sample count for which :func:`tail_percentile` answers."""
    n = 1
    while tail_percentile(range(n), q) is None:
        n += 1
    return n
