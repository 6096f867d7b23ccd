"""In-memory span tracing by wrapping names that callers look up.

The program's modules import each other's functions by name, so a layer
boundary is the attribute a caller resolves at call time, for example
``gaslift_twin.sil.plant_step``. ``Tracer.wrap`` replaces one such attribute
with a function that records a span around the original call; ``restore``
puts every original back. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Tracer:
    """Spans and counters of one traced run.

    A span is (id, parent id, name, start, end, error); error is the
    exception class name when the call raised, else None. ``counters``
    collects counts that ``on_result`` callbacks add at each boundary.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def call(self, name: str, fn, *args, on_result=None, **kwargs):
        """Run ``fn`` inside a span; an exception marks the span failed and
        propagates unchanged."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, error))
        if on_result is not None:
            on_result(self.counters, args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Returns False, and records the name in ``missing``, when the owner
        has no such attribute, so a renamed entry point shows in the report
        instead of stopping the run.
        """
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        # keep the exact object stored on the owner (it may be inherited)
        stored = vars(owner).get(attr, _MISSING)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, on_result=on_result, **kwargs)

        self._saved.append((owner, attr, stored))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, stored = self._saved.pop()
            if stored is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, stored)

    def write(self, path: Path) -> None:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end, "error": error,
                }) + "\n")
