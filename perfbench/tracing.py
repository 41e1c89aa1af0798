"""In-memory span tracer for the traced run.

Wraps public fleetplan functions where their callers look them up (a
module attribute), so a call made through that binding opens a span.
Spans live in flat arrays (name, start, end, parent, outcome) until the
run ends; self times and per-layer figures are derived from them, and
they are saved as one .npz file.

Span times are CPU nanoseconds of the (only) thread, like the end-to-end
times, so other processes on the host do not stretch them.  A CPU clock
read costs about 0.25 us here, which the reported tracing overhead
includes.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

OK, INFEASIBLE, UNREPAIRABLE, OTHER_ERROR = 0, 1, 2, 3


class Tracer:
    def __init__(self, error_codes: dict[type, int]):
        self._error_codes = error_codes
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.outcome = array("B")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.outcome.append(OK)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.thread_time_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.thread_time_ns()
        self._stack.pop()

    def _fail(self, idx: int, exc: BaseException) -> None:
        self.outcome[idx] = self._error_codes.get(type(exc), OTHER_ERROR)

    def wrap(self, module, attr: str, span_name: str, on_result=None) -> None:
        """Replace module.attr, until restore(), by a wrapper that records a
        span per call.

        on_result, if given, sees each traced call's return value, for
        counts the program returns rather than logs.
        """
        original = getattr(module, attr)
        nid = self._id(span_name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._fail(idx, exc)
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    @contextmanager
    def span(self, span_name: str):
        """A span opened by the benchmark's own code around a step."""
        if not self.enabled:
            yield
            return
        idx = self._open(self._id(span_name))
        try:
            yield
        except BaseException as exc:
            self._fail(idx, exc)
            raise
        finally:
            self._close(idx)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self, pass_starts: list[int], pass_durations: list[int]) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name, dtype=np.uint16),
                     np.frombuffer(self.start, dtype=np.int64),
                     np.frombuffer(self.end, dtype=np.int64),
                     np.frombuffer(self.parent, dtype=np.int64),
                     np.frombuffer(self.outcome, dtype=np.uint8),
                     np.asarray(pass_starts, dtype=np.int64),
                     np.asarray(pass_durations, dtype=np.int64))


class Spans:
    """Read-only view of recorded spans with self times and roots.

    Calibration passes that ran inside a span are taken out of its
    duration, as they are out of the end-to-end times.
    """

    def __init__(self, names, name, start, end, parent, outcome, pass_starts, pass_durations):
        self.names = list(names)
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.outcome = outcome
        done = np.concatenate(([0], np.cumsum(pass_durations)))
        inside = (done[np.searchsorted(pass_starts, end)]
                  - done[np.searchsorted(pass_starts, start)])
        self.duration = (end - start - inside).astype(np.float64)
        n = len(start)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=n) if n else np.zeros(0)
        self.self_time = self.duration - child_time
        # parents are recorded before their children, so pointer jumping
        # from each span reaches its top-level span
        root = np.where(has_parent, self.parent, np.arange(n))
        while n and np.any(self.parent[root] >= 0):
            root = np.where(self.parent[root] >= 0, self.parent[root], root)
        self.root = root

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(span_name)

    def under(self, root_names: tuple[str, ...]) -> np.ndarray:
        """Spans whose top-level span has one of these names."""
        ids = [self.names.index(r) for r in root_names if r in self.names]
        return np.isin(self.name[self.root], ids)

    def parent_is(self, span_name: str) -> np.ndarray:
        has_parent = self.parent >= 0
        out = np.zeros(len(self), dtype=bool)
        if span_name in self.names:
            pid = self.names.index(span_name)
            out[has_parent] = self.name[self.parent[has_parent]] == pid
        return out

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent, outcome=self.outcome,
                 self_time=self.self_time)
