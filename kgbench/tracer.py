"""Span recorder for the traced benchmark run.

The recorder wraps public functions from outside the program: it replaces
a module attribute or class attribute with a wrapper under the same name,
so the callers that look the name up at call time go through the wrapper.
Each call records one span: name, start, end, parent span and question
id. Spans live in flat per-thread arrays while the run goes on and are
written out when it ends. A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

FIELDS = 5  # name id, start ns, end ns, parent index (-1 for none), question id


class MissingName(RuntimeError):
    """A name the benchmark wraps no longer exists in the program."""


class _ThreadLog:
    __slots__ = ("buf", "stack", "notes", "qid")

    def __init__(self):
        self.buf = array("q")
        self.stack: list[int] = []
        self.notes: dict[int, object] = {}
        self.qid = -1


class Spans:
    """All spans of a run in columns; parents index into the same columns."""

    def __init__(self, names: list[str], name: Sequence[int], start: Sequence[int],
                 end: Sequence[int], parent: Sequence[int], qid: Sequence[int],
                 notes: dict[int, object] | None = None):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.qid = qid
        self.notes = notes or {}

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> list[int]:
        """Duration minus the part covered by direct children, per span."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str | Path) -> None:
        """Write the spans as a JSON header line and one binary record each."""
        path = Path(path)
        header = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "qid"],
                  "count": len(self), "notes": {str(k): v for k, v in self.notes.items()}}
        flat = array("q")
        for row in zip(self.name, self.start, self.end, self.parent, self.qid):
            flat.extend(row)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            flat.tofile(fh)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_question(self, qid: int) -> None:
        """Tag the calling thread's next spans with this question id."""
        self._log().qid = qid

    def wrap(self, name: str, fn: Callable,
             note: Callable[[tuple, dict, object], object] | None = None) -> Callable:
        """fn wrapped to record a span; note(args, kwargs, result) is kept
        with the span. A call that raises keeps ("raised", type name)."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            log = self._log()
            buf = log.buf
            idx = len(buf) // FIELDS
            stack = log.stack
            buf.extend((nid, 0, 0, stack[-1] if stack else -1, log.qid))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                log.notes[idx] = ("raised", type(exc).__name__)
                raise
            finally:
                end = clock()
                stack.pop()
                buf[idx * FIELDS + 1] = start
                buf[idx * FIELDS + 2] = end
            if note is not None:
                log.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple]):
        """Wrap each (owner, attribute, span name, note) for the duration.

        Raises MissingName, before wrapping anything, when an owner lacks
        its attribute. Every original is restored on exit.
        """
        targets = list(targets)
        for owner, attr, _, _ in targets:
            if not hasattr(owner, attr):
                raise MissingName(f"{getattr(owner, '__name__', owner)}.{attr}")
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, note in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def spans(self) -> Spans:
        """Merge every thread's spans; parent indexes become global."""
        cols = [array("q") for _ in range(FIELDS)]
        notes: dict[int, object] = {}
        for log in self._logs:
            offset = len(cols[0])
            buf = log.buf
            for f in range(FIELDS):
                cols[f].extend(buf[f::FIELDS])
            cols[3][offset:] = array("q", (p + offset if p >= 0 else -1
                                           for p in cols[3][offset:]))
            notes.update({i + offset: v for i, v in log.notes.items()})
        return Spans(list(self.names), *cols, notes=notes)
