"""Span recording for the traced benchmark run, and its reduction to self time.

The benchmark wraps each call it makes into a manifestd layer in a span with a
name, start, end, parent span and request id.  Spans live in a flat int64
array while the run lasts (seven fields per span), are written out as gzipped
CSV when it ends, and are reduced to per-name self time: a span's duration
minus the part of it that its child spans cover.  The untraced run uses
``NoTrace``, whose ``call`` only forwards, so both runs execute the same code.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path
from typing import Callable

_FIELDS = 7  # id, name id, start ns, end ns, parent id, request id, hash ops
CSV_HEADER = "id,name,start_ns,end_ns,parent,request,hash_ops\n"


class NoTrace:
    """Stand-in used when tracing is off."""

    request = -1

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class SpanRecorder:
    """Single-threaded span stack; ``hash_ops`` is the kernel op counter."""

    def __init__(self, hash_ops: Callable[[], int]):
        self._ops = hash_ops
        self._data = array("q")
        self._names: dict[str, int] = {}
        self._stack: list[tuple[int, int, int, int, int]] = []
        self._next_id = 0
        self.request = -1

    def begin(self, name: str) -> None:
        name_id = self._names.setdefault(name, len(self._names))
        parent = self._stack[-1][0] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name_id, parent, self._ops(), time.perf_counter_ns()))

    def end(self) -> None:
        end = time.perf_counter_ns()
        span_id, name_id, parent, ops0, start = self._stack.pop()
        self._data.extend((span_id, name_id, start, end, parent, self.request, self._ops() - ops0))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def __len__(self) -> int:
        return len(self._data) // _FIELDS

    def self_times(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, total self ns and total self hash ops."""
        data = self._data
        n = len(self)
        child_ns: dict[int, int] = {}
        child_ops: dict[int, int] = {}
        for k in range(n):
            base = k * _FIELDS
            parent = data[base + 4]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + data[base + 3] - data[base + 2]
                child_ops[parent] = child_ops.get(parent, 0) + data[base + 6]
        names = {v: k for k, v in self._names.items()}
        out: dict[str, dict[str, int]] = {}
        for k in range(n):
            base = k * _FIELDS
            span_id = data[base]
            agg = out.setdefault(names[data[base + 1]], {"calls": 0, "self_ns": 0, "self_ops": 0})
            agg["calls"] += 1
            agg["self_ns"] += data[base + 3] - data[base + 2] - child_ns.get(span_id, 0)
            agg["self_ops"] += data[base + 6] - child_ops.get(span_id, 0)
        return out

    def write_csv_gz(self, path: Path) -> None:
        names = {v: k for k, v in self._names.items()}
        data = self._data
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write(CSV_HEADER)
            for k in range(len(self)):
                row = data[k * _FIELDS : (k + 1) * _FIELDS]
                fh.write(f"{row[0]},{names[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]},{row[6]}\n")
