"""Span tracer that wraps limas functions from outside the package.

Each traced function is replaced at every module attribute that refers to
it, so calls through any import path are seen. A span records name, start,
end and parent; spans stay in compact in-memory arrays and are written out
once, after the traced pass. A function's self time is its spans' duration
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collects the spans of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        sid = self.span_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, attr, on_result, on_error)`` target.

        Functions are replaced wherever a loaded module of ``package`` binds
        them; a class gets its ``__init__`` wrapped in place, which keeps
        ``isinstance`` checks intact.
        """
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, attr, on_result, on_error in targets:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            orig = getattr(sys.modules[module_name], attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._patch(orig, "__init__", self.wrap(init, name, on_result, on_error))
                continue
            traced = self.wrap(orig, name, on_result, on_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, total self time in ns)."""
        count = len(self.start)
        child = [0] * count
        for idx in range(count):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for idx in range(count):
            name = self.names[self.name_id[idx]]
            calls[name] += 1
            self_ns[name] += self.end[idx] - self.start[idx] - child[idx]
        return {name: (calls[name], self_ns[name]) for name in calls}

    def write(self, path: Path) -> None:
        """Write every span as ``index,name,start_ns,end_ns,parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx},{self.names[self.name_id[idx]]},{self.start[idx]},"
                         f"{self.end[idx]},{self.parent[idx]}\n")
