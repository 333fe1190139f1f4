"""In-memory span recorder and the wrappers that feed it.

A span is ``(id, name, start, end, parent id, pass)``.  Spans nest through
a stack: a wrapped call that starts while another wrapped call runs becomes
its child.  Calls run one at a time, so children never overlap and a span's
self time is its duration minus the durations of its direct children.

Wrappers are patched in wherever a caller looks the function up: every
``ttckit`` module attribute bound to the original function, or the class
attribute for a method.  No library file changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

WRAPPED_MARK = "__perfbench_span__"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.pass_index = 0
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a callable of the call's positional args.
        ``before(args)`` runs ahead of the call; its result reaches
        ``after(recorder, args, result, before_result)``, which adds counts.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            pre = before(args) if before is not None else None
            parent = rec._stack[-1] if rec._stack else None
            sid = len(rec.spans)
            rec.spans.append(None)  # reserve the id so ids follow start order
            rec._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[sid] = (sid, span_name, start, end, parent, rec.pass_index)
            if after is not None:
                after(rec, args, result, pre)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(end - start) - covered[sid] for sid, _, start, end, _, _ in self.spans]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pass_index in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_index}) + "\n")
            fh.write(json.dumps({"counters": self.counters}, sort_keys=True) + "\n")


def _ttckit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ttckit" or n.startswith("ttckit."))]


def install(recorder: SpanRecorder, layers) -> list[tuple[object, str, object]]:
    """Patch a recording wrapper over every layer function; returns the undo list."""
    patched = []
    modules = _ttckit_modules()
    for layer in layers:
        owner = sys.modules[layer.module]
        attr = layer.attr
        if "." in attr:  # a method: patch the class, where every caller finds it
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        orig = getattr(owner, attr)
        wrapper = recorder.wrap(layer.span, orig, layer.before, layer.after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, orig))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, orig))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, key, orig in reversed(patched):
        setattr(owner, key, orig)


def wrappers_present() -> list[str]:
    """Names of ttckit functions or methods currently bound to a recording wrapper."""
    found = []
    for mod in _ttckit_modules():
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, WRAPPED_MARK, False)]
            elif callable(value) and getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{key}")
    return found
