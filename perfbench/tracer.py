"""Outside-in span tracer: wraps public functions of a package's modules.

Nothing in the measured package changes.  ``Tracer.install`` replaces each
named function or method by a wrapper that times the call and records it;
``Tracer.uninstall`` puts the originals back.  A module-level function is
replaced under every name that refers to it in any loaded module of the
package, because modules bind each other's functions with ``from . import``.

Every wrapped call is charged to the current *bucket*: ``"setup"`` during
set-up, the operation id during the steady phase.  Per bucket and function
the tracer keeps the number of calls and the self time, which is the call's
duration minus the part of it covered by wrapped calls made inside it.

Functions marked ``spans=True`` also leave one span record each
(id, name, start, end, parent span id, bucket).  The element operators of
the coefficient rings run millions of times per operation, so they are
counted and timed but leave no span record; a span's parent is the nearest
enclosing call that does leave one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Target:
    """One function to wrap: ``module`` within the package, dotted ``qualname``."""

    def __init__(self, module, qualname, spans=True):
        self.module = module
        self.qualname = qualname
        self.spans = spans

    @property
    def name(self):
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, package, targets):
        self.package = package
        self.targets = list(targets)
        self.originals = {}  # name -> the unwrapped callable
        self.spans = []
        self.buckets = {}
        self.bucket_key = None
        self.bucket = None
        self.set_bucket("setup")
        self._stack = []  # frames [child_seconds, enclosing span id]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original raw attribute)

    def set_bucket(self, key):
        """Charge the following calls to ``key`` (call between operations)."""
        self.bucket_key = key
        self.bucket = self.buckets.setdefault(key, {})

    # -- installing ----------------------------------------------------------------

    def install(self):
        for target in self.targets:
            module = importlib.import_module(f"{self.package}.{target.module}")
            if "." in target.qualname:
                self._wrap_method(module, target)
            else:
                self._wrap_function(module, target)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def _wrap_function(self, module, target):
        original = getattr(module, target.qualname)
        self.originals[target.name] = original
        wrapper = self._wrapper(target.name, original, target.spans)
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, module, target):
        cls_name, attr = target.qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]  # defined on this class, not inherited
        if isinstance(raw, (classmethod, staticmethod)):
            func = raw.__func__
            wrapped = type(raw)(self._wrapper(target.name, func, target.spans))
        else:
            func = raw
            wrapped = self._wrapper(target.name, func, target.spans)
        self.originals[target.name] = func
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrapper(self, name, fn, spans):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if spans:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                acc = tracer.bucket.get(name)
                if acc is None:
                    acc = tracer.bucket[name] = [0, 0.0]
                acc[0] += 1
                acc[1] += duration - frame[0]
                if spans:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.bucket_key)
                    )

        return functools.wraps(fn)(traced)

    # -- reading ----------------------------------------------------------------

    def calls(self, key, name):
        return self.buckets.get(key, {}).get(name, (0, 0.0))[0]

    def self_seconds(self, key, name):
        return self.buckets.get(key, {}).get(name, (0, 0.0))[1]

    def write(self, path):
        """Spans as JSON lines, then one line per (bucket, function) total."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, key in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": key,
                        }
                    )
                    + "\n"
                )
            for key, bucket in self.buckets.items():
                for name, (calls, self_s) in sorted(bucket.items()):
                    out.write(
                        json.dumps(
                            {"total": name, "op": key, "calls": calls, "self_s": self_s}
                        )
                        + "\n"
                    )
