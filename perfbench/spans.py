"""In-memory span tracing of the package's layers, installed from outside.

`Tracer.install()` replaces every public function of the layer modules
(and every public method of the classes they define) with a wrapper that
records a span: name, start, end, parent span, op id, thread, whether it
raised, and for serializers the size of the text returned.  Every other
reference the package holds to the same function object, such as the
names `forces` imports from `cavity`, is re-pointed too, so calls between
modules are seen.  `restore()` puts the originals back; a later
`install()` adds to the same spans, under the same name ids.

Each thread keeps its own span stack and buffer, so spans recorded by the
CLI's row workers never interleave with the main thread's.  A span that
opens on another thread with nothing open there is parented to the span
open on the installing thread at that moment: the CLI call that handed the
row to its worker pool.  A layer or name that does not exist is reported
as absent; tracing never fails because the package changed shape.
"""

import importlib
import inspect
import sys
import threading
import time
from array import array
from functools import update_wrapper

import numpy as np

LAYERS = ("cli", "kinematics", "cavity", "forces", "table")
SIZED = {"table.to_csv", "table.to_json"}  # spans that record len(returned text)


class _Buffer:
    __slots__ = ("thread", "stack", "name", "parent", "parent_thread", "op", "start", "end",
                 "error", "size")

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.name = array("i")
        self.parent = array("q")  # index into the buffer of thread `parent_thread`
        self.parent_thread = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.size = array("q")


class Tracer:
    def __init__(self, package="photonforces"):
        self.package = package
        self.op = -1  # id of the op being run, set by the caller
        self.names = []  # span name per name id
        self._ids = {}  # span name -> name id, kept across installs
        self._installed = set()  # names wrapped by the current install
        self.absent = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._home = None  # buffer of the thread that called install()
        self._patched = []  # (owner, attribute, original raw attribute)

    # -- recording ----------------------------------------------------------

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _wrap(self, fn, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        self._installed.add(name)
        sized = name in SIZED
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(name_id)
            if stack:
                buf.parent.append(stack[-1])
                buf.parent_thread.append(buf.thread)
            else:
                buf.parent.append(tracer._home_top())
                buf.parent_thread.append(tracer._home.thread)
            buf.op.append(tracer.op)
            buf.error.append(0)
            buf.size.append(-1)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if sized:
                    buf.size[idx] = len(result)
                return result
            except BaseException:
                buf.error[idx] = 1
                raise
            finally:
                buf.end[idx] = clock()
                stack.pop()

        return update_wrapper(traced, fn)

    def _home_top(self):
        """The span open on the installing thread, or -1."""
        try:
            return self._home.stack[-1]
        except IndexError:
            return -1

    # -- installing ---------------------------------------------------------

    def install(self, required=None):
        """Wrap the layers' public callables.  `required` maps layer to the
        names the caller reports on; those missing are listed in `absent`."""
        self._home = self._buffer()
        self._installed = set()
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                    self._patch(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for mod in list(_package_modules(self.package)):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        self.absent = sorted(
            f"{layer}.{name}" for layer, names in (required or {}).items() for name in names
            if f"{layer}.{name}" not in self._installed
        )

    def _install_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            name = f"{layer}.{attr}"
            if name in self._installed:
                name = f"{layer}.{cls.__name__}.{attr}"
            wrapper = self._wrap(fn, name)
            self._patch(cls, attr, rewrap(wrapper) if rewrap else wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def spans(self):
        """All spans as parallel arrays; `parent` indexes into them (-1: root).
        `self` is a span's time not covered by any of its children."""
        with self._lock:
            buffers = list(self._buffers)
        dtypes = {"name": np.int32, "parent": np.int64, "op": np.int32, "start": np.float64,
                  "end": np.float64, "error": np.int8, "size": np.int64}
        parts = {key: [np.empty(0, dtype)] for key, dtype in dtypes.items()}
        parts["thread"], parts["parent_thread"] = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        offsets = np.zeros(len(buffers), dtype=np.int64)
        offset = 0
        for buf in buffers:
            offsets[buf.thread] = offset
            offset += len(buf.start)
            for key in dtypes:
                parts[key].append(np.frombuffer(getattr(buf, key), dtype=dtypes[key]).copy())
            parts["parent_thread"].append(np.frombuffer(buf.parent_thread, dtype=np.int32).copy())
            parts["thread"].append(np.full(len(buf.start), buf.thread, dtype=np.int32))
        out = {key: np.concatenate(arrays) for key, arrays in parts.items()}
        has_parent = out["parent"] >= 0
        out["parent"][has_parent] += offsets[out["parent_thread"][has_parent]]
        del out["parent_thread"]
        out["self"] = _self_time(out)
        return out


def _self_time(s):
    """Span duration minus the time covered by its children.  Children on
    the parent's own thread are nested and run one at a time, so they cover
    the sum of their durations.  Children handed to worker threads may run
    side by side; a parent with any of them loses the union of all its
    children's intervals instead, so time is never taken off twice."""
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    parent = s["parent"][has_parent]
    child = np.bincount(parent, weights=dur[has_parent], minlength=len(dur))[: len(dur)]
    self_s = dur - child
    idx = np.flatnonzero(has_parent)
    crossing = np.unique(parent[s["thread"][idx] != s["thread"][parent]])
    if len(crossing):
        kids = idx[np.isin(parent, crossing)]
        kids = kids[np.lexsort((s["start"][kids], s["parent"][kids]))]
        for p, group in zip(*_groups(s["parent"][kids], kids)):
            covered, reach = 0.0, -np.inf
            for k in group:
                lo, hi = max(s["start"][k], reach), s["end"][k]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_s[p] = dur[p] - covered
    return self_s


def _groups(keys, values):
    """Split `values` into runs of equal, sorted `keys`."""
    cuts = np.flatnonzero(np.diff(keys)) + 1
    return [g[0] for g in np.split(keys, cuts)], np.split(values, cuts)


def _package_modules(package):
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            yield mod
