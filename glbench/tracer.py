"""Layer tracer for the glattice benchmark.

`Tracer.install()` replaces every public function of each glattice layer
module with a wrapper that records a span (name, start, end, parent span,
op id) and per-function counters.  A function is patched in every
glattice module namespace that binds it, because `from .x import f`
copies the binding and patching only `x` would miss those callers.
`GLattice.__init__` and `IntMat.__mul__` are wrapped as well.
`Tracer.uninstall()` restores the original objects.

Self time of a span is its duration minus the time covered by its child
spans, so it stays correct under recursion (`classify`, `tate`).  Work in
private helpers and in methods counts as self time of the nearest
enclosing public function.  Inclusive layer time adds up the outermost
spans of a layer, children in other layers included.
"""

import inspect
import sys
import time
from array import array

LAYERS = ("intlinalg", "groups", "lattices", "homology", "modular",
          "rationality", "catalog")

# methods wrapped besides the module-level public functions:
# (layer, class name, attribute, span name)
METHODS = (
    ("lattices", "GLattice", "__init__", "lattices.GLattice.init"),
    ("intlinalg", "IntMat", "__mul__", "intlinalg.IntMat.mul"),
)

NONE = "None"  # outcome recorded when a function returns None

# functions whose returned sequences are summed by length
COUNT_LENGTH = ("homology.stably_permutation_paddings",)


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}           # span name -> name id
        self.calls = []          # per name id
        self.self_s = []         # per name id
        self.outcomes = {}       # (name, exception class name or NONE) -> n
        self.lengths = {}        # name -> summed len() of results
        self.incl_s = dict.fromkeys(LAYERS, 0.0)
        self._depth = dict.fromkeys(LAYERS, 0)   # open spans per layer
        self._layer = []         # layer per name id
        self.op = -1             # op id stamped on new spans
        # spans, one entry per finished span, parallel arrays
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_span = 0
        self._stack = []         # [span id, child seconds] per open span
        self._patches = []       # (namespace, attribute, original, wrapper)

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch the wrappers in; the first call builds them."""
        if not self._patches:
            self._build()
        for ns, name, _fn, wrapped in self._patches:
            setattr(ns, name, wrapped)
        return self

    def uninstall(self):
        for ns, name, fn, _wrapped in reversed(self._patches):
            setattr(ns, name, fn)

    def _build(self):
        import importlib

        mods = [importlib.import_module("glattice." + layer)
                for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "glattice" or name.startswith("glattice.")]
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(fn, "%s.%s" % (layer, attr))
                for ns in namespaces:
                    for name, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, name, fn, wrapped))
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules["glattice." + layer], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self._wrap(fn, span)))

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _intern(self, name):
        self._ids[name] = len(self.names)
        self.names.append(name)
        self._layer.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)
        enter, leave = self._enter, self._leave
        lengths = self.lengths if name in COUNT_LENGTH else None

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(nid, frame, type(exc).__name__, True)
                raise
            leave(nid, frame, NONE if result is None else None, True)
            if lengths is not None:
                lengths[name] = lengths.get(name, 0) + len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_generator(self, fn, nid):
        """A generator call counts once; each resumption is its own span."""
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                frame = enter(nid)
                try:
                    value = next(it)
                except StopIteration:
                    leave(nid, frame, None, first)
                    return
                except BaseException as exc:
                    leave(nid, frame, type(exc).__name__, first)
                    raise
                leave(nid, frame, None, first)
                first = False
                yield value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _enter(self, nid):
        sid = self._next_span
        self._next_span = sid + 1
        self._depth[self._layer[nid]] += 1
        frame = [sid, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _leave(self, nid, frame, outcome, count_call):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        start = frame[2]
        dur = end - start
        if stack:
            parent = stack[-1]
            parent[1] += dur
            parent_id = parent[0]
        else:
            parent_id = -1
        self.self_s[nid] += dur - frame[1]
        layer = self._layer[nid]
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.incl_s[layer] += dur
        if count_call:
            self.calls[nid] += 1
        if outcome is not None:
            key = (self.names[nid], outcome)
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
        self.span_id.append(frame[0])
        self.span_name.append(nid)
        self.span_parent.append(parent_id)
        self.span_op.append(self.op)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- summaries --------------------------------------------------------

    def function_calls(self, name):
        return self.calls[self._ids[name]]

    def function_self_s(self, name):
        return self.self_s[self._ids[name]]

    def outcome(self, name, outcome):
        return self.outcomes.get((name, outcome), 0)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.startswith(prefix))
