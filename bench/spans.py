"""Span tracing of the tensorgeom layers from outside the program.

``Tracer.install`` replaces the public functions of each package module with
wrappers at the places where callers look them up: module attributes
(including ``from .x import y`` bindings such as ``curve.sqrt_spd`` or
``curve.quad``) and a few class attributes.  A wrapper records one span per
call -- name, parent span, start and end -- in flat arrays kept in memory.
A call made directly inside a call of the same function (recursion, or
``Jet.__rmul__`` reaching ``__mul__``) belongs to the outer span, so
``.calls`` counts outermost calls.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

MODULES = ("expr", "tensor2", "tensor4", "curve", "coords", "surface", "cli")

# (module, class, attribute) -> span name
CLASS_ATTRS = {
    ("expr", "ExprMap", "eval_jet"): "expr.eval_jet",
    ("expr", "ExprMap", "__call__"): "expr.eval_float",
    ("expr", "Jet", "__mul__"): "expr.jet_mul",
    ("expr", "Jet", "__rmul__"): "expr.jet_mul",
    ("curve", "Curve", "__init__"): "curve.Curve",
}

# ``aggregate`` counts the NESTED spans that run under a span of a CHART_PREFIX
# layer: the jet evaluations each chart request costs.
CHART_PREFIX = "coords."
NESTED = "expr.eval_jet"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            sid = len(start)
            name_id.append(nid)
            parent.append(top)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self, package) -> None:
        """Wrap the public functions of every module in ``MODULES``."""
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if home.startswith(package.__name__ + "."):
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                else:  # a dependency's function, named where it is bound
                    name = f"{short}.{attr}"
                self._patch(module, attr, name)
        for (short, cls, attr), name in CLASS_ATTRS.items():
            self._patch(getattr(getattr(package, short), cls), attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def aggregate(self):
        return aggregate(self.names, self.name_id, self.parent, self.start, self.end)


def aggregate(names, name_id, parent, start, end):
    """Per span name: calls, total seconds and self seconds.

    Span ``i`` has name ``names[name_id[i]]``, parent span ``parent[i]`` (-1
    for none, always a smaller index) and the interval ``start[i]..end[i]``.
    Also returns how many ``NESTED`` spans have an ancestor whose name
    starts with ``CHART_PREFIX``.
    """
    n = len(name_id)
    child = array("d", bytes(8 * n))
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    marks = [name.startswith(CHART_PREFIX) for name in names]
    target = names.index(NESTED) if NESTED in names else -1
    under = bytearray(n)
    nested = 0
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        k, par = name_id[i], parent[i]
        if par >= 0 and (under[par] or marks[name_id[par]]):
            under[i] = 1
            nested += k == target
        dur = end[i] - start[i]
        calls[k] += 1
        total[k] += dur
        own[k] += dur - child[i]
    stats = {name: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
             for k, name in enumerate(names) if calls[k]}
    return stats, nested
