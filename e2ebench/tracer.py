"""Layer-boundary spans recorded from outside the program.

:class:`LayerTracer` wraps the functions of every imported ``repro``
module and keeps one span per *layer crossing* in memory: a call from
layer A into a function of layer B opens a span (layer, parent, start,
end); a call that stays inside the current layer only bumps the
function's call counter.  A layer's self time is the total duration of
its spans minus the part of each covered by its direct child spans; the
root span (the traced pass itself) is ``unattributed`` - benchmark code
and whatever the program runs outside a wrapped function.  Self times
therefore sum to the traced wall time by construction.

What gets wrapped:

* public module-level functions;
* every non-dunder method of public classes, private ones included,
  because the event kernel calls bound methods back (the scheduler's
  per-operation step, for one) and without a span their time would land
  in ``sim.kernel``;
* the private functions named in :data:`FUNCTION_LAYERS`.

Each wrapper replaces the original *by identity* in every ``repro``
module namespace and class that binds it, so ``from x import f`` copies
are traced too.  :meth:`LayerTracer.uninstall` restores every binding.
Generator functions get a wrapper that times each resume.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of each ``repro`` module.  The first matching prefix wins, so
#: specific modules come before their package.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.xmlstore.parser", "xmlstore.parser"),
    ("repro.xmlstore.serializer", "xmlstore.serializer"),
    ("repro.xmlstore.fastpath", "xmlstore.serializer"),
    ("repro.xmlstore.path", "xmlstore.path"),
    ("repro.xmlstore.index", "xmlstore.index"),
    ("repro.xmlstore", "xmlstore.nodes"),
    ("repro.axml", "axml"),
    ("repro.query.evaluate", "query.evaluate"),
    ("repro.query.update", "query.update"),
    ("repro.query", "query.parser"),
    ("repro.services", "services"),
    ("repro.txn.wal", "txn.wal"),
    ("repro.txn.durable_wal", "txn.durable_wal"),
    ("repro.txn.checkpoint", "txn.checkpoint"),
    ("repro.txn.occ", "txn.occ"),
    ("repro.txn.compensation", "txn.compensation"),
    ("repro.txn", "txn.manager"),
    ("repro.p2p.replication", "p2p.replication"),
    ("repro.p2p.sharding", "p2p.sharding"),
    ("repro.p2p.chain", "p2p.chain"),
    ("repro.p2p.network", "p2p.network"),
    ("repro.p2p.messages", "p2p.network"),
    ("repro.p2p", "p2p.peer"),
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim.scheduler", "sim.scheduler"),
    ("repro.sim.metrics", "obs"),
    ("repro.sim.trace", "obs"),
    ("repro.sim", "sim.support"),
    ("repro.obs", "obs"),
    ("repro.chaos.oracle", "chaos.oracle"),
    ("repro.chaos", "chaos.harness"),
    ("repro", "api"),
)

#: Functions whose layer is not their module's.  The WAL entry codec is
#: its own layer (the rest of ``repro.txn.wal`` is the in-memory log);
#: chaos settlement, a private function, is the oracle's precondition,
#: so it is wrapped too and charged there.
FUNCTION_LAYERS: Dict[str, str] = {
    "repro.txn.wal.entry_to_xml": "txn.wal.codec",
    "repro.txn.wal.entry_from_xml": "txn.wal.codec",
    "repro.txn.wal.entry_bytes": "txn.wal.codec",
    "repro.chaos.runner._settle_and_check": "chaos.oracle",
}

UNATTRIBUTED = "unattributed"

#: Every layer name, root first.
LAYERS: Tuple[str, ...] = (UNATTRIBUTED,) + tuple(
    dict.fromkeys(
        [layer for _, layer in MODULE_LAYERS] + list(FUNCTION_LAYERS.values())
    )
)


def _text_length(args, kwargs) -> int:
    text = args[0] if args else kwargs.get("text", "")
    return len(text)


#: Per-function argument measures, accumulated next to the call count
#: (qualified name -> measure(args, kwargs) -> int).
MEASURES: Dict[str, Callable] = {
    "repro.xmlstore.parser.parse_document": _text_length,
    "repro.xmlstore.parser.parse_fragment": _text_length,
    # frames put on the wire by one ship (the batch _ship drains)
    "repro.p2p.replication.ReplicationManager._ship": lambda a, k: len(a[1].pending),
    # frames a replica received in one WalShipMessage
    "repro.p2p.replication.ReplicationManager.on_ship": lambda a, k: len(a[2].entries_xml),
}


def layer_of_module(module_name: str) -> Optional[str]:
    for prefix, layer in MODULE_LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        # one entry per span: layer, parent span, start, end
        self.span_layer = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._current = [0]
        #: qualified function name -> [calls, measured amount]
        self.calls: Dict[str, List[int]] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self) -> None:
        """Open the root span; every later span nests under it."""
        if self._stack:
            raise RuntimeError("a traced pass is already open")
        self.span_layer.append(0)
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(len(self.span_start) - 1)
        self._current[0] = 0

    def end(self) -> None:
        root = self._stack.pop()
        if self._stack or root != 0:
            raise RuntimeError("unbalanced spans at the end of the traced pass")
        self.span_end[root] = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.span_end[0] - self.span_start[0]

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus direct child spans."""
        count = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = array("d", bytes(8 * count))
        for i in range(1, count):
            covered[parents[i]] += ends[i] - starts[i]
        totals = [0.0] * len(LAYERS)
        layers = self.span_layer
        for i in range(count):
            totals[layers[i]] += ends[i] - starts[i] - covered[i]
        return {name: totals[i] for i, name in enumerate(LAYERS)}

    def count(self, qualname: str, field: int = 0) -> int:
        entry = self.calls.get(qualname)
        return entry[field] if entry else 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str):
        layer_id = self.layer_index[layer]
        counter = self.calls.setdefault(qualname, [0, 0])
        measure = MEASURES.get(qualname)
        current, stack = self._current, self._stack
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        now = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                counter[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    if current[0] == layer_id or not stack:
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                    else:
                        sid = len(span_start)
                        span_layer.append(layer_id)
                        span_parent.append(stack[-1])
                        span_end.append(0.0)
                        stack.append(sid)
                        previous = current[0]
                        current[0] = layer_id
                        span_start.append(now())
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span_end[sid] = now()
                            stack.pop()
                            current[0] = previous
                    yield value

            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                counter[0] += 1
                if measure is not None:
                    counter[1] += measure(args, kwargs)
                if current[0] == layer_id or not stack:
                    return fn(*args, **kwargs)
                sid = len(span_start)
                span_layer.append(layer_id)
                span_parent.append(stack[-1])
                span_end.append(0.0)
                stack.append(sid)
                previous = current[0]
                current[0] = layer_id
                span_start.append(now())
                try:
                    return fn(*args, **kwargs)
                finally:
                    span_end[sid] = now()
                    stack.pop()
                    current[0] = previous

            wrapper = traced
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind it everywhere it is bound."""
        modules = sorted(
            (name, module)
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        )
        wrappers: Dict[int, Tuple[object, object]] = {}

        def add(fn, qualname: str, layer: str) -> None:
            if id(fn) not in wrappers:
                layer = FUNCTION_LAYERS.get(qualname, layer)
                wrappers[id(fn)] = (fn, self._wrap(fn, qualname, layer))

        classes = []
        for module_name, module in modules:
            layer = layer_of_module(module_name)
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    classes.append(obj)
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    add(obj, f"{module_name}.{obj.__qualname__}", layer)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    for attr, value in list(vars(obj).items()):
                        if _is_dunder(attr):
                            continue
                        fn = value.__func__ if isinstance(
                            value, (staticmethod, classmethod)
                        ) else value
                        if inspect.isfunction(fn):
                            add(fn, f"{module_name}.{fn.__qualname__}", layer)
        for qualname, layer in FUNCTION_LAYERS.items():
            module_name, _, name = qualname.rpartition(".")
            module = sys.modules.get(module_name)
            fn = getattr(module, name, None) if module is not None else None
            if inspect.isfunction(fn):
                add(fn, qualname, layer)

        # Rebind by identity wherever a module or class holds an original.
        owners = [module for _, module in modules] + classes
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
                fn = value.__func__ if kind is not None else value
                entry = wrappers.get(id(fn))
                if entry is None or entry[0] is not fn:
                    continue
                replacement = kind(entry[1]) if kind is not None else entry[1]
                try:
                    setattr(owner, attr, replacement)
                except (AttributeError, TypeError):
                    continue
                self._restore.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
