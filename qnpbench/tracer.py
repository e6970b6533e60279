"""Outside-in wall-time tracer: per-layer self time of a simulation run.

The tracer never edits ``src/``.  It patches public entry points of the
installed ``repro`` package for the duration of a traced run and opens a
*span* around every call that crosses into a layer:

* every event callback, wrapped where the scheduler accepts it
  (``Simulator.schedule_at`` / ``post_at``) and tagged with the package
  that owns the callback;
* every ``Port.tx``, tagged with the receiving handler's package;
* every synchronous listener registered on a request handle, a QNP
  application slot or a memory manager, tagged with the listener's
  package;
* the run calls (``Simulator.run``, ``TrafficEngine.run``/``install``
  and the ``Network`` circuit and run calls);
* every public function and public method defined in the leaf layers
  (``quantum``, ``hardware``, ``obs`` with ``analysis.stats``,
  ``control`` and ``apps`` with ``services``), rebound wherever ``repro``
  modules imported them by name.

A layer's self time is the wall time of its spans minus the time of
their child spans.  Time inside a callable that no ``repro`` package owns
is counted under ``other``, never dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from enum import Enum

from repro.netsim.ports import _Unpack

#: The ``src/repro`` packages on the simulation hot path, in stack order.
LAYERS = ("netsim", "hardware", "linklayer", "network", "core", "quantum",
          "control", "traffic", "apps", "obs")
#: Bucket for callables that no layer owns.
OTHER = "other"

#: Packages folded into a layer of another name.
_ALIASES = {"services": "apps", "analysis.stats": "obs"}
#: Layers whose public functions and methods get synchronous spans.
_LEAF_PACKAGES = ("quantum", "hardware", "obs", "analysis.stats", "control",
                  "apps", "services")
#: Push-style registry updates: a span costs several times their body, so
#: their few hundred nanoseconds stay with the caller.
_UNSPANNED = {("Counter", "inc"), ("Gauge", "set")}


@functools.cache
def layer_of_module(module) -> str:
    """Layer owning a module named ``module`` (``other`` outside repro)."""
    if isinstance(module, str) and module.startswith("repro."):
        parts = module.split(".")
        for key in (".".join(parts[1:3]), parts[1]):
            if key in _ALIASES:
                return _ALIASES[key]
            if key in LAYERS:
                return key
    return OTHER


def _unwrap(callback):
    """Strip the adapters that only forward a call to another callable."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
        elif isinstance(callback, _Unpack):
            callback = callback.handler
        elif isinstance(callback, _Listener):
            callback = callback.callback
        else:
            return callback


def layer_of(callback) -> str:
    """Layer owning the code ``callback`` runs.

    Bound methods belong to the module that defines the function (not the
    instance's class), partials and ``_Unpack`` adapters to what they
    forward to, callable objects to their class's module.
    """
    target = _unwrap(callback)
    function = getattr(target, "__func__", target)
    if isinstance(function, (types.FunctionType, type)):
        return layer_of_module(function.__module__)
    if isinstance(function, (types.BuiltinFunctionType,
                             types.BuiltinMethodType)):
        return OTHER
    return layer_of_module(type(target).__module__)


class LayerTracer:
    """Span stack accumulating per-layer self time and entry counts.

    ``calls`` counts entries into a layer: spans opened from another
    layer (or from no span).  ``clock`` returns integer nanoseconds;
    tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack: list = []
        self.self_ns: dict = {}
        self.calls: dict = {}
        self.reset()

    def reset(self) -> None:
        """Zero every layer's totals (only between top-level spans)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.self_ns = {layer: 0 for layer in (*LAYERS, OTHER)}
        self.calls = {layer: 0 for layer in (*LAYERS, OTHER)}

    def call(self, layer: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span of ``layer``.

        A call made from inside a span of the same layer opens no span of
        its own: its time is that span's self time either way, and the
        clock reads would only inflate it.
        """
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return function(*args, **kwargs)
        clock = self.clock
        frame = [layer, 0]
        stack.append(frame)
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            self.self_ns[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed

    def listener(self, callback):
        """``callback`` wrapped in a span of the layer that owns it."""
        if callback is None:
            return None
        return _Listener(self, layer_of(callback), callback)


class _Listener:
    """A registered synchronous callback that opens a span when called."""

    __slots__ = ("tracer", "layer", "callback")

    def __init__(self, tracer: LayerTracer, layer: str, callback):
        self.tracer = tracer
        self.layer = layer
        self.callback = callback

    def __call__(self, *args, **kwargs):
        return self.tracer.call(self.layer, self.callback, *args, **kwargs)


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name``; a replacement function takes over the
        original's name and module, so :func:`layer_of` still sees the
        layer that owns the code."""
        original = owner.__dict__[name]
        if isinstance(original, types.FunctionType):
            functools.update_wrapper(value, original)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _spanned(tracer: LayerTracer, layer: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        return tracer.call(layer, function, *args, **kwargs)

    return traced


def _patch_scheduler(tracer: LayerTracer, patches: Patches) -> None:
    from repro.netsim.scheduler import Simulator

    schedule_at, post_at = Simulator.schedule_at, Simulator.post_at
    call = tracer.call

    def traced_schedule_at(sim, when, callback, *args):
        return schedule_at(sim, when, call, layer_of(callback), callback,
                           *args)

    def traced_post_at(sim, when, callback, *args):
        post_at(sim, when, call, layer_of(callback), callback, *args)

    patches.set(Simulator, "schedule_at", traced_schedule_at)
    patches.set(Simulator, "post_at", traced_post_at)
    patches.set(Simulator, "run", _spanned(tracer, "netsim", Simulator.run))


def _patch_ports(tracer: LayerTracer, patches: Patches) -> None:
    from repro.netsim.ports import Port

    tx = Port.tx

    def traced_tx(port, message):
        peer = port.peer
        handler = None if peer is None else peer.handler
        layer = OTHER if handler is None else layer_of(handler)
        return tracer.call(layer, tx, port, message)

    patches.set(Port, "tx", traced_tx)


def _patch_listeners(tracer: LayerTracer, patches: Patches) -> None:
    from repro.core.qnp import QNPNode
    from repro.core.requests import RequestHandle
    from repro.network.builder import Network
    from repro.network.qmm import QuantumMemoryManager

    on_delivery = RequestHandle.on_delivery
    register_application = QNPNode.register_application
    on_slot_freed = QuantumMemoryManager.on_slot_freed
    submit = Network.submit
    wrap = tracer.listener

    def traced_on_delivery(handle, callback):
        on_delivery(handle, wrap(callback))

    def traced_register_application(qnp, identifier, callback):
        register_application(qnp, identifier, wrap(callback))

    def traced_on_slot_freed(qmm, listener):
        on_slot_freed(qmm, wrap(listener))

    def traced_submit(net, circuit_id, request, *args, on_matched=None,
                      **kwargs):
        return tracer.call("network", submit, net, circuit_id, request,
                           *args, on_matched=wrap(on_matched), **kwargs)

    patches.set(RequestHandle, "on_delivery", traced_on_delivery)
    patches.set(QNPNode, "register_application", traced_register_application)
    patches.set(QuantumMemoryManager, "on_slot_freed", traced_on_slot_freed)
    patches.set(Network, "submit", traced_submit)


def _patch_run_calls(tracer: LayerTracer, patches: Patches) -> None:
    from repro.network.builder import Network
    from repro.traffic.workload import TrafficEngine

    for name in ("run", "install"):
        patches.set(TrafficEngine, name,
                    _spanned(tracer, "traffic", getattr(TrafficEngine, name)))
    for name in ("establish_circuit", "establish_circuit_manual",
                 "run", "run_until_complete", "teardown_circuit"):
        patches.set(Network, name,
                    _spanned(tracer, "network", getattr(Network, name)))


def _leaf_modules() -> list:
    """Every module of the leaf packages, imported."""
    modules = []
    for leaf in _LEAF_PACKAGES:
        package = importlib.import_module(f"repro.{leaf}")
        modules.append(package)
        for info in pkgutil.iter_modules(getattr(package, "__path__", ()),
                                         f"{package.__name__}."):
            modules.append(importlib.import_module(info.name))
    return modules


def _patch_leaf_layers(tracer: LayerTracer, patches: Patches) -> None:
    """Span every public function and method the leaf layers define."""
    replaced: dict = {}
    for module in _leaf_modules():
        layer = layer_of_module(module.__name__)
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__",
                                                None) != module.__name__:
                continue
            if isinstance(value, types.FunctionType):
                replaced[id(value)] = (value, _spanned(tracer, layer, value))
            elif (inspect.isclass(value) and not issubclass(value, Enum)
                  and not issubclass(value, BaseException)):
                _patch_methods(tracer, patches, value, layer)
    for module in [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]:
        for name, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                patches.set(module, name, entry[1])


def _patch_methods(tracer: LayerTracer, patches: Patches, cls: type,
                   layer: str) -> None:
    for name, value in list(vars(cls).items()):
        if name.startswith("_") or (cls.__name__, name) in _UNSPANNED:
            continue
        if isinstance(value, types.FunctionType):
            patches.set(cls, name, _spanned(tracer, layer, value))
        elif isinstance(value, (staticmethod, classmethod)):
            patches.set(cls, name, type(value)(
                _spanned(tracer, layer, value.__func__)))


def install(tracer: LayerTracer) -> Patches:
    """Patch the loaded ``repro`` package to report into ``tracer``.

    Returns the patch record; call its ``restore()`` to undo everything.
    """
    patches = Patches()
    try:
        _patch_leaf_layers(tracer, patches)
        _patch_scheduler(tracer, patches)
        _patch_ports(tracer, patches)
        _patch_listeners(tracer, patches)
        _patch_run_calls(tracer, patches)
    except BaseException:
        patches.restore()
        raise
    return patches
