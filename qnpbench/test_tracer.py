"""Tests of the benchmark's tracer and workloads.

    python -m pytest qnpbench -q
"""

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer as layer_tracer  # noqa: E402
from repro.core.requests import UserRequest  # noqa: E402
from repro.netsim.ports import CallbackComponent, _Unpack, connect  # noqa: E402
from repro.netsim.scheduler import Simulator  # noqa: E402
from repro.quantum.analytic import werner_weights  # noqa: E402
from repro.traffic.topologies import grid_graph  # noqa: E402
from workloads import FINGERPRINT, WORKLOADS  # noqa: E402


class FakeClock:
    """Nanosecond clock that moves only when a test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def traced():
    """A tracer installed on the ``repro`` package, removed afterwards."""
    clock = FakeClock()
    tracer = layer_tracer.LayerTracer(clock)
    patches = layer_tracer.install(tracer)
    try:
        yield tracer, clock
    finally:
        patches.restore()


def nonzero(counts: dict) -> dict:
    return {layer: value for layer, value in counts.items() if value}


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = layer_tracer.LayerTracer(clock)

    def quantum_op():
        clock.advance(30)

    def core_event():
        clock.advance(10)
        tracer.call("quantum", quantum_op)
        clock.advance(5)
        # Re-entering the open layer is part of its span, not a new one.
        tracer.call("core", clock.advance, 7)

    def scheduler_loop():
        clock.advance(2)
        tracer.call("core", core_event)
        clock.advance(3)

    tracer.call("netsim", scheduler_loop)
    assert nonzero(tracer.self_ns) == {"netsim": 5, "core": 22,
                                       "quantum": 30}
    assert nonzero(tracer.calls) == {"netsim": 1, "core": 1, "quantum": 1}
    assert sum(tracer.self_ns.values()) == clock.now


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = layer_tracer.LayerTracer(clock)

    def failing():
        clock.advance(4)
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.call("core", failing)
    assert tracer.self_ns["core"] == 4
    tracer.reset()  # the stack is empty again
    assert tracer.self_ns["core"] == 0


def test_nested_schedule_through_the_scheduler(traced):
    tracer, clock = traced
    sim = Simulator(seed=1)

    def tail_event():
        clock.advance(6)

    def head_event():
        clock.advance(4)
        sim.schedule(5.0, tail_event)

    sim.schedule_at(1.0, head_event)
    sim.post_at(2.0, grid_graph, 2)
    tracer.reset()
    sim.run()
    # Test-module callbacks are unowned: counted as "other", not dropped.
    assert tracer.self_ns["other"] == 10
    assert tracer.calls["other"] == 2
    assert tracer.calls["traffic"] == 1
    assert tracer.calls["netsim"] == 1
    assert sum(tracer.self_ns.values()) == clock.now


def _fire_once(tracer, callback, *args) -> dict:
    sim = Simulator(seed=1)
    sim.schedule_at(0.0, callback, *args)
    tracer.reset()
    sim.run()
    calls = nonzero(tracer.calls)
    assert calls.pop("netsim") == 1  # the Simulator.run span
    return calls


@pytest.mark.parametrize("kind, make_callback, args, layer", [
    ("bound method", lambda: UserRequest(num_pairs=2).minimum_eer, (),
     "core"),
    ("function", lambda: grid_graph, (2,), "traffic"),
    ("leaf-layer function", lambda: werner_weights, (0.9,), "quantum"),
    ("partial", lambda: functools.partial(grid_graph, 2), (), "traffic"),
    ("_Unpack adapter", lambda: _Unpack(grid_graph), ((2,),), "traffic"),
    ("lambda", lambda: (lambda: None), (), "other"),
])
def test_scheduled_callback_kinds_are_tagged(traced, kind, make_callback,
                                             args, layer):
    tracer, _ = traced
    assert _fire_once(tracer, make_callback(), *args) == {layer: 1}, kind


def test_port_handler_is_tagged_with_the_receiving_layer(traced):
    tracer, _ = traced
    sender = CallbackComponent(None, "test", name="sender")
    receiver = CallbackComponent(grid_graph, "test", name="receiver")
    connect(sender.io, receiver.io)
    # The event runs CallbackComponent.tx (netsim, already open); the
    # Port.tx span inside it carries the handler's layer.
    assert _fire_once(tracer, sender.tx, 2) == {"traffic": 1}


def test_listener_registration_is_tagged(traced):
    tracer, _ = traced
    from repro.core.requests import RequestHandle

    handle = RequestHandle(UserRequest(num_pairs=1))
    handle.on_delivery(functools.partial(grid_graph))
    tracer.reset()
    handle._notify(2)
    assert nonzero(tracer.calls) == {"traffic": 1}


def test_benchmark_reports_the_tracer_layers():
    assert run.LAYERS == layer_tracer.LAYERS


def test_layer_of_modules():
    assert layer_tracer.layer_of_module("repro.services.qkd") == "apps"
    assert layer_tracer.layer_of_module("repro.analysis.stats") == "obs"
    assert layer_tracer.layer_of_module("repro.analysis.tracing") == "other"
    assert layer_tracer.layer_of_module("repro.persist.checkpoint") == "other"
    assert layer_tracer.layer_of_module("numpy") == "other"


def test_restore_undoes_every_patch():
    import repro.quantum.analytic as analytic
    from repro.netsim.ports import Port

    before = (Simulator.schedule_at, Port.tx, analytic.werner_weights)
    patches = layer_tracer.install(layer_tracer.LayerTracer())
    assert Simulator.schedule_at is not before[0]
    patches.restore()
    assert (Simulator.schedule_at, Port.tx,
            analytic.werner_weights) == before


def _fingerprint(name: str, seed: int, traced_run: bool) -> dict:
    workload = WORKLOADS[name]
    patches = (layer_tracer.install(layer_tracer.LayerTracer())
               if traced_run else None)
    try:
        state = workload.build(seed, 0.05)
        workload.install(state)
        outcome = workload.run(state)
    finally:
        if patches is not None:
            patches.restore()
    assert all(outcome["checks"].values()), outcome["checks"]
    return {key: outcome["counts"][key] for key in FINGERPRINT}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_repeats_per_seed_and_tracing_does_not_move_it(name):
    first = _fingerprint(name, 3, traced_run=False)
    assert _fingerprint(name, 3, traced_run=True) == first
    assert _fingerprint(name, 4, traced_run=False) != first


def test_manifest_matches_benchmark_json():
    committed = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


def test_a_failed_check_or_moved_fingerprint_fails_the_run():
    counts = {key: 1 for key in FINGERPRINT}
    sample = {"checks": {"pairs_confirmed": True}, "counts": counts}
    moved = dict(sample, counts=dict(counts, **{"netsim.events": 2}))
    failed = dict(sample, checks={"pairs_confirmed": False})
    assert run.validate([sample, sample], [sample], []) == []
    assert run.validate([sample], [moved], [])
    assert run.validate([failed], [], [])
    assert run.validate([], [], [])
