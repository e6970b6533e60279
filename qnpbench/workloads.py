"""The benchmark's three workloads: seeded inputs, set-up, run, outcome.

Each workload is a batch simulation of a fixed input made from the
workload seed.  Set-up builds the network (``build``) and installs its
circuits (``install``); ``run`` simulates the request schedule, which is
open-loop in *simulated* time, and returns the run's outcome: the
behaviour fingerprint, the per-layer counts and the output checks.

``scale`` multiplies the simulated horizon; the benchmark runs scale 1
and the tests a small fraction of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Outcome keys that must repeat exactly for one seed (run to run, and
#: traced against untraced).
FINGERPRINT = ("sim.pairs_confirmed", "sim.pairs_per_sim_s",
               "sim.mean_fidelity", "sim.request_fail_ratio",
               "netsim.events", "linklayer.attempts", "linklayer.pairs",
               "core.swaps", "core.discarded", "core.expired",
               "network.arbiter_grants", "traffic.sessions_submitted",
               "traffic.sessions_completed", "obs.observations",
               "apps.pairs_consumed")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and what it is for."""

    name: str
    #: One line: why the workload is in the benchmark.
    why: str
    build: Callable
    install: Callable
    run: Callable


class TrafficRun:
    """A ``TrafficEngine`` workload: Poisson sessions on installed circuits."""

    def __init__(self, net, engine, horizon_s: float, drain_s: float):
        self.net = net
        self.engine = engine
        self.horizon_s = horizon_s
        self.drain_s = drain_s


def _traffic_install(state: TrafficRun) -> None:
    state.engine.install()


def _traffic_run(state: TrafficRun) -> dict:
    report = state.engine.run(horizon_s=state.horizon_s,
                              drain_s=state.drain_s)
    tallies = report.classes.values()
    submitted = sum(tally.submitted for tally in tallies)
    completed = sum(tally.completed for tally in tallies)
    mean_fidelity = report.mean_fidelity
    return _outcome(state.net,
                    pairs=report.total_confirmed_pairs,
                    pairs_per_sim_s=report.throughput_pairs_per_s,
                    mean_fidelity=0.0 if mean_fidelity is None
                    else mean_fidelity,
                    submitted=submitted, failed=submitted - completed)


def _grid_build(seed: int, scale: float) -> TrafficRun:
    from repro.traffic import TrafficEngine, build_topology

    net = build_topology("grid", 4, seed=seed, formalism="bell")
    engine = TrafficEngine(net, circuits=96, load=0.9, seed=seed,
                           min_hops=1, max_hops=1, max_sessions=40000)
    return TrafficRun(net, engine, horizon_s=0.5 * scale,
                      drain_s=0.2 * scale)


DUMBBELL_CIRCUITS = (("A0", "B0"), ("A1", "B1"))
DUMBBELL_APPS = ("qkd", "teleport")


def _dumbbell_build(seed: int, scale: float) -> TrafficRun:
    from repro.network.builder import build_dumbbell_network
    from repro.traffic import TrafficEngine

    net = build_dumbbell_network(seed=seed, formalism="dm")
    engine = TrafficEngine(net, circuits=2, load=0.9, seed=seed,
                           endpoint_pairs=DUMBBELL_CIRCUITS,
                           apps=list(DUMBBELL_APPS), cutoff_policy="short")
    return TrafficRun(net, engine, horizon_s=4.0 * scale,
                      drain_s=0.5 * scale)


def _dumbbell_run(state: TrafficRun) -> dict:
    from repro.apps import get_app

    # Routes are torn down by the run: read the installed targets first.
    circuits = state.engine.circuits
    qkd_targets = [state.net.route_of(circuit.circuit_id).target_fidelity
                   for circuit in circuits if circuit.app == "qkd"]
    outcome = _traffic_run(state)
    outcome["checks"]["both_circuits_installed"] = (
        {frozenset((circuit.head, circuit.tail)) for circuit in circuits}
        == {frozenset(pair) for pair in DUMBBELL_CIRCUITS})
    outcome["checks"]["qkd_circuit_meets_demand"] = bool(qkd_targets) and all(
        target >= get_app("qkd").min_fidelity for target in qkd_targets)
    return outcome


class NearTermRun:
    """The Fig 11 chain with a generated open-loop request schedule."""

    PATH = ("node0", "node1", "node2")
    LINK_FIDELITY = 0.8
    CUTOFF_S = 3.0
    #: Offered pairs per simulated second, below the circuit's measured
    #: capacity (about 0.24 pairs/s with the queue never empty).
    OFFERED_PAIRS_PER_S = 0.15

    def __init__(self, net, seed: int, horizon_s: float, drain_s: float):
        self.net = net
        self.horizon_s = horizon_s
        self.drain_s = drain_s
        self.circuit_id = None
        self.handles: list = []
        rng = random.Random(seed)
        mean_gap_s = 2.0 / self.OFFERED_PAIRS_PER_S
        self.schedule: list = []
        t_s = rng.expovariate(1.0 / mean_gap_s)
        while t_s < horizon_s:
            self.schedule.append((t_s, rng.randint(1, 3)))
            t_s += rng.expovariate(1.0 / mean_gap_s)

    def submit(self, num_pairs: int) -> None:
        from repro.core import UserRequest

        self.handles.append(self.net.submit(
            self.circuit_id, UserRequest(num_pairs=num_pairs),
            record_fidelity=True))


def _nearterm_build(seed: int, scale: float) -> NearTermRun:
    from repro.network.builder import build_near_term_chain

    net = build_near_term_chain(num_nodes=3, length_km=25.0, seed=seed,
                                formalism="bell")
    return NearTermRun(net, seed, horizon_s=10000.0 * scale,
                       drain_s=300.0)


def _nearterm_install(state: NearTermRun) -> None:
    from repro.netsim.units import S

    state.circuit_id = state.net.establish_circuit_manual(
        path=list(state.PATH), link_fidelity=state.LINK_FIDELITY,
        cutoff=state.CUTOFF_S * S, max_eer=5.0, estimated_fidelity=0.55)


def _nearterm_run(state: NearTermRun) -> dict:
    from repro.core import RequestStatus
    from repro.netsim.units import S

    net = state.net
    start_ns = net.sim.now
    for t_s, num_pairs in state.schedule:
        net.sim.schedule_at(start_ns + t_s * S, state.submit, num_pairs)
    net.run(until_s=(start_ns / S) + state.horizon_s)
    pending = [handle for handle in state.handles
               if handle.status in (RequestStatus.ACTIVE,
                                    RequestStatus.QUEUED)]
    net.run_until_complete(pending,
                           deadline_s=net.sim.now / S + state.drain_s)
    elapsed_s = (net.sim.now - start_ns) / S
    fidelities = [pair.fidelity for handle in state.handles
                  for pair in handle.matched_pairs]
    failed = sum(1 for handle in state.handles
                 if handle.status != RequestStatus.COMPLETED)
    outcome = _outcome(
        net, pairs=len(fidelities),
        pairs_per_sim_s=len(fidelities) / elapsed_s,
        mean_fidelity=sum(fidelities) / max(len(fidelities), 1),
        submitted=len(state.handles), failed=failed)
    entangled = sum(1 for fidelity in fidelities if fidelity > 0.5)
    outcome["checks"]["most_pairs_entangled"] = (
        entangled * 2 > len(fidelities))
    outcome["counts"]["sim.pairs_entangled"] = entangled
    return outcome


def _outcome(net, *, pairs: int, pairs_per_sim_s: float,
             mean_fidelity: float, submitted: int, failed: int) -> dict:
    """Counts every workload reports, from the public registry snapshot."""
    snapshot = net.obs.snapshot()
    counters = snapshot["counters"]

    def count(name: str):
        return counters.get(name, 0)

    link_pairs = count("egp.pairs_generated")
    counts = {
        "sim.pairs_confirmed": pairs,
        "sim.pairs_per_sim_s": pairs_per_sim_s,
        "sim.mean_fidelity": mean_fidelity,
        "sim.request_fail_ratio": failed / submitted if submitted else 0.0,
        "sim.requests_submitted": submitted,
        "netsim.events": net.sim.events_processed,
        "linklayer.attempts": count("egp.attempts"),
        "linklayer.pairs": link_pairs,
        "core.swaps": count("qnp.swaps"),
        "core.discarded": count("qnp.pairs_discarded"),
        "core.expired": count("qnp.pairs_expired"),
        "network.arbiter_grants": count("arbiter.grants"),
        "network.arbiter_wait_sim_s": count("arbiter.wait_ns") / 1e9,
        "traffic.sessions_submitted": count("traffic.sessions_submitted"),
        "traffic.sessions_completed": count("traffic.sessions_completed"),
        "obs.observations": sum(hist.get("count", 0)
                                for hist in snapshot["hists"].values()),
        "apps.pairs_consumed": count("apps.pairs_consumed"),
    }
    checks = {
        "pairs_confirmed": pairs > 0,
        "pairs_within_link_pairs": pairs <= link_pairs,
        "requests_submitted": submitted > 0,
    }
    return {"counts": counts, "checks": checks}


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="grid_soak",
            why=("pair-rate stress: 96 single-hop circuits, 4x4 grid, bell, "
                 "load 0.9; loads linklayer chains, core delivery, traffic "
                 "and obs; no swaps, idle arbiter"),
            build=_grid_build, install=_traffic_install, run=_traffic_run),
        Workload(
            name="dumbbell_dm",
            why=("Fig 7 dumbbell, exact dm, short cutoff, qkd+teleport apps, "
                 "load 0.9; loads quantum, swap/cutoff/expire in core, apps "
                 "and routing set-up"),
            build=_dumbbell_build, install=_traffic_install,
            run=_dumbbell_run),
        Workload(
            name="nearterm_chain",
            why=("Fig 11 chain on NEAR_TERM hardware, manual route, open-loop "
                 "1-3 pair requests; loads netsim, network arbiter, quantum; "
                 "bypasses traffic, obs, apps, routing"),
            build=_nearterm_build, install=_nearterm_install,
            run=_nearterm_run),
    )
}
