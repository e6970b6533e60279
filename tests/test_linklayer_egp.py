"""Integration tests for the link layer EGP over simulated hardware."""

import hashlib

import numpy as np
import pytest

from repro.hardware import HeraldedConnection, NEAR_TERM, SIMULATION, SingleClickModel
from repro.linklayer import Link
from repro.netsim import S, Simulator
from repro.netsim.ports import subscribe
from repro.network import QuantumNode
from repro.quantum import BellIndex, pair_fidelity


def make_link(seed=1, params=SIMULATION, length_km=0.002, slice_attempts=100):
    sim = Simulator(seed=seed)
    node_a = QuantumNode(sim, "alice", params)
    node_b = QuantumNode(sim, "bob", params)
    model = SingleClickModel(params, HeraldedConnection.lab(length_km))
    link = Link(sim, "alice-bob", node_a, node_b, model, slice_attempts)
    node_a.attach_link(link, "bob")
    node_b.attach_link(link, "alice")
    inbox_a, inbox_b = [], []
    on_delivery(link, "alice", inbox_a.append)
    on_delivery(link, "bob", inbox_b.append)
    return sim, link, node_a, node_b, inbox_a, inbox_b


def on_delivery(link, node_name, handler):
    """(Re)wire one endpoint's pair-delivery port to a plain callback."""
    port = link.delivery_port(node_name)
    port.disconnect()
    subscribe(port, handler)


def drain(node, delivery):
    """Consume a delivered pair: free its slot so generation continues."""
    node.qmm.free(delivery.entanglement_id)


def test_generates_pairs_at_both_ends():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link()
    on_delivery(link, "alice", lambda d: (inbox_a.append(d), drain(node_a, d)))
    on_delivery(link, "bob", lambda d: (inbox_b.append(d), drain(node_b, d)))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert len(inbox_a) == len(inbox_b) > 5
    first_a, first_b = inbox_a[0], inbox_b[0]
    assert first_a.entanglement_id == first_b.entanglement_id
    assert first_a.bell_index == first_b.bell_index
    assert first_a.qubit is not first_b.qubit


def test_delivered_pairs_meet_min_fidelity():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=3)
    on_delivery(link, "alice", inbox_a.append)
    on_delivery(link, "bob", inbox_b.append)
    link.set_request("vc0", min_fidelity=0.95, lpr=50.0)
    sim.run(until=0.5 * S)
    assert inbox_a, "no pairs generated"
    for delivery_a, delivery_b in zip(inbox_a, inbox_b):
        fidelity = pair_fidelity(delivery_a.qubit, delivery_b.qubit,
                                 delivery_a.bell_index)
        assert fidelity >= 0.95 - 1e-6
        assert delivery_a.goodness >= 0.95
        assert delivery_a.bell_index in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS)
        drain(node_a, delivery_a)
        drain(node_b, delivery_b)
        sim.run(until=sim.now)  # let the link restart


def test_generation_stalls_when_memory_full():
    # Capacity is 2 comm qubits per link end; without consuming pairs the
    # link must stop after two.
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=5)
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=2 * S)
    assert len(inbox_a) == 2
    assert node_a.qmm.free_comm("alice-bob") == 0
    # Freeing one pair resumes generation.
    drain(node_a, inbox_a[0])
    drain(node_b, inbox_b[0])
    sim.run(until=4 * S)
    assert len(inbox_a) >= 3


def test_mean_generation_time_matches_model():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=7)
    times = []
    last = [0.0]

    def consume(delivery):
        times.append(sim.now - last[0])
        last[0] = sim.now
        drain(node_a, delivery)

    on_delivery(link, "alice", consume)
    on_delivery(link, "bob", lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.95, lpr=50.0)
    sim.run(until=20 * S)
    alpha = link.model.alpha_for_fidelity(0.95)
    expected = link.model.expected_pair_time(alpha)
    measured = sum(times) / len(times)
    assert measured == pytest.approx(expected, rel=0.2)


def test_fidelity_rate_tradeoff_visible_end_to_end():
    results = {}
    for fidelity in (0.85, 0.95):
        sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=11)
        on_delivery(link, "alice", lambda d, n=node_a: drain(n, d))
        count = []
        on_delivery(link, "bob", lambda d, n=node_b: (count.append(1), drain(n, d)))
        link.set_request("vc0", min_fidelity=fidelity, lpr=50.0)
        sim.run(until=5 * S)
        results[fidelity] = len(count)
    assert results[0.85] > 1.5 * results[0.95]


def test_two_purposes_share_link_time():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=13)
    counts = {"vc0": 0, "vc1": 0}

    def consume(delivery):
        counts[delivery.purpose_id] += 1
        drain(node_a, delivery)

    on_delivery(link, "alice", consume)
    on_delivery(link, "bob", lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    link.set_request("vc1", min_fidelity=0.9, lpr=50.0)
    sim.run(until=10 * S)
    total = counts["vc0"] + counts["vc1"]
    assert total > 20
    assert counts["vc0"] == pytest.approx(counts["vc1"], rel=0.35)


def test_equal_time_share_means_unequal_pair_counts():
    """A higher-fidelity circuit gets the same time but fewer pairs."""
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=17)
    counts = {"hi": 0, "lo": 0}

    def consume(delivery):
        counts[delivery.purpose_id] += 1
        drain(node_a, delivery)

    on_delivery(link, "alice", consume)
    on_delivery(link, "bob", lambda d: drain(node_b, d))
    link.set_request("hi", min_fidelity=0.95, lpr=50.0)
    link.set_request("lo", min_fidelity=0.85, lpr=50.0)
    sim.run(until=20 * S)
    assert counts["lo"] > 1.5 * counts["hi"]


def test_end_request_stops_generation():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=19)
    on_delivery(link, "alice", lambda d: drain(node_a, d))
    seen = []
    on_delivery(link, "bob", lambda d: (seen.append(1), drain(node_b, d)))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert seen
    link.end_request("vc0")
    count_at_stop = len(seen)
    sim.run(until=3 * S)
    # At most one in-flight round can still complete.
    assert len(seen) <= count_at_stop + 1
    assert not link.has_request("vc0")


def test_set_request_updates_existing():
    sim, link, *_ = make_link()
    link.set_request("vc0", min_fidelity=0.9, lpr=10.0)
    link.set_request("vc0", min_fidelity=0.85, lpr=20.0)
    assert link.has_request("vc0")


def test_infeasible_fidelity_raises():
    sim, link, *_ = make_link()
    with pytest.raises(ValueError):
        link.set_request("vc0", min_fidelity=0.9999, lpr=10.0)


def test_max_lpr_estimate():
    sim, link, *_ = make_link()
    # ~10 ms per pair at F=0.95 → on the order of 100 pairs/s.
    assert 30 < link.max_lpr(0.95) < 300
    assert link.max_lpr(0.85) > link.max_lpr(0.95)


def test_near_term_serializes_device():
    """With one comm qubit and serial devices, generation still works."""
    sim = Simulator(seed=23)
    node_a = QuantumNode(sim, "a", NEAR_TERM)
    node_b = QuantumNode(sim, "b", NEAR_TERM)
    model = SingleClickModel(NEAR_TERM, HeraldedConnection.telecom(25.0))
    link = Link(sim, "a-b", node_a, node_b, model, slice_attempts=1000)
    node_a.attach_link(link, "b")
    node_b.attach_link(link, "a")
    seen = []

    def consume_b(delivery):
        seen.append(delivery)
        node_b.qmm.free(delivery.entanglement_id)

    on_delivery(link, "a", lambda d: node_a.qmm.free(d.entanglement_id))
    on_delivery(link, "b", consume_b)
    link.set_request("vc0", min_fidelity=0.7, lpr=1.0)
    sim.run(until=60 * S)
    assert len(seen) >= 2


def _run_telemetry(seed=31, until=5 * S, script=None):
    """Full delivery trace of one link run; ``script`` mutates mid-run."""
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=seed)
    trace = []

    def consume(end, node):
        def handler(delivery):
            trace.append((end, sim.now, delivery.entanglement_id,
                          int(delivery.bell_index), delivery.purpose_id,
                          round(delivery.goodness, 12)))
            drain(node, delivery)
        return handler

    on_delivery(link, "alice", consume("a", node_a))
    on_delivery(link, "bob", consume("b", node_b))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    if script:
        script(sim, link)
    sim.run(until=until)
    return trace, link


def _assert_golden(trace, link, entries, attempts, pairs, busy_ns, digest):
    assert (len(trace), link.attempts_made, link.pairs_generated,
            link.busy_time) == (entries, attempts, pairs, busy_ns)
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest


class TestRngBlockEquivalence:
    """The EGP refills a 256-draw uniform block from its per-link stream;
    block draws must equal the same generator's sequential draws or the
    buffer would change the trajectory."""

    def test_block_equals_sequential(self):
        block = np.random.default_rng(1234).random(64)
        sequential = [np.random.default_rng(1234).random()
                      for _ in range(1)]  # first draw sanity
        assert block[0] == sequential[0]
        rng = np.random.default_rng(1234)
        one_by_one = np.array([rng.random() for _ in range(64)])
        np.testing.assert_array_equal(block, one_by_one)


class TestDeliveryTraceGolden:
    """Seeded delivery traces of the event-per-slice EGP, pinned exactly.

    Each case pins (trace entries, attempts, pairs, busy ns) and a sha256
    of the full delivery trace (end, time, entanglement ID, Bell index,
    purpose, goodness).  Any change to the per-link draw order, the slice
    loop or the WRR scheduler shows up here.
    """

    def test_steady_state_trace(self):
        _assert_golden(
            *_run_telemetry(), 1898, 474336, 949, 4999975776.0,
            "e5209c3dfbf09da05b0ad8995cdc1944"
            "1589e3f785906c4097bb678d936e5462")

    def test_trace_across_seeds(self):
        goldens = {
            1: (1904, 474331, 952, 4999923071.0,
                "fa6e92b3f2c61c51240d6b3de6c1be49"
                "3b6207ba7f8476ec75f73f3962cf234a"),
            7: (1908, 474255, 954, 4999121955.0,
                "6f9bee68bd6d7099b3d6fc7ca8b3bb87"
                "38c359511f9277bf0ca55456d225e467"),
            12: (2042, 474300, 1021, 4999596300.0,
                 "9c14b5a69883ff90f259316a9f03deee"
                 "4579b9650b66233906b1acd1b4d87d1a"),
        }
        for seed, golden in goldens.items():
            _assert_golden(*_run_telemetry(seed=seed), *golden)

    def test_mid_run_set_request(self):
        # A second purpose arrives at an arbitrary (non-boundary) time.
        def script(sim, link):
            sim.schedule(0.23 * S,
                         lambda: link.set_request("vc1", min_fidelity=0.9,
                                                  lpr=50.0))

        trace, link = _run_telemetry(script=script)
        _assert_golden(trace, link, 1898, 474336, 949, 4999975776.0,
                       "c840afcf603cd0870198db6d2028df8c"
                       "ac55323e35a8e9c2008b7715f6b56611")
        assert {entry[4] for entry in trace} == {"vc0", "vc1"}

    def test_mid_run_end_request(self):
        def script(sim, link):
            sim.schedule(0.31 * S, link.end_request, "vc0")

        _assert_golden(*_run_telemetry(script=script),
                       128, 29498, 64, 310938418.0,
                       "492e53b3bebcbddd20212376f489b8c0"
                       "a1d3e4a533e65388365e0b6be1267ce3")

    def test_wrr_two_purposes(self):
        def script(sim, link):
            link.set_request("vc1", min_fidelity=0.85, lpr=50.0)

        _assert_golden(*_run_telemetry(seed=41, script=script),
                       2438, 474299, 1219, 4999585759.0,
                       "8a0b8433e42db747951669627a6dd0e1"
                       "33769a81ef7523a6695fea626bb5721c")


def test_statistics_counters():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=29)
    on_delivery(link, "alice", lambda d: drain(node_a, d))
    on_delivery(link, "bob", lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert link.pairs_generated > 0
    assert link.attempts_made >= link.pairs_generated
    assert 0 < link.busy_time <= 1 * S
