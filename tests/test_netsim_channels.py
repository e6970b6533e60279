"""Unit tests for classical channels."""

import pytest

from repro.netsim import (
    ClassicalChannel,
    LossyChannel,
    MS,
    Simulator,
    fibre_delay,
    fibre_transmissivity,
)
from repro.netsim.ports import subscribe


def make_channel(sim, **kwargs):
    channel = ClassicalChannel(sim, **kwargs)
    inbox_a, inbox_b = [], []
    subscribe(channel.port("a"), inbox_a.append)
    subscribe(channel.port("b"), inbox_b.append)
    return channel, inbox_a, inbox_b


def test_message_arrives_with_propagation_delay():
    sim = Simulator()
    channel, _, inbox_b = make_channel(sim, length_km=2.0)
    channel.ends[0].send("hello")
    sim.run()
    assert inbox_b == ["hello"]
    assert sim.now == pytest.approx(fibre_delay(2.0))


def test_bidirectional_delivery():
    sim = Simulator()
    channel, inbox_a, inbox_b = make_channel(sim, length_km=1.0)
    channel.ends[0].send("to-b")
    channel.ends[1].send("to-a")
    sim.run()
    assert inbox_a == ["to-a"]
    assert inbox_b == ["to-b"]


def test_in_order_delivery():
    sim = Simulator()
    channel, _, inbox_b = make_channel(sim, length_km=5.0)
    for i in range(20):
        sim.schedule(i * 10.0, channel.ends[0].send, i)
    sim.run()
    assert inbox_b == list(range(20))


def test_processing_delay_added():
    sim = Simulator()
    channel = ClassicalChannel(sim, length_km=0.0, processing_delay=3 * MS)
    received_at = []
    subscribe(channel.port("b"), lambda m: received_at.append(sim.now))
    channel.ends[0].send("x")
    sim.run()
    assert received_at == [3 * MS]


def test_processing_delay_change_does_not_reorder():
    # If the delay shrinks mid-flight, later messages must not overtake
    # earlier ones (TCP stream semantics).
    sim = Simulator()
    channel, _, inbox_b = make_channel(sim, length_km=0.0, processing_delay=10 * MS)
    channel.ends[0].send("first")

    def shrink_and_send():
        channel.processing_delay = 0.0
        channel.ends[0].send("second")

    sim.schedule(1 * MS, shrink_and_send)
    sim.run()
    assert inbox_b == ["first", "second"]


def test_send_without_receiver_raises():
    sim = Simulator()
    channel = ClassicalChannel(sim)
    channel.ends[0].send("x")
    with pytest.raises(RuntimeError):
        sim.run()


def test_message_counter():
    sim = Simulator()
    channel, _, _ = make_channel(sim)
    channel.ends[0].send(1)
    channel.ends[1].send(2)
    sim.run()
    assert channel.messages_sent == 2


def test_lossy_channel_drops_messages():
    sim = Simulator(seed=3)
    channel = LossyChannel(sim, loss_probability=0.5)
    inbox = []
    subscribe(channel.port("b"), inbox.append)
    subscribe(channel.port("a"), lambda m: None)
    for i in range(200):
        sim.schedule(float(i), channel.ends[0].send, i)
    sim.run()
    assert 0 < len(inbox) < 200
    assert channel.messages_dropped == 200 - len(inbox)
    # Delivered subsequence stays ordered.
    assert inbox == sorted(inbox)


def test_lossy_channel_validates_probability():
    sim = Simulator()
    with pytest.raises(ValueError):
        LossyChannel(sim, loss_probability=1.5)


def test_fibre_transmissivity_values():
    # 5 dB/km lab fibre: 1 km → 10^-0.5.
    assert fibre_transmissivity(1.0, 5.0) == pytest.approx(10 ** -0.5)
    # 25 km telecom fibre at 0.5 dB/km → 10^-1.25.
    assert fibre_transmissivity(25.0, 0.5) == pytest.approx(10 ** -1.25)
