"""Tests for the density-matrix state container."""

import random

import numpy as np
import pytest

from repro.quantum import (
    CNOT,
    H,
    QState,
    Qubit,
    X,
    Z,
    bell_vector,
    depolarizing_kraus,
)


def fresh(n):
    return [Qubit(f"q{i}") for i in range(n)]


def test_ground_state():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    assert state.num_qubits == 1
    assert state.dm[0, 0] == pytest.approx(1.0)
    assert qubit.state is state
    assert qubit.index == 0


def test_from_pure_rejects_unnormalised():
    (qubit,) = fresh(1)
    with pytest.raises(ValueError):
        QState.from_pure(np.array([1.0, 1.0]), [qubit])


def test_dm_shape_must_match_qubits():
    qubits = fresh(2)
    with pytest.raises(ValueError):
        QState(np.eye(2) / 2, qubits)


def test_qubit_cannot_join_two_states():
    (qubit,) = fresh(1)
    QState.ground(qubit)
    with pytest.raises(ValueError):
        QState.ground(qubit)


def test_hadamard_then_cnot_builds_phi_plus():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    expected = np.outer(bell_vector(0), bell_vector(0).conj())
    assert np.allclose(state.dm, expected, atol=1e-12)


def test_apply_unitary_respects_target_order():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qb])
    state.apply_unitary(CNOT, [qb, qa])  # control qb, target qa
    # Measuring both should be perfectly correlated.
    dm = state.dm
    assert dm[0b00, 0b00] == pytest.approx(0.5)
    assert dm[0b11, 0b11] == pytest.approx(0.5)


def test_apply_channel_depolarizes():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.apply_channel(depolarizing_kraus(1.0), [qubit])
    # Full depolarizing with p=1 applies X/Y/Z uniformly: populations 1/3, 2/3.
    assert state.dm[0, 0] == pytest.approx(1.0 / 3.0)
    assert state.dm[1, 1] == pytest.approx(2.0 / 3.0)
    assert state.is_valid()


def test_measure_collapses_and_removes():
    rng = random.Random(1)
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    outcome_a = state.measure(qa, rng)
    assert qa.state is None
    assert state.num_qubits == 1
    outcome_b = state.measure(qb, rng)
    assert outcome_a == outcome_b  # Φ+ correlations


def test_measure_statistics_on_plus_state():
    rng = random.Random(42)
    counts = [0, 0]
    for _ in range(400):
        (qubit,) = fresh(1)
        state = QState.ground(qubit)
        state.apply_unitary(H, [qubit])
        counts[state.measure(qubit, rng)] += 1
    assert 140 < counts[0] < 260


def test_remove_traces_out():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    state.remove(qa)
    # Remaining qubit is maximally mixed.
    assert np.allclose(state.dm, np.eye(2) / 2, atol=1e-12)
    assert qb.index == 0
    state.remove(qb)  # the last qubit: nothing left to trace over
    assert state.qubits == [] and qb.state is None
    assert state.dm.tolist() == [[1.0]]


def test_reduced_dm_of_pair_inside_larger_state():
    qa, qb, qc = fresh(3)
    state = QState.merge(QState.merge(QState.ground(qa), QState.ground(qb)),
                         QState.ground(qc))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    reduced = state.reduced_dm([qa, qb])
    expected = np.outer(bell_vector(0), bell_vector(0).conj())
    assert np.allclose(reduced, expected, atol=1e-12)
    # And the spectator is |0⟩.
    spectator = state.reduced_dm([qc])
    assert spectator[0, 0] == pytest.approx(1.0)


def test_reduced_dm_order_matters():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(X, [qb])  # |01⟩
    dm_ab = state.reduced_dm([qa, qb])
    dm_ba = state.reduced_dm([qb, qa])
    assert dm_ab[0b01, 0b01] == pytest.approx(1.0)
    assert dm_ba[0b10, 0b10] == pytest.approx(1.0)


def test_merge_preserves_validity_and_handles():
    qa, qb = fresh(2)
    sa, sb = QState.ground(qa), QState.ground(qb)
    merged = QState.merge(sa, sb)
    assert merged.num_qubits == 2
    assert qa.state is merged and qb.state is merged
    assert merged.is_valid()


def test_merge_same_state_is_noop():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    assert QState.merge(state, state) is state


def test_probability_of_projector():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.apply_unitary(H, [qubit])
    p0 = state.probability_of(np.diag([1.0, 0.0]).astype(complex), [qubit])
    assert p0 == pytest.approx(0.5)


def test_is_valid_detects_bad_trace():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.dm = state.dm * 2.0
    assert not state.is_valid()


def test_z_phase_visible_in_coherences():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.apply_unitary(H, [qubit])
    state.apply_unitary(Z, [qubit])
    assert state.dm[0, 1] == pytest.approx(-0.5)
