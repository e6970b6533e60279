"""The exact engine's superoperator kernel against the Kraus-sum oracle.

The oracle below is the per-operator ``Σ_K K ρ K†`` loop the engine used
before every channel carried its superoperator: each term is two tensor
contractions (``K`` on the target rows, ``K†`` on the target columns).  It
lives only here.  Every channel builder, the sliced measurement, the
outcome-averaged swap map and the routing controller's pair ageing are
pinned to it to within 1e-12.
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.control.routing import _age_pair
from repro.quantum import (
    BellPairState,
    NoisyOpParams,
    PERFECT_OPS,
    Qubit,
    QState,
    amplitude_damping_kraus,
    averaged_swap_dm,
    bell_diagonal_dm,
    bitflip_kraus,
    create_bell_diagonal_pair,
    decoherence_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    two_qubit_depolarizing_kraus,
    werner_dm,
)
from repro.quantum.bell import swap_combine
from repro.quantum.channels import superoperator
from repro.quantum.gates import CNOT, H, PAULI_FRAME

TOL = 1e-12

BUILDERS = [
    (dephasing_kraus, (0.2,)),
    (bitflip_kraus, (0.3,)),
    (depolarizing_kraus, (0.15,)),
    (amplitude_damping_kraus, (0.4,)),
    (two_qubit_depolarizing_kraus, (0.08,)),
    (decoherence_kraus, (2e6, 3.6e12, 6e10)),
    (decoherence_kraus, (5e8, 1e9, 4e8)),
    (decoherence_kraus, (1e6, math.inf, 1e7)),
    (decoherence_kraus, (0.0, 1e9, 1e6)),
]


# ----------------------------------------------------------------------
# The oracle: the old Kraus-sum loop
# ----------------------------------------------------------------------

def _apply_left(dm, op, targets, n):
    k = len(targets)
    tensor = dm.reshape([2] * (2 * n))
    contracted = np.tensordot(op.reshape([2] * (2 * k)), tensor,
                              axes=(list(range(k, 2 * k)), list(targets)))
    order = list(targets) + [a for a in range(2 * n) if a not in targets]
    return contracted.transpose(np.argsort(order)).reshape(2 ** n, 2 ** n)


def _apply_right(dm, op, targets, n):
    k = len(targets)
    columns = [t + n for t in targets]
    tensor = dm.reshape([2] * (2 * n))
    contracted = np.tensordot(tensor, op.reshape([2] * (2 * k)),
                              axes=(columns, list(range(k))))
    order = [a for a in range(2 * n) if a not in columns] + columns
    return contracted.transpose(np.argsort(order)).reshape(2 ** n, 2 ** n)


def _sandwich(dm, op, targets, n):
    """``op ρ op†`` with ``op`` on ``targets``."""
    return _apply_right(_apply_left(dm, op, targets, n), op.conj().T, targets, n)


def _kraus_sum(dm, kraus_ops, targets, n):
    return sum(_sandwich(dm, op, targets, n) for op in kraus_ops)


def _partial_trace(dm, position, n):
    tensor = np.trace(dm.reshape([2] * (2 * n)), axis1=position,
                      axis2=position + n)
    return tensor.reshape(2 ** (n - 1), 2 ** (n - 1))


def _oracle_swap(rho_ab, rho_bc, ops):
    """The old ``averaged_swap_dm``: kron projectors, sandwiches, traces."""
    state = _kraus_sum(np.kron(rho_ab, rho_bc),
                       two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                       (1, 2), 4)
    state = _sandwich(state, CNOT, (1, 2), 4)
    state = _sandwich(state, H, (1,), 4)
    result = np.zeros((4, 4), dtype=complex)
    for outcome in range(4):
        phase_bit, parity_bit = (outcome >> 1) & 1, outcome & 1
        proj = np.kron(np.diag([1 - phase_bit, phase_bit]),
                       np.diag([1 - parity_bit, parity_bit])).astype(complex)
        branch = _sandwich(state, proj, (1, 2), 4)
        prob = float(np.real(np.trace(branch)))
        if prob <= 1e-15:
            continue
        rho_ac = _partial_trace(_partial_trace(branch, 1, 4), 1, 3)
        for reported in range(4):
            mislabel = 1.0
            for shift in (1, 0):
                true_bit = (outcome >> shift) & 1
                error = ops.readout_error0 if true_bit == 0 else ops.readout_error1
                flipped = true_bit != (reported >> shift) & 1
                mislabel *= error if flipped else 1.0 - error
            if mislabel <= 0:
                continue
            frame = np.kron(np.eye(2), PAULI_FRAME[swap_combine(0, 0, reported)])
            result += prob * mislabel * (frame.conj().T @ (rho_ac / prob) @ frame)
    return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _random_dm(rng, n):
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _state(dm):
    qubits = [Qubit(str(i)) for i in range(int(math.log2(dm.shape[0])))]
    return QState(dm.copy(), qubits), qubits


class _FixedDraw:
    """An rng whose ``random()`` always returns ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("build,args", BUILDERS,
                         ids=[f"{b.__name__}{a}" for b, a in BUILDERS])
def test_channel_kernel_matches_kraus_sum(build, args):
    channel = build(*args)
    arity = int(math.log2(channel[0].shape[0]))
    rng = np.random.default_rng(11)
    for n in range(arity, 5):
        for targets in itertools.permutations(range(n), arity):
            dm = _random_dm(rng, n)
            state, qubits = _state(dm)
            state.apply_channel(channel, [qubits[t] for t in targets])
            expected = _kraus_sum(dm, channel, targets, n)
            assert np.max(np.abs(state.dm - expected)) < TOL, (n, targets)


@pytest.mark.parametrize("build,args", BUILDERS,
                         ids=[f"{b.__name__}{a}" for b, a in BUILDERS])
def test_cached_superop_equals_the_kraus_sum(build, args):
    channel = build(*args)
    assert np.max(np.abs(channel.superop - superoperator(list(channel)))) < TOL


@pytest.mark.parametrize("elapsed,t1,t2", [(2e6, 3.6e12, 6e10),
                                           (5e8, 1e9, 4e8),
                                           (3e7, math.inf, 1e8),
                                           (3e7, 1e8, math.inf)])
def test_closed_form_decoherence_matches_kraus_sum(elapsed, t1, t2):
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        for target in range(n):
            dm = _random_dm(rng, n)
            state, qubits = _state(dm)
            state.apply_decoherence(elapsed, t1, t2, qubits[target])
            expected = _kraus_sum(dm, decoherence_kraus(elapsed, t1, t2),
                                  (target,), n)
            assert np.max(np.abs(state.dm - expected)) < TOL, (n, target)


def test_arbitrary_kraus_iterables_use_the_same_kernel():
    """A generator of Kraus operators (no cached superoperator) and the
    Bell-diagonal backend's promotion fallback match the oracle."""
    rng = np.random.default_rng(4)
    kraus = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * PAULI_FRAME[3]]
    dm = _random_dm(rng, 3)
    state, qubits = _state(dm)
    state.apply_channel((op for op in kraus), [qubits[2]])
    assert np.max(np.abs(state.dm - _kraus_sum(dm, kraus, (2,), 3))) < TOL

    weights = [0.7, 0.1, 0.15, 0.05]
    qubit_a, qubit_b = create_bell_diagonal_pair(weights)
    assert isinstance(qubit_a.state, BellPairState)
    qubit_a.state.apply_channel(kraus, [qubit_b])
    expected = _kraus_sum(bell_diagonal_dm(weights), kraus, (1,), 2)
    assert isinstance(qubit_a.state, QState)
    assert np.max(np.abs(qubit_a.state.dm - expected)) < TOL


def test_empty_channel_rejected():
    state, qubits = _state(np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError):
        state.apply_channel([], [qubits[0]])


def test_superop_arity_checked():
    state, qubits = _state(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        state.apply_channel(two_qubit_depolarizing_kraus(0.1), [qubits[0]])


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@pytest.mark.parametrize("remove", [True, False])
def test_sliced_measurement_matches_projector_sandwich(remove):
    rng = np.random.default_rng(9)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    for n in range(1, 5):
        for position in range(n):
            dm = _random_dm(rng, n)
            prob0 = float(np.real(np.trace(_apply_left(dm, p0, (position,), n))))
            for outcome, draw in ((0, prob0 - TOL), (1, prob0 + TOL)):
                # The draw sits 1e-12 either side of the oracle's outcome
                # probability, so the outcome pins the kernel's to it.
                state, qubits = _state(dm)
                assert state.measure(qubits[position], _FixedDraw(draw),
                                     remove=remove) == outcome
                projector = np.diag([1 - outcome, outcome]).astype(complex)
                expected = _sandwich(dm, projector, (position,), n)
                expected /= np.real(np.trace(expected))
                if remove:
                    expected = _partial_trace(expected, position, n)
                    assert qubits[position].state is None
                    assert qubits[position] not in state.qubits
                else:
                    assert qubits[position].state is state
                assert np.max(np.abs(state.dm - expected)) < TOL, (n, position)


def test_measuring_the_last_qubit_leaves_a_scalar_state():
    state, qubits = _state(np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex))
    assert state.measure(qubits[0], _FixedDraw(0.9)) == 1
    assert state.qubits == []
    assert np.allclose(state.dm, [[1.0]])


# ----------------------------------------------------------------------
# Outcome-averaged swap map and pair ageing
# ----------------------------------------------------------------------

SWAP_OPS = [
    PERFECT_OPS,
    NoisyOpParams(two_qubit_gate_fidelity=0.97),
    NoisyOpParams(two_qubit_gate_fidelity=0.98, readout_error0=0.03,
                  readout_error1=0.01),
    NoisyOpParams(readout_error0=0.05, readout_error1=0.05),
]


@pytest.mark.parametrize("ops", SWAP_OPS)
def test_averaged_swap_matches_oracle(ops):
    rng = np.random.default_rng(21)
    inputs = [
        (werner_dm(0.9), werner_dm(0.8)),
        (bell_diagonal_dm([0.7, 0.1, 0.15, 0.05]),
         bell_diagonal_dm([0.85, 0.05, 0.05, 0.05])),
        (_random_dm(rng, 2), _random_dm(rng, 2)),
        (_random_dm(rng, 2), werner_dm(0.95, 2)),
    ]
    for rho_ab, rho_bc in inputs:
        got = averaged_swap_dm(rho_ab, rho_bc, ops)
        expected = _oracle_swap(rho_ab, rho_bc, ops)
        assert np.max(np.abs(got - expected)) < TOL


@pytest.mark.parametrize("elapsed,t1,t2", [(0.0, 1e9, 1e6),
                                           (2e6, 3.6e12, 6e10),
                                           (5e8, 1e9, 4e8),
                                           (1e7, math.inf, 1e8)])
def test_age_pair_matches_kraus_sum(elapsed, t1, t2):
    rng = np.random.default_rng(8)
    for dm in (werner_dm(0.9), _random_dm(rng, 2)):
        channel = decoherence_kraus(elapsed, t1, t2)
        expected = _kraus_sum(_kraus_sum(dm, channel, (0,), 2), channel, (1,), 2)
        assert np.max(np.abs(_age_pair(dm, elapsed, t1, t2) - expected)) < TOL


# ----------------------------------------------------------------------
# Import cost
# ----------------------------------------------------------------------

def test_simulation_imports_leave_scipy_unloaded():
    """scipy is only needed by ``state_fidelity``, which imports it lazily."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, repro.network, repro.traffic; "
            "print('scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "False"
