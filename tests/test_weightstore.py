"""Pins the float Bell-pair state to the numpy weight-store closed forms.

``BellPairState`` keeps its four Bell weights as plain floats.  Before
that, every pair was a row of a shared ``(N, 4)`` numpy matrix (the
structure-of-arrays weight store) and each channel was a row-sliced
array expression.  Those array expressions are kept here, and only here,
as the oracle: every channel, every swap outcome with and without gate
noise, and every read-out of the float state must match them to 1e-15.
"""

import math

import numpy as np
import pytest

from repro.quantum.bellstate import (
    BellPairState, create_bell_diagonal_pair, swap_measure,
)
from repro.quantum.channels import decoherence_probabilities

#: A spread of Bell-diagonal weight vectors (normalised below).
WEIGHT_SETS = [
    (1.0, 0.0, 0.0, 0.0),
    (0.97, 0.01, 0.01, 0.01),
    (0.7, 0.1, 0.15, 0.05),
    (0.25, 0.25, 0.25, 0.25),
    (0.4, 0.3, 0.2, 0.1),
]

#: Agreement bound between the float state and the numpy oracle.
ATOL = 1e-15

# ----------------------------------------------------------------------
# The oracle: the weight store's row-sliced numpy closed forms
# ----------------------------------------------------------------------

#: ``XOR_IDX[k, i] = k ^ i`` — Klein four-group index table.
XOR_IDX = np.array([[k ^ i for i in range(4)] for k in range(4)])
_PHASE_COLS = (2, 3, 0, 1)
_BIT_COLS = (1, 0, 3, 2)
_BOTH_COLS = (3, 2, 1, 0)


def _per_row(value, count):
    """Broadcast a scalar or per-row parameter to column shape ``(k, 1)``."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.shape != (count,):
        raise ValueError(f"parameter shape {arr.shape} does not match "
                         f"{count} rows")
    return arr.reshape(-1, 1)


def decoherence_probabilities_array(elapsed, t1, t2):
    """Vectorised ``(gamma, dephase_prob)`` of the T1/T2 memory channel."""
    elapsed = np.asarray(elapsed, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if np.any(elapsed < 0):
        raise ValueError("elapsed time must be non-negative")
    with np.errstate(divide="ignore"):
        inv_t1 = np.where(np.isinf(t1), 0.0, 1.0 / t1)
        inv_t2 = np.where(np.isinf(t2), 0.0, 1.0 / t2)
    gamma = np.where(np.isinf(t1), 0.0, -np.expm1(-elapsed * inv_t1))
    t_phi_inverse = np.maximum(inv_t2 - inv_t1 / 2.0, 0.0)
    dephase = np.where(np.isinf(t2), 0.0,
                       -np.expm1(-elapsed * t_phi_inverse) / 2.0)
    return gamma, dephase


def pauli_rows(w, frame_index):
    return w[:, XOR_IDX[int(frame_index) & 0b11]]


def dephase_rows(w, p):
    p = _per_row(p, len(w))
    return (1.0 - p) * w + p * w[:, _PHASE_COLS]


def depolarize_rows(w, p):
    p = _per_row(p, len(w))
    return (1.0 - 4.0 * p / 3.0) * w + p / 3.0


def two_qubit_depolarize_rows(w, p):
    p = _per_row(p, len(w))
    return (1.0 - 16.0 * p / 15.0) * w + (16.0 * p / 15.0) / 4.0


def decohere_rows(w, elapsed, t1, t2):
    count = len(w)
    gamma, dephase = decoherence_probabilities_array(elapsed, t1, t2)
    gamma = _per_row(np.broadcast_to(gamma, (count,)), count)
    dephase = _per_row(np.broadcast_to(dephase, (count,)), count)
    if np.any(gamma > 0):
        root = np.sqrt(1.0 - gamma)
        same = (2.0 - gamma) / 4.0 + root / 2.0
        phase_partner = (2.0 - gamma) / 4.0 - root / 2.0
        parity_partner = gamma / 4.0
        w = (same * w
             + phase_partner * w[:, _PHASE_COLS]
             + parity_partner * (w[:, _BIT_COLS] + w[:, _BOTH_COLS]))
    return (1.0 - dephase) * w + dephase * w[:, _PHASE_COLS]


def error_probability_rows(w, basis):
    columns = {"Z": (1, 3), "X": (2, 3), "Y": (1, 2)}[basis]
    return w[:, columns[0]] + w[:, columns[1]]


def swap_row(wa, wb, outcome, two_qubit_depolar, single_qubit_depolar):
    convolved = wb[XOR_IDX] @ wa
    if two_qubit_depolar > 0:
        convolved = ((1.0 - 16.0 * two_qubit_depolar / 15.0) * convolved
                     + (16.0 * two_qubit_depolar / 15.0) / 4.0)
    if single_qubit_depolar > 0:
        mix = 2.0 * single_qubit_depolar / 3.0
        convolved = (1.0 - mix) * convolved + mix * convolved[XOR_IDX[2]]
    return convolved[XOR_IDX[outcome]]


# ----------------------------------------------------------------------
# Float state vs oracle
# ----------------------------------------------------------------------

def _norm(weights):
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


def make_pairs():
    """One live pair per WEIGHT_SETS entry; returns (states, weights)."""
    states = []
    for i, weights in enumerate(WEIGHT_SETS):
        qubit_a, _ = create_bell_diagonal_pair(_norm(weights),
                                               f"a{i}", f"b{i}")
        states.append(qubit_a.state)
    return states, np.array([state.weights for state in states])


class TestBatchOpsMatchPerPair:
    """Each float-state channel vs the oracle's row op, within 1e-15."""

    def _compare(self, oracle_op, per_pair_op):
        states, weights = make_pairs()
        for state in states:
            per_pair_op(state)
        got = np.array([state.weights for state in states])
        np.testing.assert_allclose(got, oracle_op(weights), rtol=0,
                                   atol=ATOL)
        for state in states:  # no numpy scalars leak into the state
            assert all(type(state.fidelity_to(k)) is float for k in range(4))

    @pytest.mark.parametrize("frame", [0, 1, 2, 3])
    def test_pauli_rows(self, frame):
        self._compare(
            lambda w: pauli_rows(w, frame),
            lambda s: s.apply_pauli(frame, s.qubits[0]))

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.37])
    def test_dephase_rows(self, p):
        self._compare(
            lambda w: dephase_rows(w, p),
            lambda s: s.apply_dephasing(p, s.qubits[0]))

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3])
    def test_depolarize_rows(self, p):
        self._compare(
            lambda w: depolarize_rows(w, p),
            lambda s: s.apply_depolarizing(p, s.qubits[0]))

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.4])
    def test_two_qubit_depolarize_rows(self, p):
        self._compare(
            lambda w: two_qubit_depolarize_rows(w, p),
            lambda s: s.apply_two_qubit_depolarizing(p))

    @pytest.mark.parametrize("t1,t2", [
        (3.6e12, 6e10),               # the paper's NV memory
        (math.inf, 6e10),             # pure dephasing
        (math.inf, math.inf),         # perfect memory: no-op
    ])
    def test_decohere_rows(self, t1, t2):
        elapsed = 5e6
        self._compare(
            lambda w: decohere_rows(w, elapsed, t1, t2),
            lambda s: s.apply_decoherence(elapsed, t1, t2, s.qubits[0]))

    def test_decohere_rows_per_row_elapsed(self):
        states, weights = make_pairs()
        elapsed = np.array([1e6 * (i + 1) for i in range(len(states))])
        for state, dt in zip(states, elapsed):
            state.apply_decoherence(float(dt), 3.6e12, 6e10, state.qubits[0])
        got = np.array([state.weights for state in states])
        np.testing.assert_allclose(
            got, decohere_rows(weights, elapsed, 3.6e12, 6e10),
            rtol=0, atol=ATOL)

    @pytest.mark.parametrize("basis", ["Z", "X", "Y"])
    def test_error_probability_rows(self, basis):
        states, weights = make_pairs()
        got = [state.error_probability(basis) for state in states]
        np.testing.assert_allclose(
            got, error_probability_rows(weights, basis), rtol=0, atol=ATOL)

    @pytest.mark.parametrize("bell_index", [0, 1, 2, 3])
    def test_fidelity_rows(self, bell_index):
        states, weights = make_pairs()
        got = [state.fidelity_to(bell_index) for state in states]
        np.testing.assert_array_equal(got, weights[:, bell_index])

    def test_bad_parameter_shape_rejected(self):
        _, weights = make_pairs()
        with pytest.raises(ValueError, match="shape"):
            dephase_rows(weights, np.array([0.1, 0.2]))


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSwapRows:
    def _swap(self, wa, wb, outcome, p2, p1):
        qa0, qa1 = create_bell_diagonal_pair(wa)
        qb0, qb1 = create_bell_diagonal_pair(wb)
        inputs = (qa0.state.weights, qb0.state.weights)
        got_outcome = swap_measure(qa1, qb0, _FixedRng(outcome / 4.0),
                                   two_qubit_depolar=p2,
                                   single_qubit_depolar=p1)
        assert got_outcome == outcome
        new_state = qa0.state
        assert isinstance(new_state, BellPairState)
        assert new_state is qb1.state
        assert qa1.state is None and qb0.state is None
        return new_state, inputs

    @pytest.mark.parametrize("outcome", [0, 1, 2, 3])
    @pytest.mark.parametrize("p2,p1", [(0.0, 0.0), (0.02, 0.005)])
    def test_swap_measure_matches_manual_convolution(self, outcome, p2, p1):
        wa = _norm((0.9, 0.04, 0.04, 0.02))
        wb = _norm((0.8, 0.1, 0.05, 0.05))
        # Manual closed form: XOR-convolution + gate noise + outcome frame.
        convolved = np.array([
            sum(wa[j] * wb[k ^ j] for j in range(4)) for k in range(4)])
        convolved = ((1 - 16 * p2 / 15) * convolved + (16 * p2 / 15) / 4)
        mix = 2 * p1 / 3
        convolved = (1 - mix) * convolved + mix * convolved[XOR_IDX[2]]
        expected = convolved[XOR_IDX[outcome]]

        new_state, _ = self._swap(wa, wb, outcome, p2, p1)
        np.testing.assert_allclose(new_state.weights, expected, atol=1e-9)
        assert new_state.trace() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("outcome", [0, 1, 2, 3])
    @pytest.mark.parametrize("p2,p1", [(0.0, 0.0), (0.02, 0.0),
                                       (0.0, 0.005), (0.02, 0.005)])
    @pytest.mark.parametrize("pair", range(len(WEIGHT_SETS)))
    def test_swap_measure_matches_numpy_oracle(self, pair, outcome, p2, p1):
        new_state, (wa, wb) = self._swap(
            _norm(WEIGHT_SETS[pair]),
            _norm(WEIGHT_SETS[(pair + 2) % len(WEIGHT_SETS)]),
            outcome, p2, p1)
        np.testing.assert_allclose(
            new_state.weights, swap_row(wa, wb, outcome, p2, p1),
            rtol=0, atol=ATOL)


class TestDecoherenceArray:
    """The oracle's decay parameters are the float state's closed form."""

    def test_matches_scalar_closed_form(self):
        for elapsed in (0.0, 1e3, 5e6, 2e9):
            for t1, t2 in ((3.6e12, 6e10), (math.inf, 6e10),
                           (1e9, 1e9), (math.inf, math.inf)):
                gamma, dephase = decoherence_probabilities_array(
                    elapsed, t1, t2)
                ref_gamma, ref_dephase = decoherence_probabilities(
                    elapsed, t1, t2)
                assert float(gamma) == pytest.approx(ref_gamma, abs=1e-12)
                assert float(dephase) == pytest.approx(ref_dephase, abs=1e-12)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            decoherence_probabilities_array(-1.0, 1e9, 1e9)
