"""Shared quantum state container — the density-matrix engine.

A :class:`QState` owns the joint density matrix of one or more qubits.  This
is the NetSquid-formalism substitute: protocols never touch matrices, they
hold :class:`~repro.quantum.qubit.Qubit` handles and call the operations in
:mod:`repro.quantum.operations`.

The engine is exact.  A channel on ``k`` target qubits is one matrix
product of its ``4^k × 4^k`` superoperator (carried by the memoized
:class:`~repro.quantum.channels.Channel`) against the state's target row
and column axes, moved to the front; a unitary is ``U X U†`` on the same
moved axes.  Measurements read outcome probabilities off the diagonal and
keep the outcome block by slicing.  In this system ``n`` never exceeds 4
(two entangled pairs merged for an entanglement swap), so everything stays
tiny and fast.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    decoherence_probabilities,
    decoherence_superop,
    dephasing_kraus,
    depolarizing_kraus,
    superoperator,
)
from .gates import PAULI_FRAME
from .qubit import Qubit

_TOL = 1e-9


class QState:
    """Joint density matrix over an ordered list of qubits."""

    def __init__(self, dm: np.ndarray, qubits: Sequence[Qubit]):
        dm = np.asarray(dm, dtype=complex)
        n = len(qubits)
        if dm.shape != (2 ** n, 2 ** n):
            raise ValueError(f"density matrix shape {dm.shape} does not match {n} qubits")
        self.dm = dm
        self.qubits = list(qubits)
        for qubit in self.qubits:
            if qubit.state is not None and qubit.state is not self:
                raise ValueError(f"{qubit.name} already belongs to another state")
            qubit.state = self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_trusted_dm(cls, dm: np.ndarray, qubits: Sequence[Qubit]) -> "QState":
        """Bind fresh qubits to a pre-validated density matrix.

        The hot-path constructor mirroring
        :meth:`~repro.quantum.bellstate.BellPairState.from_trusted_weights`:
        link-pair materialisation passes memoized, correctly shaped (and
        possibly read-only) matrices, so the ``__init__`` validation would
        be pure overhead.  Callers guarantee shape and ownership.
        """
        state = object.__new__(cls)
        state.dm = dm
        state.qubits = list(qubits)
        for qubit in state.qubits:
            qubit.state = state
        return state

    @classmethod
    def from_pure(cls, vector: np.ndarray, qubits: Sequence[Qubit]) -> "QState":
        """Create a state from a pure state vector."""
        vector = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError("state vector is not normalised")
        return cls(np.outer(vector, vector.conj()), qubits)

    @classmethod
    def ground(cls, qubit: Qubit) -> "QState":
        """A fresh single qubit in |0⟩."""
        return cls.from_pure(np.array([1.0, 0.0]), [qubit])

    @staticmethod
    def merge(state_a: "QState", state_b: "QState") -> "QState":
        """Tensor two disjoint states into one; qubit handles survive."""
        if state_a is state_b:
            return state_a
        dm = np.kron(state_a.dm, state_b.dm)
        qubits = state_a.qubits + state_b.qubits
        for qubit in qubits:
            qubit.state = None
        return QState(dm, qubits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def index_of(self, qubit: Qubit) -> int:
        return self.qubits.index(qubit)

    def trace(self) -> float:
        return float(np.real(np.trace(self.dm)))

    def is_valid(self, tol: float = 1e-7) -> bool:
        """Trace one, Hermitian, positive semidefinite."""
        if abs(self.trace() - 1.0) > tol:
            return False
        if not np.allclose(self.dm, self.dm.conj().T, atol=tol):
            return False
        eigenvalues = np.linalg.eigvalsh(self.dm)
        return bool(eigenvalues.min() > -tol)

    def probability_of(self, projector: np.ndarray, targets: Sequence[Qubit]) -> float:
        """Probability of the projector on the given qubits."""
        return float(np.real(np.trace(projector @ self.reduced_dm(targets))))

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_unitary(self, unitary: np.ndarray, targets: Sequence[Qubit]) -> None:
        """Apply a unitary to the given qubits (in order)."""
        indices = tuple(self.index_of(q) for q in targets)
        self.dm = _conjugate(self.dm, unitary, indices, len(self.qubits))

    def apply_channel(self, kraus_ops: Iterable[np.ndarray], targets: Sequence[Qubit]) -> None:
        """Apply a Kraus channel to the given qubits (in order).

        Memoized :class:`~repro.quantum.channels.Channel` instances carry
        their superoperator; any other Kraus iterable gets one built here.
        """
        superop = getattr(kraus_ops, "superop", None)
        if superop is None:
            superop = superoperator(kraus_ops)
        indices = tuple(self.index_of(q) for q in targets)
        self.dm = _evolve(self.dm, superop, indices, len(self.qubits))

    # ------------------------------------------------------------------
    # Named noise channels (shared interface with the Bell-diagonal backend)
    # ------------------------------------------------------------------

    def apply_dephasing(self, p: float, qubit: Qubit) -> None:
        """Phase-flip channel with probability ``p`` on one qubit."""
        if p > 0:
            self.apply_channel(dephasing_kraus(p), [qubit])

    def apply_depolarizing(self, p: float, qubit: Qubit) -> None:
        """Single-qubit depolarizing channel with probability ``p``."""
        if p > 0:
            self.apply_channel(depolarizing_kraus(p), [qubit])

    def apply_decoherence(self, elapsed: float, t1: float, t2: float,
                          qubit: Qubit) -> None:
        """Combined T1/T2 memory channel for ``elapsed`` ns of idle time."""
        if elapsed > 0:
            superop = decoherence_superop(*decoherence_probabilities(elapsed, t1, t2))
            self.dm = _evolve(self.dm, superop, (self.index_of(qubit),),
                              len(self.qubits))

    def apply_pauli(self, frame_index: int, qubit: Qubit) -> None:
        """Apply the Pauli frame ``X^b Z^a`` (packed two-bit index)."""
        frame_index = int(frame_index) & 0b11
        if frame_index:
            self.apply_unitary(PAULI_FRAME[frame_index], [qubit])

    def measure(self, qubit: Qubit, rng, remove: bool = True) -> int:
        """Projective Z measurement; collapses and (optionally) removes the qubit.

        Returns the true physical outcome bit (readout errors are a classical
        layer on top, handled in :mod:`repro.quantum.operations`).
        """
        position = self.index_of(qubit)
        n = self.num_qubits
        before, after = 2 ** position, 2 ** (n - position - 1)
        populations = np.real(np.diagonal(self.dm)).reshape(before, 2, after)
        probs = populations.sum(axis=(0, 2))
        prob0 = min(max(float(probs[0]), 0.0), 1.0)
        outcome = 0 if rng.random() < prob0 else 1
        norm = float(probs[outcome])
        if norm <= _TOL:
            raise RuntimeError("measurement collapsed to zero-probability branch")
        # Rows and columns both split as (qubits before, measured, after).
        tensor = self.dm.reshape(before, 2, after, before, 2, after)
        block = tensor[:, outcome, :, :, outcome, :] / norm
        if remove:
            self.qubits.pop(position)
            qubit.state = None
            self.dm = block.reshape(before * after, before * after)
        else:
            collapsed = np.zeros_like(tensor)
            collapsed[:, outcome, :, :, outcome, :] = block
            self.dm = collapsed.reshape(2 ** n, 2 ** n)
        return outcome

    def remove(self, qubit: Qubit) -> None:
        """Partial-trace a qubit out of the state and detach its handle."""
        position = self.index_of(qubit)
        n = self.num_qubits
        self.qubits.pop(position)
        qubit.state = None
        if n == 1:
            self.dm = np.array([[1.0]], dtype=complex)
            return
        tensor = self.dm.reshape([2] * (2 * n))
        tensor = np.trace(tensor, axis1=position, axis2=position + n)
        self.dm = tensor.reshape(2 ** (n - 1), 2 ** (n - 1))

    def reduced_dm(self, targets: Sequence[Qubit]) -> np.ndarray:
        """Density matrix of a subset of qubits (others traced out)."""
        keep = [self.index_of(q) for q in targets]
        n = self.num_qubits
        tensor = self.dm.reshape([2] * (2 * n))
        # Trace out the qubits not kept, highest position first so earlier
        # positions stay valid.
        for position in sorted(set(range(n)) - set(keep), reverse=True):
            current_n = len(tensor.shape) // 2
            tensor = np.trace(tensor, axis1=position, axis2=position + current_n)
            keep = [k if k < position else k - 1 for k in keep]
        current_n = len(tensor.shape) // 2
        dm = tensor.reshape(2 ** current_n, 2 ** current_n)
        # Reorder to match the requested target order.
        order = list(np.argsort(np.argsort(keep)))
        if order != list(range(len(keep))):
            dm = _permute_qubits(dm, keep)
        return dm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(q.name for q in self.qubits)
        return f"<QState [{names}]>"


@lru_cache(maxsize=None)
def _target_axes(n: int, targets: tuple[int, ...]):
    """Axis plumbing shared by the channel and unitary kernels.

    Returns the dm's tensor shape, the transpose that moves the target row
    axes and then the target column axes to the front (the rest keep their
    order behind them), and its inverse.  The argument space is tiny (n ≤ 4,
    a handful of target tuples), so each entry is computed once.
    """
    columns = tuple(t + n for t in targets)
    forward = targets + columns + tuple(
        axis for axis in range(2 * n) if axis not in targets and axis not in columns)
    inverse = [0] * (2 * n)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    return (2,) * (2 * n), forward, tuple(inverse)


def _evolve(dm: np.ndarray, superop: np.ndarray, targets: tuple[int, ...],
            n: int) -> np.ndarray:
    """``Σ_K K ρ K†`` as one product of the superoperator with the
    flattened (target rows, target columns) axes of ``dm``."""
    dim = 4 ** len(targets)
    if superop.shape != (dim, dim):
        raise ValueError(f"superoperator shape {superop.shape} does not match "
                         f"{len(targets)} targets")
    shape, forward, inverse = _target_axes(n, targets)
    moved = dm.reshape(shape).transpose(forward).reshape(dim, -1)
    return (superop @ moved).reshape(shape).transpose(inverse).reshape(dm.shape)


def _conjugate(dm: np.ndarray, unitary: np.ndarray, targets: tuple[int, ...],
               n: int) -> np.ndarray:
    """``U ρ U†`` on the target axes: ``U`` on the rows, ``conj(U)`` on the
    columns, both as matrix products on the moved axes."""
    dim = 2 ** len(targets)
    if unitary.shape != (dim, dim):
        raise ValueError(f"operator shape {unitary.shape} does not match "
                         f"{len(targets)} targets")
    shape, forward, inverse = _target_axes(n, targets)
    moved = dm.reshape(shape).transpose(forward).reshape(dim, -1)
    rows = (unitary @ moved).reshape(dim, dim, -1)
    return (unitary.conj() @ rows).reshape(shape).transpose(inverse).reshape(dm.shape)


def _permute_qubits(dm: np.ndarray, keep_positions: list[int]) -> np.ndarray:
    """Reorder a reduced dm so qubits appear in the order originally requested.

    ``keep_positions`` holds the original positions in request order; the dm
    currently has them sorted ascending.
    """
    n = len(keep_positions)
    sorted_positions = sorted(keep_positions)
    # current axis i corresponds to sorted_positions[i]; we want axis j to be
    # keep_positions[j].
    axis_map = [sorted_positions.index(p) for p in keep_positions]
    tensor = dm.reshape([2] * (2 * n))
    perm = axis_map + [a + n for a in axis_map]
    return tensor.transpose(perm).reshape(2 ** n, 2 ** n)
