"""Exact statevector simulation of small gate circuits, and Pauli-sum measurement.

States are dense complex vectors of length 2^n with qubit 0 stored in the
least significant bit of the index.

Pauli sums are measured by one compiled pass (:func:`compiled`) over the
strings of one or more sums, which act only through their masks; each sum
reads its own rows from its share of the pass, and :func:`shot_estimate`
turns those exact means into the shot model's estimate.

Gate conventions: ``RX(t) = exp(-i t X / 2)``, ``RZ(t) = exp(-i t Z / 2)``,
``RXX(t) = exp(-i t X X)`` (no half angle), ``CPhase(p) = diag(1, 1, 1, e^{ip})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .encoding import PauliSum, parity_signs, string_masks


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple
    angle: float = 0.0


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)

    def _check(self, *qubits):
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit index {q} out of range for {self.n_qubits} qubits")

    def rx(self, q, angle):
        self._check(q)
        self.gates.append(Gate("rx", (q,), float(angle)))

    def rz(self, q, angle):
        self._check(q)
        self.gates.append(Gate("rz", (q,), float(angle)))

    def rxx(self, q1, q2, angle):
        self._check(q1, q2)
        self.gates.append(Gate("rxx", (q1, q2), float(angle)))

    def h(self, q):
        self._check(q)
        self.gates.append(Gate("h", (q,)))

    def cphase(self, control, target, angle):
        self._check(control, target)
        self.gates.append(Gate("cphase", (control, target), float(angle)))

    def swap(self, q1, q2):
        self._check(q1, q2)
        self.gates.append(Gate("swap", (q1, q2)))


def zero_state(n_qubits) -> np.ndarray:
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n_qubits, index) -> np.ndarray:
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def _apply_1q(psi, n, q, u):
    t = psi.reshape([2] * n)
    axis = n - 1 - q
    t = np.moveaxis(t, axis, 0).reshape(2, -1)
    t = u @ t
    return np.moveaxis(t.reshape([2] + [2] * (n - 1)), 0, axis).reshape(-1)


def _apply_2q(psi, n, q1, q2, u):
    t = psi.reshape([2] * n)
    a1, a2 = n - 1 - q1, n - 1 - q2
    t = np.moveaxis(t, (a1, a2), (0, 1)).reshape(4, -1)
    t = u @ t
    return np.moveaxis(t.reshape([2, 2] + [2] * (n - 2)), (0, 1), (a1, a2)).reshape(-1)


def _gate_unitary(gate):
    if gate.name == "rx":
        c, s = np.cos(gate.angle / 2), -1j * np.sin(gate.angle / 2)
        return np.array([[c, s], [s, c]])
    if gate.name == "rz":
        return np.diag([np.exp(-1j * gate.angle / 2), np.exp(1j * gate.angle / 2)])
    if gate.name == "h":
        return np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    if gate.name == "rxx":
        c, s = np.cos(gate.angle), -1j * np.sin(gate.angle)
        return np.array(
            [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]]
        )
    if gate.name == "cphase":
        # ordering (q1=control, q2=target): |control target> -> basis 2*c + t
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * gate.angle)])
    if gate.name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
    raise ValueError(f"unknown gate {gate.name!r}")


def apply_circuit(state, circuit: Circuit) -> np.ndarray:
    """Apply the circuit's gates in order; returns a new state vector."""
    n = circuit.n_qubits
    psi = np.asarray(state, dtype=complex).copy()
    if psi.size != 2**n:
        raise ValueError("state size does not match circuit register")
    for gate in circuit.gates:
        u = _gate_unitary(gate)
        if len(gate.qubits) == 1:
            psi = _apply_1q(psi, n, gate.qubits[0], u)
        else:
            # all 2q gates used here are exchange symmetric
            psi = _apply_2q(psi, n, gate.qubits[0], gate.qubits[1], u)
    return psi


class _Share(NamedTuple):
    """One Pauli sum as rows of a compiled pass over more strings."""

    rows: np.ndarray  # the rows of its strings, in pass order
    coeffs: np.ndarray
    is_identity: np.ndarray


class _CompiledSum:
    """The strings of one or more Pauli sums, grouped by X mask for one pass.

    Rows run by ascending X mask, then by letters.  ``shares[i]`` is sum
    i's part of them: its rows in that order, its coefficients and which
    of its strings is the identity.  A string common to several sums is
    one row, measured once.
    """

    def __init__(self, *sums: PauliSum):
        n = sums[0].n_qubits
        masks = {s: string_masks(s) for psum in sums for s, _ in psum.items()}
        self.order = sorted(masks, key=lambda s: (masks[s][0], s))
        ks = np.arange(2**n)
        self.groups = []
        for x, letters in groupby(self.order, key=lambda s: masks[s][0]):
            zs, phases = zip(*(masks[s][1:] for s in letters))
            # <psi|P|psi> = sum_k conj(psi_{k^x}) i^{nY} (-1)^{pc(k&z)} psi_k;
            # reindexing k -> k^x turns the phase into (-i)^{nY}
            self.groups.append((ks ^ x, parity_signs(ks, np.array(zs)[:, None]),
                                np.array([np.conj(p) for p in phases])))
        identity = "I" * n
        self.shares = []
        for psum in sums:
            terms = dict(psum.items())
            rows = [i for i, s in enumerate(self.order) if s in terms]
            mine = [self.order[i] for i in rows]
            self.shares.append(_Share(np.array(rows), np.array([terms[s] for s in mine]),
                                      np.array([s == identity for s in mine])))

    def term_expectations(self, psi):
        """Per-term <P> values (order ``self.order``); psi may be (dim,) or (dim, B)."""
        conj = np.conj(psi)
        vals = []
        for perm, signs, phases in self.groups:
            u = conj * psi[perm]
            vals.append(phases[:, None] * (signs @ u) if u.ndim == 2 else phases * (signs @ u))
        return np.concatenate(vals, axis=0)

    def expectation(self, psi):
        """<psi|A|psi> for the first sum of the pass; psi may be (dim,) or (dim, B)."""
        rows, coeffs, _ = self.shares[0]
        return coeffs @ self.term_expectations(psi)[rows]


def shot_estimate(ms, coeffs, is_identity, shots, rng=None, frozen=None):
    """The shot model: sum_k c_k m_k with every m_k measured on its own.

    ``ms`` are the exact per-string means, shape (strings,) or (strings, B),
    in the order of ``coeffs`` and ``is_identity``.  Every string is
    measured with ``shots`` samples of its +-1 eigenvalue, whose mean m is
    clipped to [-1, 1]; identity strings are exact.  With ``rng`` each
    string draws a fresh binomial count, in row order.  With ``frozen`` (one
    standard-normal z per string, same order) the estimate is
    ``m + z sqrt((1 - m^2)/shots)``, the Gaussian limit of the shot
    average, smooth in psi and the same noise realisation on every call.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    ms = np.clip(np.real(ms), -1.0, 1.0)
    if frozen is not None:
        z = frozen[:, None] if ms.ndim == 2 else frozen
        est = ms + z * np.sqrt(np.maximum(1.0 - ms**2, 0.0) / shots)
    else:
        counts = rng.binomial(shots, 0.5 * (1.0 + ms))
        est = 2.0 * counts / shots - 1.0
    est[is_identity] = 1.0
    return coeffs @ est


def compiled(*sums: PauliSum) -> _CompiledSum:
    """One pass over the strings of ``sums``; the caller keeps it while it evaluates them."""
    return _CompiledSum(*sums)


def expectation_sum(state, psum: PauliSum, shots=None, seed=None) -> complex:
    """<psi|A|psi> for a Pauli sum.

    Exact mode (``shots`` omitted): sum of per-string expectations.  Shot
    mode: the fresh-binomial shot model of :func:`shot_estimate` (every
    string measured on its own, identity strings exact), reproducible for a
    given ``seed``; a ``numpy.random.Generator`` as ``seed`` is drawn from
    as it is.
    """
    comp = compiled(psum)
    psi = np.asarray(state, dtype=complex)
    if shots is None:
        return complex(comp.expectation(psi))
    _, coeffs, is_identity = comp.shares[0]
    return complex(shot_estimate(comp.term_expectations(psi), coeffs, is_identity, shots,
                                 rng=np.random.default_rng(seed)))
