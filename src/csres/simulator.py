"""Exact statevector simulation of small gate circuits.

States are dense complex vectors of length 2^n with qubit 0 stored in the
least significant bit of the index.  Bitstrings in measurement results are
rendered most-significant-qubit first, i.e. ``format(index, "0nb")``.

Gate conventions: ``RX(t) = exp(-i t X / 2)``, ``RZ(t) = exp(-i t Z / 2)``,
``RXX(t) = exp(-i t X X)`` (no half angle), ``Phase(p) = diag(1, e^{ip})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import PauliSum, string_masks


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

    def phase(self, q, angle):
        self._check(q)
        self.gates.append(Gate("phase", (q,), float(angle)))

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
    if gate.name == "phase":
        return np.diag([1.0, np.exp(1j * gate.angle)])
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


def apply_pauli_string(state, letters) -> np.ndarray:
    """Dense-free application of a unit-coefficient Pauli string."""
    n = len(letters)
    psi = np.asarray(state, dtype=complex)
    if psi.size != 2**n:
        raise ValueError("state size does not match letter string")
    x, z, phase = string_masks(letters)
    ks = np.arange(psi.size)
    signs = 1 - 2 * (np.bitwise_count(ks & z).astype(np.int64) & 1)
    out = np.empty_like(psi)
    out[ks ^ x] = phase * signs * psi
    return out


def expectation_pauli(state, letters) -> float:
    """<psi|P|psi> for a single Pauli string; real for Hermitian P."""
    val = np.vdot(state, apply_pauli_string(state, letters))
    return float(val.real)


def term_order(psum: PauliSum):
    """The strings of ``psum`` grouped by X mask, ascending, in their own order
    within a group: the order of a compiled sum's per-term values."""
    return sorted((letters for letters, _ in psum.items()), key=lambda s: string_masks(s)[0])


class _CompiledSum:
    """Pauli sum grouped by X-mask, for repeated per-term or summed expectations."""

    def __init__(self, psum: PauliSum):
        self.n_qubits = psum.n_qubits
        dim = 2**psum.n_qubits
        ks = np.arange(dim)
        groups = {}
        for letters in term_order(psum):
            x, z, phase = string_masks(letters)
            groups.setdefault(x, []).append((letters, psum.coefficient(letters), z, phase))
        self.groups = []
        self.order = []  # letter order matching concatenated per-term values
        for x, entries in groups.items():
            signs = np.array(
                [1 - 2 * (np.bitwise_count(ks & z).astype(np.int64) & 1) for _, _, z, _ in entries],
                dtype=float,
            )
            # <psi|P|psi> = sum_k conj(psi_{k^x}) i^{nY} (-1)^{pc(k&z)} psi_k;
            # reindexing k -> k^x turns the phase into (-i)^{nY}
            phases = np.array([np.conj(p) for _, _, _, p in entries])
            coeffs = np.array([c for _, c, _, _ in entries])
            self.groups.append((ks ^ x, signs, phases, coeffs))
            self.order.extend(letters for letters, _, _, _ in entries)
        self.coeffs = np.concatenate([g[3] for g in self.groups])
        identity = "I" * psum.n_qubits
        self.is_identity = np.array([letters == identity for letters in self.order])

    def term_expectations(self, psi):
        """Per-term <P> values (order ``self.order``); psi may be (dim,) or (dim, B)."""
        conj = np.conj(psi)
        vals = []
        for perm, signs, phases, _ in self.groups:
            u = conj * psi[perm]
            vals.append(phases[:, None] * (signs @ u) if u.ndim == 2 else phases * (signs @ u))
        return np.concatenate(vals, axis=0)

    def expectation(self, psi):
        """<psi|A|psi>; supports a batch of states as columns."""
        conj = np.conj(psi)
        total = 0.0 + 0.0j
        for perm, signs, phases, coeffs in self.groups:
            vals = signs @ (conj * psi[perm])
            total = total + (coeffs * phases) @ vals
        return total


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


def compiled(psum: PauliSum) -> _CompiledSum:
    """Compile ``psum``; the caller keeps the result while it evaluates the sum."""
    return _CompiledSum(psum)


def expectation_sum(state, psum: PauliSum, shots=None, seed=None, rng=None) -> complex:
    """<psi|A|psi> for a Pauli sum.

    Exact mode (``shots`` omitted): sum of per-string expectations.  Shot
    mode: the fresh-binomial shot model of :func:`shot_estimate` (every
    string measured on its own, identity strings exact), reproducible for a
    given seed or generator.
    """
    comp = compiled(psum)
    psi = np.asarray(state, dtype=complex)
    if shots is None:
        return complex(comp.expectation(psi))
    if rng is None:
        rng = np.random.default_rng(seed)
    return complex(shot_estimate(comp.term_expectations(psi), comp.coeffs, comp.is_identity,
                                 shots, rng=rng))


def sample_counts(state, shots, seed=None, rng=None) -> dict:
    """Multinomial bitstring counts from |amplitudes|^2 (keys MSB first)."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    psi = np.asarray(state, dtype=complex)
    n = int(np.log2(psi.size))
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    if rng is None:
        rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    return {
        format(k, f"0{n}b"): int(c) for k, c in enumerate(draws) if c > 0
    }
