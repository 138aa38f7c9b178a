"""Particle-number filtration of one-hot encoded eigenstates via phase
estimation.

The one-hot register conserves particle number; physical single-particle
states live in the Hamming-weight-1 sector.  Phase estimation with
``U = exp(i 2 pi N / 2^{n_r})`` writes the weight of each component into
``n_r`` ancilla bits, so measuring the ancillas separates physical states
(all counts on the weight-1 word) from redundant ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import PauliSum
from .simulator import Circuit, apply_circuit

PHYSICAL_THRESHOLD = 99.0  # percent on the weight-1 ancilla word


def number_operator_pauli(n_qubits: int) -> PauliSum:
    """Occupation-number operator ``sum_j (I - Z_j)/2`` as a Pauli sum."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    terms = {"I" * n_qubits: 0.5 * n_qubits}
    for j in range(n_qubits):
        s = ["I"] * n_qubits
        s[j] = "Z"
        terms["".join(s)] = -0.5
    return PauliSum(n_qubits, terms)


def required_ancillas(n_qubits: int) -> int:
    """Smallest ancilla count that can represent every Hamming weight 0..n."""
    return max(1, int(np.ceil(np.log2(n_qubits + 1))))


def qpe_ancilla_probabilities(state, n_r: int) -> np.ndarray:
    """Exact ancilla-word distribution of number-operator phase estimation.

    The evolution operator is diagonal, so the outcome distribution is the
    Hamming-weight decomposition of the input state: the probability of
    ancilla word m equals the amplitude mass at weight m.
    """
    psi = np.asarray(state, dtype=complex)
    n = int(np.log2(psi.size))
    if n_r < required_ancillas(n):
        raise ValueError(
            f"n_r={n_r} cannot represent particle numbers up to {n}; "
            f"need at least {required_ancillas(n)}"
        )
    weights = np.bitwise_count(np.arange(psi.size))
    probs = np.zeros(2**n_r)
    mass = np.abs(psi) ** 2
    for m in range(n + 1):
        probs[m] = mass[weights == m].sum()
    return probs / probs.sum()


def qpe_project(state, n_r: int, shots: int, seed=None, rng=None) -> dict:
    """Sampled ancilla counts (keys are n_r-bit words, MSB first)."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = qpe_ancilla_probabilities(state, n_r)
    if rng is None:
        rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    return {format(k, f"0{n_r}b"): int(c) for k, c in enumerate(draws) if c > 0}


def _inverse_qft(circ: Circuit, qubits):
    """Textbook inverse QFT on the given qubit list (LSB first)."""
    qs = list(qubits)
    m = len(qs)
    for i in range(m // 2):
        circ.swap(qs[i], qs[m - 1 - i])
    for j in range(m):
        for k in range(j):
            circ.cphase(qs[k], qs[j], -np.pi / 2 ** (j - k))
        circ.h(qs[j])


def qpe_project_circuit(state, n_r: int) -> np.ndarray:
    """Full-circuit phase estimation; validation path for the analytic shortcut.

    Builds the (n + n_r)-qubit circuit: Hadamards on the ancillas,
    controlled powers of the diagonal number-phase gate, inverse QFT,
    then marginalises the ancilla register.
    """
    psi = np.asarray(state, dtype=complex)
    n = int(np.log2(psi.size))
    if n_r < required_ancillas(n):
        raise ValueError("ancilla register too small")
    total = n + n_r
    full = np.zeros(2**total, dtype=complex)
    full[: psi.size] = psi  # ancillas (qubits n..n+n_r-1) start in |0>
    circ = Circuit(total)
    for k in range(n_r):
        circ.h(n + k)
    # controlled-U^(2^k): U = prod_j diag(1, e^{i 2 pi / 2^{n_r}}) on system qubit j
    base = 2.0 * np.pi / 2**n_r
    for k in range(n_r):
        for j in range(n):
            circ.cphase(n + k, j, base * 2**k)
    _inverse_qft(circ, [n + k for k in range(n_r)])
    out = apply_circuit(full, circ)
    probs2 = np.abs(out.reshape(2**n_r, 2**n)) ** 2  # ancillas are high bits
    return probs2.sum(axis=1)


@dataclass(frozen=True)
class FiltrationRow:
    energy: complex
    counts: dict
    percentages: dict
    physical: bool


@dataclass(frozen=True)
class FiltrationReport:
    rows: tuple

    @property
    def words(self):
        seen = sorted({w for row in self.rows for w in row.counts})
        return seen


def filtration_report(states, energies, n_r=3, shots=8192, seed=0) -> FiltrationReport:
    """Ancilla-count report for a batch of eigenstates.

    A state is labelled physical when at least 99 percent of its counts
    land on the weight-1 word (``"001"`` for three ancillas).
    """
    rng = np.random.default_rng(seed)
    weight1 = format(1, f"0{n_r}b")
    rows = []
    for state, energy in zip(states, energies):
        counts = qpe_project(state, n_r, shots, rng=rng)
        total = sum(counts.values())
        perc = {w: 100.0 * c / total for w, c in counts.items()}
        rows.append(
            FiltrationRow(
                energy=complex(energy),
                counts=counts,
                percentages=perc,
                physical=perc.get(weight1, 0.0) >= PHYSICAL_THRESHOLD,
            )
        )
    return FiltrationReport(rows=tuple(rows))
