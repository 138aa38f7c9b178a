#!/usr/bin/env python3
"""Rejecting unphysical eigenstates with number-operator phase estimation.

The one-hot register conserves particle number but the variational search
roams the full qubit space, so the scan also converges onto eigenstates
of other occupation sectors.  Phase estimation with U = exp(i 2 pi N/2^3)
writes each component's particle number into three ancilla bits; physical
single-particle states answer "001" with certainty, everything else
scatters across other words.
"""

import numpy as np

from csres import (
    PotentialModel,
    RadialBasisSpec,
    VqaConfig,
    build_scaled_matrix,
    encode_onehot_jw,
    filtration_report,
    scan_spectrum,
)

basis = RadialBasisSpec.gaussian(5, 1, 1.0, 4.0)
model = PotentialModel.schematic()
h5 = build_scaled_matrix(basis, model, 24.0).matrix
classical = np.array(sorted(np.linalg.eigvals(h5), key=lambda z: z.real))
hjw = encode_onehot_jw(h5)
print(f"one-hot register: {hjw.n_qubits} qubits; "
      f"physical spectrum has {len(classical)} levels")

estimates = []
for init, reps, seed in ((-1.5 - 0.01j, 25, 31), (-1.0 - 1.3j, 20, 77),
                         (-0.5 - 2.4j, 12, 113)):
    cfg = VqaConfig(p=3, repetitions=reps, scan_step=0.35, init_energy=init,
                    base_seed=seed, maxiter=400, warmup_maxiter=150,
                    cost_tol_rel=3e-5, encoding="onehot_jw")
    estimates.extend(scan_spectrum(hjw, cfg))
print(f"variational scan returned {len(estimates)} distinct eigenstates\n")

report = filtration_report([e.state for e in estimates],
                           [e.energy for e in estimates], shots=8192, seed=5)

words = report.words
header = "  ".join(f"{w:>6}" for w in words)
print(f"{'energy':>20}   {header}   verdict")
for row in report.rows:
    cells = "  ".join(f"{row.percentages.get(w, 0.0):6.1f}" for w in words)
    verdict = "physical" if row.physical else "redundant"
    print(f"{row.energy.real:9.4f} {row.energy.imag:+8.4f}i   {cells}   {verdict}")

n_phys = sum(r.physical for r in report.rows)
print(f"\n{n_phys} states answer '001' with >= 99% of 8192 shots; "
      "those reproduce the classical spectrum")
