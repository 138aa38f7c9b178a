#!/usr/bin/env python3
"""One-hot/Jordan-Wigner versus Gray-code qubit encodings.

The one-hot register spends one qubit per basis state and drags along
unphysical multi-occupation sectors; the Gray-code register stores the
basis index in binary (adjacent states differ by one bit) and needs only
ceil(log2 N) qubits, with padded directions pinned at zero energy.
"""

import numpy as np

from csres import (
    PauliSum,
    PotentialModel,
    RadialBasisSpec,
    build_scaled_matrix,
    encode_gray,
    encode_onehot_jw,
    gray_code,
)


def main():
    basis = RadialBasisSpec.gaussian(5, 1, 1.0, 4.0)
    model = PotentialModel.schematic()
    h = build_scaled_matrix(basis, model, 24.0).matrix
    physical = np.sort_complex(np.linalg.eigvals(h))
    print("5x5 rotated Hamiltonian, physical eigenvalues:")
    for e in physical:
        print(f"    {e.real:8.4f} {e.imag:+8.4f}i")

    print("\nGray words for indices 0..7:",
          " ".join(format(gray_code(k), "03b") for k in range(8)))

    jw = encode_onehot_jw(h)
    gc = encode_gray(h)
    print(f"\none-hot/JW : {jw.n_qubits} qubits, {len(jw)} Pauli terms")
    print(f"Gray code  : {gc.n_qubits} qubits, {len(gc)} Pauli terms")

    ev_jw = np.sort_complex(np.linalg.eigvals(jw.to_matrix()))
    ev_gc = np.sort_complex(np.linalg.eigvals(gc.to_matrix()))
    extra_jw = [e for e in ev_jw if np.abs(e - physical).min() > 1e-9]
    print(f"\nJW register holds {len(ev_jw)} eigenvalues; "
          f"{len(extra_jw)} are unphysical (other occupation sectors), e.g.")
    for e in extra_jw[:4]:
        print(f"    {e.real:8.4f} {e.imag:+8.4f}i")
    print("(these are sums of single-particle energies; the filtration demo"
          "\n shows how phase estimation rejects them)")

    pad = [e for e in ev_gc if np.abs(e - physical).min() > 1e-9]
    print(f"\nGray register holds {len(ev_gc)} eigenvalues; the "
          f"{len(pad)} padded ones sit at the origin: {np.round(pad, 12)}")

    print("\nround trip check: reconstructing the dense operator from the")
    print("Gray Pauli terms and re-extracting the physical block ...")
    # a sum built from the terms alone; gc.to_matrix() is the encoded input itself
    dense = PauliSum(gc.n_qubits, gc.items()).to_matrix()
    perm = np.array([gray_code(k) for k in range(8)])
    unperm = dense[np.ix_(perm, perm)][:5, :5]
    print(f"    max deviation from the input matrix: {np.abs(unperm - h).max():.2e}")


if __name__ == "__main__":
    main()
