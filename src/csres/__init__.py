"""Resonance poles of complex-scaled Hamiltonians.

Classical route: Gaussian or harmonic-oscillator basis, complex-scaled
matrix elements in the c-product, dense non-Hermitian diagonalisation,
theta-trajectories with the resonance read where they are stationary.

Quantum route: Pauli encodings (one-hot/Jordan-Wigner or Gray code) of the
orthonormal-basis Hamiltonian, a variance-minimisation variational solver
on an exact statevector simulator with optional shot noise, and
phase-estimation filtration of particle-number-breaking states.
"""

from .basis import (
    GAUSSIAN,
    HARMONIC_OSCILLATOR,
    OrthoTransform,
    RadialBasisSpec,
    eval_gaussian_radial,
    eval_ho_radial,
    geometric_alphas,
    gram_schmidt_transform,
    overlap_matrix,
    quadrature_grid,
)
from .encoding import (
    PauliSum,
    encode_gray,
    encode_onehot_jw,
    gray_code,
    hermitianize,
    pauli_decompose,
    pauli_multiply,
)
from .errors import ConfigError, CsresError, NumericalError
from .filtration import (
    FiltrationReport,
    filtration_report,
    number_operator_pauli,
    qpe_ancilla_probabilities,
    qpe_project,
    qpe_project_circuit,
)
from .hamiltonian import (
    ALPHA_ALPHA,
    SCHEMATIC,
    PotentialModel,
    ScaledHamiltonian,
    SpectrumResult,
    build_raw_matrices,
    build_scaled_matrix,
    classify_spectrum,
    critical_angle,
    eval_potential,
    solve_spectrum,
)
from .simulator import (
    Circuit,
    Gate,
    apply_circuit,
    basis_state,
    expectation_sum,
    zero_state,
)
from .trajectory import (
    ResonanceEstimate,
    ThetaTrajectory,
    TrajectoryPoint,
    extract_optimal,
    run_trajectory,
    trajectory_speed,
)
from .vqa import (
    AnsatzParams,
    EigenpairEstimate,
    VqaConfig,
    aggregate_runs,
    aggregate_spectra,
    build_ansatz,
    cost,
    encode_matrix,
    minimize_variance,
    scan_spectrum,
)

__version__ = "0.1.0"
