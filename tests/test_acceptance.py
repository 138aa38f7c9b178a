"""End-to-end acceptance suite.

Every test pins the package against its desk-scale reference values: the
published resonance positions for the two model potentials, the qubit
budgets of the Gray-code encoding, and the statistical contracts of the
shot-mode pipeline.  One test per criterion; each prints a summary line.

Classical-path criteria are deterministic; quantum-path criteria run on
fixed seeds.
"""

import time

import numpy as np
import pytest

from csres import (
    PotentialModel,
    RadialBasisSpec,
    VqaConfig,
    aggregate_spectra,
    build_scaled_matrix,
    classify_spectrum,
    cost,
    critical_angle,
    encode_gray,
    encode_onehot_jw,
    extract_optimal,
    filtration_report,
    hermitianize,
    minimize_variance,
    pauli_decompose,
    pauli_multiply,
    run_trajectory,
    scan_spectrum,
    solve_spectrum,
)
from csres.hamiltonian import build_raw_matrices
from csres.simulator import apply_circuit, zero_state
from csres.vqa import AnsatzParams, VarianceCost, build_ansatz

from oracles import dense_from_terms, match_eigen_sets

SCHEMATIC = PotentialModel.schematic()
ALPHA = PotentialModel.alpha_alpha()

# classical theta grid and the quantum one
THETAS_CLASSICAL = np.arange(2.0, 45.0, 0.5)
THETAS_QUANTUM = np.arange(0.0, 30.5, 0.5)

# reference resonance positions (MeV) for the narrow (1-_2) and broad
# (1-_3) odd-parity states of the schematic potential, by basis size
REF_SCHEMATIC = {
    "narrow": {8: 1.1661 - 0.0007j, 16: 1.1682 - 0.0067j},
    "broad": {8: 2.0203 - 0.4822j, 16: 2.0120 - 0.4823j},
}
# alpha-alpha references: D-wave (2+_2) and G-wave (4+_1) resonances
REF_ALPHA = {
    "d_wave": {16: 2.8766 - 0.5744j, 32: 2.8907 - 0.6166j},
    "g_wave": {16: 11.7674 - 1.7743j, 32: 11.7896 - 1.7655j},
}
REF_ALPHA_0PLUS_RE = 0.0848  # N=32 real part; the tiny width is not a target

# quantum-pipeline references (statevector trajectories, N=16)
REF_QUANTUM = {
    "narrow": 1.1672 - 0.0064j,
    "broad": 2.0065 - 0.4732j,
    "g_wave": 11.7840 - 1.7639j,
    "d_wave_true": 2.8932 - 0.6224j,
}


def schematic_basis(n):
    # geometric widths 1 fm .. (n-1) fm reproduce the reference tables
    return RadialBasisSpec.gaussian(n, 1, 1.0, float(n - 1))


def classical_estimate(basis, model, center, radius, thetas=THETAS_CLASSICAL, bins=25):
    traj = run_trajectory(basis, model, thetas, center, radius)
    return extract_optimal(traj, bins=bins)


def assert_components(est, target, floor, label):
    tol_re = max(floor, est.bin_width_re)
    tol_im = max(floor, est.bin_width_im)
    dev_re = abs(est.energy.real - target.real)
    dev_im = abs(est.energy.imag - target.imag)
    assert dev_re <= tol_re, f"{label}: Re dev {dev_re:.4f} > {tol_re:.4f}"
    assert dev_im <= tol_im, f"{label}: Im dev {dev_im:.4f} > {tol_im:.4f}"
    return dev_re, dev_im


def test_criterion_01_narrow_schematic_trajectories():
    t0 = time.time()
    devs = {}
    for n in (8, 16):
        tn = time.time()
        est = classical_estimate(schematic_basis(n), SCHEMATIC, 1.17 - 0.0j, 0.5)
        devs[n] = assert_components(est, REF_SCHEMATIC["narrow"][n], 0.005, f"N={n}")
        assert time.time() - tn < 60.0
    print(f"[criterion 01] PASS narrow schematic: devs {devs} ({time.time()-t0:.0f}s)")


def test_criterion_02_broad_schematic_trajectories():
    devs = {}
    for n in (8, 16):
        est = classical_estimate(schematic_basis(n), SCHEMATIC, 2.0 - 0.5j, 0.5)
        devs[n] = assert_components(est, REF_SCHEMATIC["broad"][n], 0.005, f"N={n}")
    print(f"[criterion 02] PASS broad schematic: devs {devs}")


def test_criterion_03_alpha_bound_state_calibration():
    for n in (24, 32):
        ev0 = np.sort(
            np.linalg.eigvals(build_scaled_matrix(RadialBasisSpec.ho(n, 0, 1.36), ALPHA, 0.0).matrix).real
        )
        assert ev0[0] == pytest.approx(-72.7, abs=0.1)
        assert ev0[1] == pytest.approx(-25.8, abs=0.1)
        ev2 = np.sort(
            np.linalg.eigvals(build_scaled_matrix(RadialBasisSpec.ho(n, 2, 1.36), ALPHA, 0.0).matrix).real
        )
        assert ev2[0] == pytest.approx(-22.2, abs=0.1)
    print("[criterion 03] PASS redundant bound states at -72.7/-25.8/-22.2 MeV (0.1 tol)")


def test_criterion_04_alpha_trajectories():
    devs = {}
    for n in (16, 32):
        est_d = classical_estimate(
            RadialBasisSpec.ho(n, 2, 1.36), ALPHA, 2.9 - 0.6j, 0.5
        )
        devs[f"2+ N={n}"] = assert_components(est_d, REF_ALPHA["d_wave"][n], 0.02, f"2+ N={n}")
        est_g = classical_estimate(
            RadialBasisSpec.ho(n, 4, 1.36), ALPHA, 11.8 - 1.8j, 1.5
        )
        devs[f"4+ N={n}"] = assert_components(est_g, REF_ALPHA["g_wave"][n], 0.02, f"4+ N={n}")
    est_0 = classical_estimate(RadialBasisSpec.ho(32, 0, 1.36), ALPHA, 0.09 - 0.01j, 0.5)
    dev0 = abs(est_0.energy.real - REF_ALPHA_0PLUS_RE)
    assert dev0 <= max(0.02, est_0.bin_width_re)
    print(f"[criterion 04] PASS alpha-alpha trajectories: devs {devs}, 0+ Re dev {dev0:.4f}")


def test_criterion_05_qubit_counts():
    assert encode_gray(np.eye(16)).n_qubits == 4
    assert encode_gray(np.eye(5)).n_qubits == 3
    assert encode_gray(np.eye(32)).n_qubits == 5
    print("[criterion 05] PASS Gray register sizes 16->4, 5->3, 32->5")


def test_criterion_06_encoding_equivalence():
    for n in (4, 5, 8, 16):
        h = build_scaled_matrix(schematic_basis(n), SCHEMATIC, 24.0).matrix
        dense = encode_gray(h).to_matrix()
        pad = dense.shape[0] - n
        expected = np.concatenate([np.linalg.eigvals(h), np.zeros(pad)])
        dev = match_eigen_sets(expected, np.linalg.eigvals(dense))
        assert dev < 1e-10, f"N={n}: eigenvalue deviation {dev:.2e}"
    print("[criterion 06] PASS Gray spectra = classical + zero padding (1e-10)")


def test_criterion_07_exact_recovery():
    t0 = time.time()
    h5 = build_scaled_matrix(schematic_basis(5), SCHEMATIC, 24.0).matrix
    hg = encode_gray(h5)
    eigenvalues = np.linalg.eigvals(h5)
    config = VqaConfig(p=3)
    n_converged = 0
    recovered = set()
    for i, lam in enumerate(eigenvalues):
        for s in range(4):
            init = lam + 0.15 * np.exp(2j * s)  # inits within 0.2 MeV
            est = minimize_variance(hg, config, init_energy=init, seed=1000 + 10 * i + s)
            if est.converged and est.cost < 1e-6:
                n_converged += 1
                if abs(est.energy - lam) < 1e-3:
                    recovered.add(i)
    elapsed = time.time() - t0
    assert n_converged >= 18, f"only {n_converged}/20 runs converged"
    assert recovered == set(range(5)), f"recovered only {sorted(recovered)}"
    assert elapsed < 120.0
    print(f"[criterion 07] PASS {n_converged}/20 converged, all 5 levels within 1e-3 ({elapsed:.0f}s)")


def test_criterion_08_shot_mode_statistics():
    h5 = build_scaled_matrix(schematic_basis(5), SCHEMATIC, 24.0).matrix
    classical = np.linalg.eigvals(h5)
    hg = encode_gray(h5)
    n_runs, reps = 24, 8
    per_run = []
    for r in range(n_runs):
        cfg = VqaConfig(
            p=3, shots=8192, maxiter=400, warmup_maxiter=150,
            init_energy=-1.2 - 0.01j, scan_step=0.5, repetitions=reps,
            base_seed=500 + r * reps, shot_tol_scale=0.02, fd_step_shot=1e-3,
        )
        per_run.append(scan_spectrum(hg, cfg))
    clusters = aggregate_spectra(per_run)
    assert clusters
    checked = 0
    bound = min(classical, key=lambda z: z.real)
    for cl in clusters:
        if cl["n_members"] < n_runs // 4:
            continue  # weakly supported stray cluster
        med, mad = cl["median"], cl["mad"]
        near = classical[np.argmin(np.abs(classical - med))]
        if abs(near - med) > 0.25:
            continue  # padding artifact at the origin, discarded
        assert abs(med.real - near.real) <= 3 * mad[0] + 1e-12
        assert abs(med.imag - near.imag) <= 3 * mad[1] + 1e-12
        checked += 1
        if abs(near - bound) < 1e-9:
            assert mad[0] < 0.05 and mad[1] < 0.05, f"bound-state MAD {mad}"
    assert checked >= 3, f"only {checked} supported clusters matched"
    print(f"[criterion 08] PASS {checked} clusters median-within-3MAD at 8192 shots, {n_runs} runs")


def quantum_estimate(basis, model, p, init, center, radius, seed=21):
    cfg = VqaConfig(
        p=p, init_energy=init, base_seed=seed,
        maxiter=300, warmup_maxiter=120, cost_tol_rel=1e-5,
    )
    traj = run_trajectory(
        basis, model, THETAS_QUANTUM, center, radius,
        engine="quantum", vqa_config=cfg, attempts=2,
    )
    return extract_optimal(traj), traj


def assert_on_eigenvalues(basis, model, traj, label, bound=1e-3):
    """Every accepted point lies within ``bound`` of an eigenvalue of its theta's matrix."""
    for point in traj.points:
        h = build_scaled_matrix(basis, model, point.theta_deg).matrix
        dist = np.abs(np.linalg.eigvals(h) - point.energy).min()
        assert dist <= bound, f"{label}, theta={point.theta_deg}: {dist:.2e} from every eigenvalue"


def test_criterion_09_quantum_trajectories():
    budget = 30 * 60.0
    # schematic narrow state, P=3
    t0 = time.time()
    est, traj = quantum_estimate(schematic_basis(16), SCHEMATIC, 3, 1.1 - 0.0j, 1.17 - 0.0j, 0.5)
    assert time.time() - t0 < budget
    assert_on_eigenvalues(schematic_basis(16), SCHEMATIC, traj, "narrow")
    dev = (abs(est.energy.real - REF_QUANTUM["narrow"].real),
           abs(est.energy.imag - REF_QUANTUM["narrow"].imag))
    assert max(dev) <= 0.02, f"narrow dev {dev}"
    # same-basis classical mode agrees within 0.01 per component
    cl = classical_estimate(schematic_basis(16), SCHEMATIC, 1.17 - 0.0j, 0.5,
                            thetas=THETAS_QUANTUM)
    assert abs(est.energy.real - cl.energy.real) <= 0.01
    assert abs(est.energy.imag - cl.energy.imag) <= 0.01
    # schematic broad state, P=3
    t0 = time.time()
    est_b, traj = quantum_estimate(schematic_basis(16), SCHEMATIC, 3, 2.0 - 0.5j, 2.0 - 0.5j, 0.5)
    assert time.time() - t0 < budget
    assert_on_eigenvalues(schematic_basis(16), SCHEMATIC, traj, "broad")
    dev_b = (abs(est_b.energy.real - REF_QUANTUM["broad"].real),
             abs(est_b.energy.imag - REF_QUANTUM["broad"].imag))
    assert max(dev_b) <= 0.05, f"broad dev {dev_b}"
    # alpha-alpha G wave, P=4; neighborhood centered on the scan estimate
    t0 = time.time()
    est_g, traj = quantum_estimate(
        RadialBasisSpec.ho(16, 4, 1.36), ALPHA, 4, 11.5 - 0.01j, 11.88 - 1.59j, 1.5
    )
    assert time.time() - t0 < budget
    assert_on_eigenvalues(RadialBasisSpec.ho(16, 4, 1.36), ALPHA, traj, "G wave")
    dev_g = (abs(est_g.energy.real - REF_QUANTUM["g_wave"].real),
             abs(est_g.energy.imag - REF_QUANTUM["g_wave"].imag))
    assert max(dev_g) <= 0.05, f"G-wave dev {dev_g}"
    # alpha-alpha D wave, P=4: modulus error against the converged position
    t0 = time.time()
    est_d, traj = quantum_estimate(
        RadialBasisSpec.ho(16, 2, 1.36), ALPHA, 4, 2.9 - 0.01j, 2.9 - 0.6j, 0.75
    )
    assert time.time() - t0 < budget
    assert_on_eigenvalues(RadialBasisSpec.ho(16, 2, 1.36), ALPHA, traj, "D wave")
    err_d = abs(est_d.energy - REF_QUANTUM["d_wave_true"])
    assert err_d <= 0.3, f"D-wave modulus error {err_d:.3f}"
    print(
        f"[criterion 09] PASS quantum trajectories: narrow {dev}, broad {dev_b}, "
        f"G {dev_g}, D modulus {err_d:.3f}; every point within 1e-3 of an eigenvalue"
    )


def test_broad_trajectory_stays_on_eigenvalues_at_seed_24():
    # criterion 09's broad trajectory at base seed 24: with E read from the
    # least-squares fit, warm starts carried a drift of up to 2.2e-2 from
    # every eigenvalue (theta = 28.5 deg); E_c of the state stays on one
    basis = schematic_basis(16)
    _, traj = quantum_estimate(basis, SCHEMATIC, 3, 2.0 - 0.5j, 2.0 - 0.5j, 0.5, seed=24)
    assert_on_eigenvalues(basis, SCHEMATIC, traj, "broad, base seed 24")


def test_criterion_10_filtration():
    h5 = build_scaled_matrix(schematic_basis(5), SCHEMATIC, 24.0).matrix
    classical = np.linalg.eigvals(h5)
    hjw = encode_onehot_jw(h5)
    # three scan lines cover the spectrum's depth in the lower half plane
    estimates = []
    for init, reps, seed in (
        (-1.5 - 0.01j, 25, 31),
        (-1.0 - 1.3j, 20, 77),
        (-0.5 - 2.4j, 12, 113),
    ):
        cfg = VqaConfig(
            p=3, repetitions=reps, scan_step=0.35, init_energy=init,
            base_seed=seed, maxiter=400, warmup_maxiter=150,
            cost_tol_rel=3e-5, encoding="onehot_jw",
        )
        estimates.extend(scan_spectrum(hjw, cfg))
    report = filtration_report(
        [e.state for e in estimates], [e.energy for e in estimates], shots=8192, seed=5,
    )
    physical_found = set()
    n_redundant = 0
    for est, row in zip(estimates, report.rows):
        dist = np.abs(classical - est.energy).min()
        if dist < 5e-2:
            idx = int(np.argmin(np.abs(classical - est.energy)))
            physical_found.add(idx)
            assert row.percentages.get("001", 0.0) >= 99.0, (
                f"physical state at {est.energy:.3f} leaked: {row.percentages}"
            )
        else:
            n_redundant += 1
            assert row.percentages.get("001", 0.0) < 50.0, (
                f"redundant state at {est.energy:.3f} looks physical"
            )
    assert physical_found == set(range(5)), f"found {sorted(physical_found)}"
    assert n_redundant >= 3
    print(
        f"[criterion 10] PASS filtration: 5/5 physical >=99% on '001', "
        f"{n_redundant} redundant states all < 50%"
    )


def test_criterion_11_property_suite(rng):
    # Pauli decompose/multiply roundtrips
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ps = pauli_decompose(m)
    assert np.abs(dense_from_terms(ps.items(), 3) - m).max() < 1e-12
    a = pauli_decompose(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    prod = pauli_multiply(a, ps)
    assert np.abs(
        dense_from_terms(prod.items(), 3)
        - dense_from_terms(a.items(), 3) @ dense_from_terms(ps.items(), 3)
    ).max() < 1e-11
    # hermitianize positive semidefinite
    herm = hermitianize(ps, 0.3 - 0.8j)
    assert np.linalg.eigvalsh(dense_from_terms(herm.items(), 3)).min() > -1e-10
    # statevector unitarity
    params = AnsatzParams.random(rng, 3, 3, scale=1.0)
    state = apply_circuit(zero_state(3), build_ansatz(params))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10
    # cost vs dense oracle
    h5 = build_scaled_matrix(schematic_basis(5), SCHEMATIC, 24.0).matrix
    hg = encode_gray(h5)
    e = complex(rng.normal(), rng.normal())
    psi = apply_circuit(zero_state(3), build_ansatz(params))
    dense = dense_from_terms(hg.items(), 3)
    resid = dense @ psi - e * psi
    assert cost(params, e, hg) == pytest.approx(float(np.vdot(resid, resid).real), abs=1e-10)
    # continuum rotation at the converged basis size: classify with a 2 degree
    # band; every labeled eigenvalue holds the rotation and the band is full
    spec75 = RadialBasisSpec.gaussian(75, 1, 0.02, 75.0)
    h_raw, s = build_raw_matrices(spec75, SCHEMATIC, 24.0)
    energies = solve_spectrum(h_raw, overlap=s).energies
    labels = classify_spectrum(energies, 24.0, tol_c_deg=2.0)
    continuum = [e for e, lab in zip(energies, labels) if lab == "continuum"]
    assert len(continuum) >= 20
    for e in continuum:
        assert abs(np.degrees(np.angle(e)) + 48.0) < 2.0
    # critical angle spot checks
    assert critical_angle(2.0175 - 0.4863j) == pytest.approx(6.776, abs=5e-3)
    assert critical_angle(5.0 + 0.0j) == 0.0
    # seed determinism of the variational path
    cfg = VqaConfig(p=2, maxiter=150)
    r1 = minimize_variance(hg, cfg, init_energy=1.0 - 0.1j, seed=8)
    r2 = minimize_variance(hg, cfg, init_energy=1.0 - 0.1j, seed=8)
    assert r1.energy == r2.energy and r1.cost == r2.cost
    print("[criterion 11] PASS property suite (roundtrips, PSD, unitarity, "
          "cost oracle, continuum rotation, critical angles, determinism)")
