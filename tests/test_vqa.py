import gc
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from csres import (
    AnsatzParams,
    PauliSum,
    PotentialModel,
    RadialBasisSpec,
    VqaConfig,
    aggregate_runs,
    apply_circuit,
    build_ansatz,
    build_scaled_matrix,
    cost,
    encode_gray,
    encode_onehot_jw,
    expectation_sum,
    hermitianize,
    minimize_variance,
    pauli_decompose,
    pauli_multiply,
    scan_spectrum,
    zero_state,
)
import csres.vqa
from csres.vqa import (CLUSTER_RADIUS, VarianceCost, _ansatz_states, _make_objective,
                       _run_restarts, _sweep_plan, cluster_estimates)

from oracles import dense_from_terms, kron_pauli


def dense_cost(h_dense, psi, energy):
    y = h_dense @ psi - energy * psi
    return float(np.real(np.vdot(y, y)))


class TestBuildAnsatz:
    def test_zero_params_identity(self):
        params = AnsatzParams.from_vector(np.zeros(3 * (3 * 4 - 1)), 4, 3)
        state = apply_circuit(zero_state(4), build_ansatz(params, 4))
        np.testing.assert_allclose(state, zero_state(4), atol=1e-14)

    def test_gate_count_per_layer(self):
        n, p = 5, 2
        params = AnsatzParams.from_vector(np.zeros(p * (3 * n - 1)), n, p)
        circ = build_ansatz(params, n)
        assert len(circ.gates) == p * ((n - 1) + n + n)

    def test_single_xx_rotation_state(self):
        vec = np.zeros(5)
        vec[0] = np.pi / 4  # beta for the only pair; gamma = delta = 0
        params = AnsatzParams.from_vector(vec, 2, 1)
        state = apply_circuit(zero_state(2), build_ansatz(params, 2))
        oracle = expm(-1j * np.pi / 4 * kron_pauli("XX")) @ zero_state(2)
        np.testing.assert_allclose(state, oracle, atol=1e-12)
        np.testing.assert_allclose(
            state, np.array([1.0, 0.0, 0.0, -1j]) / np.sqrt(2), atol=1e-12
        )

    def test_vector_roundtrip(self, rng):
        params = AnsatzParams.random(rng, 4, 3)
        back = AnsatzParams.from_vector(params.to_vector(), 4, 3)
        np.testing.assert_array_equal(params.to_vector(), back.to_vector())

    def test_batched_matches_circuit_path(self, rng):
        for n, p in ((1, 1), (3, 2), (5, 3)):
            rows = rng.uniform(-0.8, 0.8, size=(6, p * (3 * n - 1)))
            for row in rows:
                fast = _ansatz_states(row, n, p)[0]
                params = AnsatzParams.from_vector(row, n, p)
                slow = apply_circuit(zero_state(n), build_ansatz(params, n))
                np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_sweep_plan_stays_small(self):
        # the block sweep holds per-qubit signs and two half-register
        # Hadamard factors, never a 2^n x 2^n matrix (128 MiB at 12 qubits)
        blocks, ha, hb = _sweep_plan(12, 3)
        signs = blocks[0][2].base
        assert sum(a.nbytes for a in (signs, ha, hb)) < 2**20
        for _, _, s in blocks:
            assert np.shares_memory(s, signs)
        for a in (signs, ha, hb):
            assert not a.flags.writeable

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 3), (4, 4)])
    def test_tangent_rows_match_central_differences(self, rng, n, p):
        d = p * (3 * n - 1)
        zeta = rng.uniform(-0.8, 0.8, d)
        rows = _ansatz_states(zeta, n, p, tangent=True)
        assert rows.shape == (d + 1, 2**n)
        # row 0 of the tangent sweep is the plain sweep's psi, bit for bit:
        # the exact-mode residual reads it, and its Jacobian reuses the sweep
        plain = _ansatz_states(zeta, n, p)[0]
        assert np.array_equal(*(np.ascontiguousarray(a).view(np.uint64) for a in (rows[0], plain)))
        slow = apply_circuit(zero_state(n), build_ansatz(AnsatzParams.from_vector(zeta, n, p), n))
        np.testing.assert_allclose(rows[0], slow, atol=1e-12)
        step = 1e-6
        for j in range(d):
            shift = np.zeros(d)
            shift[j] = step
            fd = (_ansatz_states(zeta + shift, n, p)[0]
                  - _ansatz_states(zeta - shift, n, p)[0]) / (2 * step)
            np.testing.assert_allclose(rows[j + 1], fd, atol=1e-8)

    @pytest.mark.parametrize("n, p", [(3, 2), (5, 3)])
    def test_conjugate_state_is_the_negated_parameters(self, rng, n, p):
        # the generators XX, Z and X are real, so conj psi(zeta) = psi(-zeta):
        # E_c = psi^T M psi is the transition amplitude <psi(-zeta)|M|psi(zeta)>
        zeta = rng.uniform(-0.8, 0.8, p * (3 * n - 1))
        np.testing.assert_allclose(_ansatz_states(zeta, n, p)[0].conj(),
                                   _ansatz_states(-zeta, n, p)[0], atol=1e-14)


class TestCost:
    def test_exact_eigenvector_zero_cost(self):
        h = pauli_decompose(np.diag([0.7 - 0.3j, 2.0 + 1.0j]))
        params = AnsatzParams.from_vector(np.zeros(2), 1, 1)  # |0>
        assert cost(params, 0.7 - 0.3j, h) == pytest.approx(0.0, abs=1e-10)

    def test_energy_offset_quadratic(self):
        h = pauli_decompose(np.diag([0.7 - 0.3j, 2.0 + 1.0j]))
        params = AnsatzParams.from_vector(np.zeros(2), 1, 1)
        delta = 0.2 - 0.05j
        assert cost(params, 0.7 - 0.3j + delta, h) == pytest.approx(abs(delta) ** 2, abs=1e-12)

    def test_random_point_matches_dense(self, rng, h5_gray):
        h_dense = dense_from_terms(h5_gray.items(), 3)
        for _ in range(5):
            params = AnsatzParams.random(rng, 3, 3, scale=0.7)
            e = complex(rng.normal(), rng.normal())
            psi = apply_circuit(zero_state(3), build_ansatz(params, 3))
            assert cost(params, e, h5_gray) == pytest.approx(
                dense_cost(h_dense, psi, e), abs=1e-10
            )
            # the README's sampled evaluation, without shots, is the same cost
            assert expectation_sum(psi, hermitianize(h5_gray, e)).real == pytest.approx(
                cost(params, e, h5_gray), abs=1e-10)

    def test_nonnegative(self, rng, h5_gray):
        for _ in range(10):
            params = AnsatzParams.random(rng, 3, 3, scale=1.5)
            e = complex(rng.normal(scale=2), rng.normal(scale=2))
            assert cost(params, e, h5_gray) > -1e-10


class TestCEnergy:
    """E_c = psi^T M psi / psi^T psi, the c-product Rayleigh quotient of exact mode."""

    @pytest.mark.parametrize("encode", [encode_gray, encode_onehot_jw])
    def test_exact_eigenvector_gives_its_eigenvalue(self, h5_matrix, encode):
        vc = VarianceCost(encode(h5_matrix))
        lam, vecs = np.linalg.eig(vc.matrix)
        for k in range(len(lam)):
            assert abs(vc.c_energy(vecs[:, k], np.nan) - lam[k]) < 1e-10

    def test_error_quadratic_in_the_state_error(self, h5_gray, rng):
        # on eigenvector + eps * noise, E_c is off by O(eps^2) (M is complex
        # symmetric) and the Hermitian quotient <psi|M|psi> by O(eps)
        vc = VarianceCost(h5_gray)
        lam, vecs = np.linalg.eig(vc.matrix)
        k = int(np.argmax(np.abs(lam)))
        noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        eps = np.logspace(-2, -5, 7)
        err_c, err_h = [], []
        for e in eps:
            psi = vecs[:, k] + e * noise / np.linalg.norm(noise)
            err_c.append(abs(vc.c_energy(psi, np.nan) - lam[k]))
            err_h.append(abs(np.vdot(psi, vc.matrix @ psi) / np.vdot(psi, psi) - lam[k]))
        slope_c = np.polyfit(np.log(eps), np.log(err_c), 1)[0]
        slope_h = np.polyfit(np.log(eps), np.log(err_h), 1)[0]
        assert slope_c == pytest.approx(2.0, abs=0.05)
        assert slope_h == pytest.approx(1.0, abs=0.05)

    def test_self_orthogonal_state_falls_back(self):
        vc = VarianceCost(pauli_decompose(np.array([[1.0, 0.5j], [0.5j, -1.0]])))
        psi = np.array([1.0, 1j]) / np.sqrt(2)  # psi^T psi = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vc.c_energy(psi, 0.3 - 0.2j) == 0.3 - 0.2j

    def test_settle_rule_reads_the_state_of_the_accepted_x(self, h5_gray, monkeypatch):
        # the joint fit takes psi from the Jacobian's tangent sweep: scipy's
        # trf must evaluate the Jacobian at every x it hands the callback
        seen = []

        def checked(fun, x0, jac, callback=None, **kwargs):
            last = []

            def jac_logged(x):
                last[:] = [np.array(x)]
                return jac(x)

            def callback_checked(intermediate_result):
                seen.append(np.array_equal(intermediate_result.x, last[0]))
                return callback(intermediate_result)

            return original(fun, x0, jac=jac_logged, callback=callback and callback_checked,
                            **kwargs)

        original = csres.vqa.least_squares
        monkeypatch.setattr(csres.vqa, "least_squares", checked)
        est = minimize_variance(h5_gray, VqaConfig(p=3), init_energy=1.0 - 0.1j, seed=3)
        assert len(seen) > 5 and all(seen)
        # the reported energy is E_c of the final state
        assert est.energy == VarianceCost(h5_gray).c_energy(est.state, np.nan)


class TestGradient:
    def test_fd_gradient_matches_dense_oracle(self, rng, h5_gray):
        # with zero frozen noise the shot-mode surface is the exact one
        config = VqaConfig(p=2, shots=1024, fd_step_shot=1e-6)
        vc = VarianceCost(h5_gray)
        zero = tuple(np.zeros_like(z) for z in vc.frozen_noise(rng))
        fun_and_grad = _make_objective(vc, config, zero)
        h_dense = dense_from_terms(h5_gray.items(), 3)

        def dense_fun(x):
            psi = _ansatz_states(x[:-2], 3, 2)[0]
            return dense_cost(h_dense, psi, x[-2] + 1j * x[-1])

        x = np.concatenate([rng.uniform(-0.5, 0.5, 2 * (3 * 3 - 1)), [0.4, -0.2]])
        mine = fun_and_grad(x)[1]
        step = 1e-7
        oracle = np.zeros_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            oracle[i] = (dense_fun(xp) - dense_fun(xm)) / (2 * step)
        scale = np.abs(oracle).max()
        assert np.abs(mine - oracle).max() < 1e-4 * max(scale, 1.0)

    def test_value_is_the_sampled_cost_at_psi(self, rng, h5_gray):
        # the value returned with the gradient is the frozen-noise cost of psi
        config = VqaConfig(p=2, shots=512)
        vc = VarianceCost(h5_gray)
        frozen = vc.frozen_noise(rng)
        fun_and_grad = _make_objective(vc, config, frozen)
        for _ in range(3):
            x = np.concatenate([rng.uniform(-0.8, 0.8, 2 * (3 * 3 - 1)), rng.normal(size=2)])
            psi = _ansatz_states(x[:-2], 3, 2)
            e1, t1 = vc.brackets_sampled(psi, config.shots, frozen=frozen)
            e = complex(x[-2], x[-1])
            oracle = e1[0] - 2.0 * np.real(np.conj(e) * t1[0]) + abs(e) ** 2
            assert abs(fun_and_grad(x)[0] - oracle) < 1e-12

    def test_cost_is_exact_paraboloid_in_energy(self, rng, h5_gray):
        # fit a quadratic in (E_r, E_i) through 6 samples, residual ~ 0
        params = AnsatzParams.random(rng, 3, 3)
        samples = []
        for er, ei in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            samples.append((er, ei, cost(params, complex(er, ei), h5_gray)))
        # model c = a0 + a1 er + a2 ei + a3 er^2 + a4 ei^2 (+ cross term a5)
        a = np.array([[1, er, ei, er**2, ei**2, er * ei] for er, ei, _ in samples])
        b = np.array([c for _, _, c in samples])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        fitted = a @ coef
        assert np.abs(fitted - b).max() < 1e-10
        assert coef[3] == pytest.approx(1.0, abs=1e-9)  # |E|^2 curvature
        assert coef[4] == pytest.approx(1.0, abs=1e-9)
        assert coef[5] == pytest.approx(0.0, abs=1e-9)



class TestBrackets:
    def test_dropped_operator_is_freed(self, h5_gray):
        h = h5_gray.scaled(1.0)
        ref = weakref.ref(h)
        VarianceCost(h)
        del h
        gc.collect()
        assert ref() is None

    def test_frozen_noise_matches_inline_shot_model(self, rng, h5_gray):
        shots = 256
        vc = VarianceCost(h5_gray)
        states = np.vstack([_ansatz_states(zeta, 3, 3)
                            for zeta in rng.uniform(-0.8, 0.8, (3, 3 * (3 * 3 - 1)))])
        zero = tuple(np.zeros_like(z) for z in vc.frozen_noise(rng))
        e1, t1 = vc.brackets_sampled(states, shots, frozen=zero)
        hdh = pauli_multiply(h5_gray.dagger(), h5_gray)
        for value, psum in ((e1, hdh), (t1, h5_gray)):
            dense = dense_from_terms(psum.items(), 3)
            exact = np.einsum("bi,ij,bj->b", states.conj(), dense, states)
            np.testing.assert_allclose(value, exact, rtol=0, atol=1e-12)

        frozen = vc.frozen_noise(rng)
        got = vc.brackets_sampled(states, shots, frozen=frozen)

        def x_mask(letters):
            return sum(1 << q for q, ch in enumerate(letters) if ch in "XY")

        # each sum's variates follow its strings by ascending X mask, then letters
        orders = (sorted((s for s, _ in psum.items()), key=lambda s: (x_mask(s), s))
                  for psum in (hdh, h5_gray))
        for psum, order, z, values in zip((hdh, h5_gray), orders, frozen, got):
            assert "III" in order
            for psi, value in zip(states, values):
                oracle = 0.0
                for letters, z_k in zip(order, z):
                    c_k = psum.coefficient(letters)
                    if letters == "III":
                        oracle += c_k
                        continue
                    m_k = np.vdot(psi, kron_pauli(letters) @ psi).real
                    oracle += c_k * (m_k + z_k * np.sqrt((1.0 - m_k**2) / shots))
                assert abs(value - oracle) < 1e-12


class TestMinimize:
    def test_single_level_converges_from_anywhere(self):
        # padding adds an exact zero eigenvalue; any init nearer the physical
        # level must land on it
        h = encode_gray(np.array([[1.75 - 0.4j]]))
        config = VqaConfig(p=1, maxiter=500)
        for k, init in enumerate((1.0, 3.0 - 1.0j, 2.0 + 0.5j)):
            est = minimize_variance(h, config, init_energy=init, seed=k)
            assert est.converged
            assert abs(est.energy - (1.75 - 0.4j)) < 1e-6
        origin = minimize_variance(h, config, init_energy=0.0, seed=9)
        assert origin.converged and abs(origin.energy) < 1e-6

    def test_targets_nearby_eigenvalue(self, h5_gray, h5_matrix):
        lam = sorted(np.linalg.eigvals(h5_matrix), key=lambda z: abs(z))[0]
        config = VqaConfig(p=3)
        est = minimize_variance(h5_gray, config, init_energy=lam + 0.1, seed=3)
        assert est.converged
        assert abs(est.energy - lam) < 1e-3

    def test_low_cost_implies_eigenpair(self, h5_gray, h5_matrix, rng):
        config = VqaConfig(p=3)
        lam = np.linalg.eigvals(h5_matrix)[0]
        est = minimize_variance(h5_gray, config, init_energy=lam + 0.05, seed=9)
        if est.cost < 1e-10:
            h_dense = dense_from_terms(h5_gray.items(), 3)
            resid = np.linalg.norm(h_dense @ est.state - est.energy * est.state)
            assert resid < 1e-5

    def test_bit_identical_rerun(self, h5_gray):
        config = VqaConfig(p=2, maxiter=200)
        a = minimize_variance(h5_gray, config, init_energy=1.0 - 0.1j, seed=42)
        b = minimize_variance(h5_gray, config, init_energy=1.0 - 0.1j, seed=42)
        assert a.energy == b.energy
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.params.to_vector(), b.params.to_vector())

    def test_init_params_start_at_a_solution(self, h5_gray, h5_matrix):
        # started from a converged eigenpair, the run stays there whatever the seed
        lam = sorted(np.linalg.eigvals(h5_matrix), key=lambda z: abs(z))[0]
        a = minimize_variance(h5_gray, VqaConfig(p=3), init_energy=lam + 0.1, seed=3)
        assert a.converged
        b = minimize_variance(h5_gray, VqaConfig(p=3), init_energy=a.energy, seed=7,
                              init_params=a.params)
        assert b.converged and abs(b.energy - lam) < 1e-3
        assert b.iterations <= a.iterations
        with pytest.raises(ValueError, match="register size and depth"):
            minimize_variance(h5_gray, VqaConfig(p=2), init_params=a.params)

    def test_warm_start_stops_before_its_budget(self):
        # a trajectory step at the quantum-trajectory settings (Gray N = 16,
        # narrow schematic pole): the joint fit from the converged solution
        # at the neighbouring angle stops once it has settled, not at maxiter
        basis = RadialBasisSpec.gaussian(16, 1, 1.0, 15.0)
        config = VqaConfig(p=3, init_energy=1.1 - 0.0j, maxiter=300, warmup_maxiter=120,
                           cost_tol_rel=1e-5)

        def operator(theta):
            h = build_scaled_matrix(basis, PotentialModel.schematic(), theta).matrix
            return encode_gray(h), np.linalg.eigvals(h)

        before = minimize_variance(operator(12.5)[0], config, seed=2)
        assert before.converged
        h_sum, lam = operator(13.0)
        est = minimize_variance(h_sum, config, init_energy=before.energy,
                                init_params=before.params)
        assert est.converged
        assert np.abs(lam - est.energy).min() < 1e-4
        assert est.iterations < config.maxiter

    def test_one_ansatz_sweep_per_evaluation(self, h5_gray, monkeypatch):
        # the Jacobian at an evaluated point reuses its residual's sweep, so a
        # run with a warm-up sweeps once per evaluation, plus its final state
        calls = []

        def counted(*args, _fn=csres.vqa._ansatz_states, **kwargs):
            calls.append(None)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(csres.vqa, "_ansatz_states", counted)
        est = minimize_variance(h5_gray, VqaConfig(p=3), init_energy=1.0 - 0.1j, seed=3)
        assert est.converged and est.iterations > 10
        assert len(calls) == est.iterations + 1

    def test_exact_mode_never_expands_the_gray_strings(self, h5_matrix):
        # exact mode runs on the dense matrix; only shot mode reads the strings
        h_sum = encode_gray(h5_matrix)
        vc = VarianceCost(h_sum)
        minimize_variance(vc, VqaConfig(p=2, maxiter=40, warmup_maxiter=20), seed=4)
        assert "_terms" not in vars(h_sum)
        vc.frozen_noise(np.random.default_rng(0))
        assert "_terms" in vars(h_sum)

    @pytest.mark.parametrize("shots, solver", [(None, "least_squares"), (256, "minimize")])
    def test_warmup_runs_exactly_for_a_random_start(self, h5_gray, monkeypatch,
                                                   shots, solver):
        calls = []

        def counted(*args, _fn=getattr(csres.vqa, solver), **kwargs):
            calls.append(solver)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(csres.vqa, solver, counted)
        config = VqaConfig(p=1, shots=shots, maxiter=5, warmup_maxiter=5)
        start = minimize_variance(h5_gray, config, seed=3)
        assert len(calls) == 2  # fixed-E warm-up, then the joint fit
        if shots is None:  # a given start is exact mode's alone
            minimize_variance(h5_gray, config, seed=3, init_params=start.params)
            assert len(calls) == 3  # the joint fit alone

    def test_shot_mode_takes_no_given_start(self, h5_gray):
        # a warm start on frozen noise has no caller: a trajectory runs exactly
        start = minimize_variance(h5_gray, VqaConfig(p=1, maxiter=5, warmup_maxiter=5), seed=3)
        with pytest.raises(ValueError, match="init_params"):
            minimize_variance(h5_gray, VqaConfig(p=1, shots=256), init_params=start.params)

    def test_converged_is_judged_at_the_reported_energy(self):
        # criterion 09's D-wave cold start at theta = 34 deg: seed 21 ends nearly
        # self-orthogonal, its E_c 0.151 from every eigenvalue, at cost 0.018 at
        # the fitted E but 1.31 at E_c, against a tolerance of 0.165
        h = build_scaled_matrix(RadialBasisSpec.ho(16, 2, 1.36), PotentialModel.alpha_alpha(),
                                34.0).matrix
        lam = np.linalg.eigvals(h)
        vc = VarianceCost(encode_gray(h))
        config = VqaConfig(p=4, init_energy=2.9 - 0.01j, maxiter=300, warmup_maxiter=120,
                           cost_tol_rel=1e-5)
        for seed in (21, 68021, 68022):  # 68021, 68022: criterion 09's restarts there
            est = minimize_variance(vc, config, seed=seed)
            assert est.cost == vc.exact(est.state, est.energy)[0]
            assert est.converged == (np.abs(lam - est.energy).min() < 1e-3) == (seed != 21)

    @pytest.mark.parametrize("k", range(16))
    def test_scan_run_robust_to_last_bits(self, k):
        # the criterion-10 run that finds 0.8976 - 1.2954i (seed-77 scan line,
        # restart 5) must find it whatever the last bits of H
        h5 = build_scaled_matrix(RadialBasisSpec.gaussian(5, 1, 1.0, 4.0),
                                 PotentialModel.schematic(), 24.0).matrix
        rng = np.random.default_rng(k)
        noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = h5 + 1e-16 * np.abs(h5).max() * (noise + noise.T) / 2
        lam = np.linalg.eigvals(h)
        lam = lam[np.argmin(np.abs(lam - (0.8976 - 1.2954j)))]
        config = VqaConfig(p=3, maxiter=400, warmup_maxiter=150, cost_tol_rel=3e-5,
                           encoding="onehot_jw")
        est = minimize_variance(encode_onehot_jw(h), config, init_energy=0.75 - 1.3j, seed=82)
        assert est.converged
        assert abs(est.energy - lam) < 1e-6

    @pytest.mark.parametrize("shots", [None, 512])
    def test_variance_cost_argument_gives_the_same_run(self, h5_gray, shots):
        config = VqaConfig(p=2, shots=shots, maxiter=40, warmup_maxiter=20)
        a = minimize_variance(h5_gray, config, init_energy=1.0 - 0.1j, seed=4)
        b = minimize_variance(VarianceCost(h5_gray), config, init_energy=1.0 - 0.1j, seed=4)
        assert (a.energy, a.cost, a.iterations) == (b.energy, b.cost, b.iterations)

    def test_shot_mode_runs_and_classifies(self, h5_gray, h5_matrix):
        lam = sorted(np.linalg.eigvals(h5_matrix), key=lambda z: abs(z))[0]
        config = VqaConfig(p=3, shots=2048, maxiter=150, warmup_maxiter=60)
        est = minimize_variance(h5_gray, config, init_energy=lam + 0.05j, seed=17)
        assert isinstance(est.converged, bool)
        assert np.isfinite(est.cost)


def _bits(est):
    return (est.energy, est.cost, est.converged, est.iterations, est.seed, est.multiplicity,
            est.state.tobytes())


class TestScanAggregate:
    @pytest.mark.parametrize("shots", [None, 2048])
    @pytest.mark.parametrize("cpus", [{0, 1}, {0}, None],
                             ids=["two-workers", "one-cpu", "no-affinity-call"])
    def test_scan_is_the_sequential_loop_bit_for_bit(self, h5_gray, monkeypatch, shots, cpus):
        # the restarts run in one forked worker per CPU, or in this process
        # on one CPU and where os.sched_getaffinity does not exist (non-Linux)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        config = VqaConfig(p=3, shots=shots, repetitions=4, maxiter=80, warmup_maxiter=30,
                           init_energy=-1.2 - 0.01j, scan_step=0.5, base_seed=100)
        runs = [minimize_variance(h5_gray, config, seed=config.base_seed + k,
                                  init_energy=config.init_energy + k * config.scan_step)
                for k in range(config.repetitions)]
        got = _run_restarts(VarianceCost(h5_gray), config)
        assert [_bits(e) for e in got] == [_bits(e) for e in runs]  # in restart order
        reps = [replace(min(cl, key=lambda e: e.cost), multiplicity=len(cl))
                for cl in cluster_estimates([e for e in runs if e.converged], CLUSTER_RADIUS)]
        reps.sort(key=lambda e: (e.energy.real, e.energy.imag))
        assert len(reps) >= 2
        assert [_bits(e) for e in scan_spectrum(h5_gray, config)] == [_bits(e) for e in reps]

    def test_worker_failure_reaches_the_caller_and_no_worker_outlives_a_scan(
            self, h5_gray, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = VqaConfig(p=1, shots=256, repetitions=3, maxiter=5, warmup_maxiter=5)
        scan_spectrum(h5_gray, config)
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="^shots must be positive$") as failure:
            scan_spectrum(h5_gray, replace(config, shots=0))
        # raised by shot_estimate in a worker, with the worker's traceback as its cause
        assert type(failure.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []

    def test_scan_recovers_spectrum(self, h5_gray, h5_matrix):
        classical = np.linalg.eigvals(h5_matrix)
        config = VqaConfig(
            p=3, repetitions=12, scan_step=0.4,
            init_energy=-1.2 - 0.01j, base_seed=100,
        )
        found = scan_spectrum(h5_gray, config)
        assert found
        energies = np.array([e.energy for e in found])
        hits = sum(np.abs(energies - lam).min() < 1e-3 for lam in classical)
        assert hits >= 3  # scan line reaches most of the spectrum
        for est in found:
            assert est.multiplicity >= 1

    def test_scan_workers_run_one_blas_thread(self):
        # two workers on two CPUs, each with a spinning OpenBLAS thread on
        # top, ran the one-hot scan slower than one process did
        code = """
import ctypes, json
from csres.vqa import _start_scan_worker
_start_scan_worker(None, None)
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in line}
names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
libs = [ctypes.CDLL(path) for path in paths]
print(json.dumps([getattr(lib, n)() for lib in libs for n in names if hasattr(lib, n)]))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
                                  "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
        threads = json.loads(out.stdout)
        if not threads:
            pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it by")
        assert set(threads) == {1}

    def test_shot_scan_builds_the_cost_operator_once(self, h5_gray, monkeypatch):
        calls = {"pauli_multiply": 0, "compiled": 0}
        for name in calls:
            def counted(*args, _fn=getattr(csres.vqa, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(csres.vqa, name, counted)
        config = VqaConfig(p=1, shots=256, repetitions=3, maxiter=5, warmup_maxiter=5)
        scan_spectrum(h5_gray, config)
        assert calls == {"pauli_multiply": 1, "compiled": 1}  # one sum over H+H and H
        scan_spectrum(h5_gray, replace(config, shots=None))
        assert calls == {"pauli_multiply": 1, "compiled": 1}  # exact mode builds neither

    def test_aggregate_identical_values(self):
        med, mad = aggregate_runs([1.0 + 1.0j] * 5)
        assert med == 1.0 + 1.0j
        assert mad == (0.0, 0.0)

    def test_aggregate_outlier_robust(self):
        med, mad = aggregate_runs([1.0, 2.0, 100.0])
        assert med.real == 2.0
        assert mad[0] == 1.0

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_runs([])
