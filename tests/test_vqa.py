import gc
import weakref
from dataclasses import replace

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
    expectation_pauli,
    minimize_variance,
    pauli_decompose,
    pauli_multiply,
    scan_spectrum,
    zero_state,
)
import csres.vqa
from csres.vqa import VarianceCost, _ansatz_states, _make_objective

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
        n, p = 3, 2
        rows = rng.uniform(-0.8, 0.8, size=(6, p * (3 * n - 1)))
        batch = _ansatz_states(rows, n, p)
        for row, fast in zip(rows, batch):
            params = AnsatzParams.from_vector(row, n, p)
            slow = apply_circuit(zero_state(n), build_ansatz(params, n))
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_tangent_rows_match_central_differences(self, rng, n, p):
        d = p * (3 * n - 1)
        zeta = rng.uniform(-0.8, 0.8, d)
        rows = _ansatz_states(zeta, n, p, tangent=True)
        assert rows.shape == (d + 1, 2**n)
        slow = apply_circuit(zero_state(n), build_ansatz(AnsatzParams.from_vector(zeta, n, p), n))
        np.testing.assert_allclose(rows[0], slow, atol=1e-12)
        step = 1e-6
        for j in range(d):
            shift = np.zeros(d)
            shift[j] = step
            fd = (_ansatz_states(zeta + shift, n, p)[0]
                  - _ansatz_states(zeta - shift, n, p)[0]) / (2 * step)
            np.testing.assert_allclose(rows[j + 1], fd, atol=1e-8)


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

    def test_nonnegative(self, rng, h5_gray):
        for _ in range(10):
            params = AnsatzParams.random(rng, 3, 3, scale=1.5)
            e = complex(rng.normal(scale=2), rng.normal(scale=2))
            assert cost(params, e, h5_gray) > -1e-10

    def test_shot_mode_reproducible(self, h5_gray, rng):
        params = AnsatzParams.random(rng, 3, 3)
        a = cost(params, 1.0 - 0.1j, h5_gray, shots=256, seed=5)
        b = cost(params, 1.0 - 0.1j, h5_gray, shots=256, seed=5)
        assert a == b


class TestGradient:
    def test_fd_gradient_matches_dense_oracle(self, rng, h5_gray):
        # with zero frozen noise the shot-mode surface is the exact one
        config = VqaConfig(p=2, shots=1024, fd_step_shot=1e-6)
        vc = VarianceCost(h5_gray)
        zero = tuple(np.zeros_like(z) for z in vc.frozen_noise(rng))
        fun, grad = _make_objective(vc, config, zero)
        h_dense = dense_from_terms(h5_gray.items(), 3)

        def dense_fun(x):
            psi = _ansatz_states(x[None, :-2], 3, 2)[0]
            return dense_cost(h_dense, psi, x[-2] + 1j * x[-1])

        x = np.concatenate([rng.uniform(-0.5, 0.5, 2 * (3 * 3 - 1)), [0.4, -0.2]])
        mine = grad(x)
        step = 1e-7
        oracle = np.zeros_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            oracle[i] = (dense_fun(xp) - dense_fun(xm)) / (2 * step)
        scale = np.abs(oracle).max()
        assert np.abs(mine - oracle).max() < 1e-4 * max(scale, 1.0)

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
        states = _ansatz_states(rng.uniform(-0.8, 0.8, (3, 3 * (3 * 3 - 1))), 3, 3)
        zero = tuple(np.zeros_like(z) for z in vc.frozen_noise(rng))
        e1, t1 = vc.brackets_sampled(states, shots, frozen=zero)
        hdh = pauli_multiply(h5_gray.dagger(), h5_gray)
        for value, psum in ((e1, hdh), (t1, h5_gray)):
            dense = dense_from_terms(psum.items(), 3)
            exact = np.einsum("bi,ij,bj->b", states.conj(), dense, states)
            np.testing.assert_allclose(value, exact, rtol=0, atol=1e-12)

        frozen = vc.frozen_noise(rng)
        got = vc.brackets_sampled(states, shots, frozen=frozen)
        orders = (c.order for c in vc._compiled)
        for psum, order, z, values in zip((hdh, h5_gray), orders, frozen, got):
            assert "III" in order
            for psi, value in zip(states, values):
                oracle = 0.0
                for letters, z_k in zip(order, z):
                    c_k = psum.coefficient(letters)
                    if letters == "III":
                        oracle += c_k
                        continue
                    m_k = expectation_pauli(psi, letters)
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
        b = minimize_variance(h5_gray, VqaConfig(p=3, warmup=False),
                              init_energy=a.energy, seed=7, init_params=a.params)
        assert b.converged and abs(b.energy - lam) < 1e-3
        assert b.iterations <= a.iterations
        with pytest.raises(ValueError, match="register size and depth"):
            minimize_variance(h5_gray, VqaConfig(p=2), init_params=a.params)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
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


class TestScanAggregate:
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

    def test_shot_scan_builds_the_cost_operator_once(self, h5_gray, monkeypatch):
        calls = {"pauli_multiply": 0, "compiled": 0}
        for name in calls:
            def counted(*args, _fn=getattr(csres.vqa, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(csres.vqa, name, counted)
        config = VqaConfig(p=1, shots=256, repetitions=3, maxiter=5, warmup_maxiter=5)
        scan_spectrum(h5_gray, config)
        assert calls == {"pauli_multiply": 1, "compiled": 2}
        scan_spectrum(h5_gray, replace(config, shots=None))
        assert calls == {"pauli_multiply": 1, "compiled": 2}  # exact mode builds neither

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
