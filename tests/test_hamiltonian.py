import numpy as np
import pytest

from csres import (
    NumericalError,
    PotentialModel,
    RadialBasisSpec,
    build_raw_matrices,
    build_scaled_matrix,
    classify_spectrum,
    critical_angle,
    eval_potential,
    solve_spectrum,
)

from csres.hamiltonian import solve_energies

from oracles import charpoly_eigenvalues, gauss_kinetic_closed, ho_kinetic_closed


class TestEvalPotential:
    def test_schematic_origin(self, schematic):
        assert eval_potential(schematic, 0.0) == pytest.approx(-4.0, abs=1e-14)

    def test_schematic_barrier_top(self, schematic):
        # 1-D maximization oracle over the real axis
        r = np.linspace(0.0, 12.0, 200001)
        v = eval_potential(schematic, r).real
        k = np.argmax(v)
        assert r[k] ** 2 == pytest.approx(np.log(8.0) / 0.12, abs=1e-3)
        assert v[k] == pytest.approx(1.5, abs=1e-8)

    def test_alpha_alpha_origin_limits(self, alpha_alpha):
        v0 = eval_potential(alpha_alpha, 0.0)
        assert v0.real == pytest.approx(-122.6225 + 4.874462596352562, abs=1e-9)
        # continuous at the origin
        v_eps = eval_potential(alpha_alpha, 1e-7)
        assert abs(v0 - v_eps) < 1e-5

    def test_alpha_alpha_coulomb_tail(self, alpha_alpha):
        v = eval_potential(alpha_alpha, 30.0)
        assert v.real == pytest.approx(4 * 1.43996 / 30.0, rel=1e-10)

    def test_complex_argument_erf_small_z(self, alpha_alpha):
        # Taylor oracle: erf(z) ~ (2/sqrt(pi)) (z - z^3/3)
        z = 0.01 * np.exp(1j * np.radians(20.0))
        v = eval_potential(alpha_alpha, z)
        beta, zz_e2 = 0.75, 4 * 1.43996
        taylor = zz_e2 * (2 / np.sqrt(np.pi)) * (beta - beta**3 * z**2 / 3)
        nuclear = -122.6225 * np.exp(-0.22 * z**2)
        assert abs(v - (nuclear + taylor)) < 1e-8

    def test_rejects_wide_angles(self, schematic):
        with pytest.raises(ValueError, match="45"):
            eval_potential(schematic, 2.0 * np.exp(1j * np.radians(45.0)))


class TestBuildScaledMatrix:
    def test_theta_zero_real_symmetric(self, small_gauss_basis, schematic):
        sh = build_scaled_matrix(small_gauss_basis, schematic, 0.0)
        assert np.abs(sh.matrix.imag).max() < 1e-10
        assert np.abs(sh.matrix - sh.matrix.T).max() < 1e-10
        assert np.abs(np.linalg.eigvals(sh.matrix).imag).max() < 1e-8

    def test_complex_symmetry(self, small_gauss_basis, schematic):
        sh = build_scaled_matrix(small_gauss_basis, schematic, 24.0)
        scale = np.abs(sh.matrix).max()
        assert np.abs(sh.matrix - sh.matrix.T).max() < 1e-10 * scale

    def test_kinetic_against_closed_form(self, schematic):
        # quadrature kinetic vs the closed forms (Gaussian-Gaussian, HO tridiagonal)
        from csres.basis import basis_matrix, geometric_alphas, kinetic_applied, quadrature_grid

        for spec in (RadialBasisSpec.gaussian(6, 1, 0.5, 5.0), RadialBasisSpec.ho(10, 0, 1.36),
                     RadialBasisSpec.ho(10, 2, 1.36), RadialBasisSpec.ho(10, 4, 0.8)):
            r, w = quadrature_grid(spec)
            phis = basis_matrix(spec, r)
            kin = np.array([kinetic_applied(spec, k, r) for k in range(spec.n)])
            t_quad = np.einsum("im,m,jm->ij", phis, w * r**2, kin)
            if spec.family == "gaussian":
                t_closed = gauss_kinetic_closed(geometric_alphas(spec), spec.l)
            else:
                t_closed = ho_kinetic_closed(spec.n, spec.l, spec.b)
            np.testing.assert_allclose(t_quad, t_closed,
                                       atol=1e-10 * np.abs(t_closed).max(), err_msg=str(spec))

    def test_quadrature_convergence_guard(self, small_gauss_basis, schematic):
        with pytest.raises(NumericalError, match=r"at theta=40\.0 deg for matrix element"):
            build_raw_matrices(small_gauss_basis, schematic, 40.0, n_per_panel=3)

    def test_redundant_bound_states(self, alpha_alpha):
        # the deep unphysical bound states pin the kinetic scale
        spec0 = RadialBasisSpec.ho(24, 0, 1.36)
        sh = build_scaled_matrix(spec0, alpha_alpha, 0.0)
        ev = np.sort(np.linalg.eigvals(sh.matrix).real)
        assert ev[0] == pytest.approx(-72.7, abs=0.1)
        assert ev[1] == pytest.approx(-25.8, abs=0.1)
        spec2 = RadialBasisSpec.ho(24, 2, 1.36)
        sh2 = build_scaled_matrix(spec2, alpha_alpha, 0.0)
        ev2 = np.sort(np.linalg.eigvals(sh2.matrix).real)
        assert ev2[0] == pytest.approx(-22.2, abs=0.1)

    def test_bound_state_theta_independent(self, alpha_alpha):
        spec = RadialBasisSpec.ho(32, 0, 1.36)
        bounds = []
        for theta in (10.0, 20.0):
            sh = build_scaled_matrix(spec, alpha_alpha, theta)
            ev = np.linalg.eigvals(sh.matrix)
            bounds.append(ev[np.argmin(ev.real)])
        assert abs(bounds[0] - bounds[1]) < 1e-6


def _einsum_raw_h(spec, model, theta_deg, n_per_panel):
    # per-theta assembly as done before the per-basis precomputation; the
    # precomputed assembly sums V in another order, so H agrees to rounding
    from csres.basis import basis_matrix, kinetic_applied, quadrature_grid

    r, w = quadrature_grid(spec, n_per_panel)
    phis = basis_matrix(spec, r)
    kin = np.array([kinetic_applied(spec, k, r) for k in range(spec.n)])
    t_mat = np.einsum("im,m,jm->ij", phis, w * r**2, kin)
    theta = np.radians(theta_deg)
    v_vals = eval_potential(model, r * np.exp(1j * theta))
    v_mat = np.einsum("im,m,jm->ij", phis, (w * r**2) * v_vals, phis)
    return np.exp(-2j * theta) * model.hbar2_over_2mu * t_mat + v_mat


class TestPerBasisAssembly:
    @pytest.mark.parametrize("case", ["ho_d_wave", "gauss_p_wave"])
    def test_matches_per_theta_einsum(self, case, schematic, alpha_alpha):
        spec, model = {
            "ho_d_wave": (RadialBasisSpec.ho(12, 2, 1.36), alpha_alpha),
            "gauss_p_wave": (RadialBasisSpec.gaussian(8, 1, 1.0, 10.0), schematic),
        }[case]
        for theta in (0.0, 7.5, 18.0, 30.0):
            h, _ = build_raw_matrices(spec, model, theta)
            oracle = _einsum_raw_h(spec, model, theta, 2 * 48)  # node-doubled grid
            np.testing.assert_allclose(h, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())

    def test_other_n_per_panel_not_served_from_cache(self, small_gauss_basis, schematic):
        from csres import hamiltonian

        coarse = hamiltonian._scaled_at_nodes(small_gauss_basis, schematic, 20.0, 4)
        fine = hamiltonian._scaled_at_nodes(small_gauss_basis, schematic, 20.0, 5)
        for h, n in ((coarse, 4), (fine, 5)):
            oracle = _einsum_raw_h(small_gauss_basis, schematic, 20.0, n)
            np.testing.assert_allclose(h, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
        assert np.abs(coarse - fine).max() > 1e-6 * np.abs(fine).max()

    def test_cached_arrays_read_only(self, small_gauss_basis, schematic):
        from csres import hamiltonian

        first = build_scaled_matrix(small_gauss_basis, schematic, 20.0).matrix
        quad = hamiltonian._quadrature(small_gauss_basis, 48)
        ortho = hamiltonian._orthonormal(small_gauss_basis)
        for arr in (quad.r, quad.r2w, quad.phi, quad.t_mat, ortho.c, ortho.overlap):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        again = build_scaled_matrix(small_gauss_basis, schematic, 20.0).matrix
        np.testing.assert_array_equal(again, first)


class TestSolveSpectrum:
    def test_diagonal_matrix(self):
        d = np.diag([1.0 + 2.0j, -3.0 - 0.5j])
        res = solve_spectrum(d)
        np.testing.assert_allclose(sorted(res.energies, key=lambda z: z.real),
                                   [-3.0 - 0.5j, 1.0 + 2.0j], atol=1e-14)

    def test_against_charpoly_oracle(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = a + a.T  # complex symmetric
        res = solve_spectrum(a)
        oracle = charpoly_eigenvalues(a)
        matched = sorted(res.energies, key=lambda z: (z.real, z.imag))
        oracle = sorted(oracle, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(matched, oracle, atol=1e-8)

    def test_residuals_small(self, small_gauss_basis, schematic):
        sh = build_scaled_matrix(small_gauss_basis, schematic, 18.0)
        res = solve_spectrum(sh.matrix)
        assert res.residuals.max() < 1e-8

    def test_generalized_route_matches_orthonormal(self, small_gauss_basis, schematic):
        # dual route: raw generalized eigenproblem vs Gram-Schmidt + standard
        h_raw, s = build_raw_matrices(small_gauss_basis, schematic, 20.0)
        gen = solve_spectrum(h_raw, overlap=s).energies
        ortho = solve_spectrum(build_scaled_matrix(small_gauss_basis, schematic, 20.0).matrix).energies
        np.testing.assert_allclose(gen, ortho, atol=1e-8)

    def test_energies_only_match_the_full_solve(self, small_gauss_basis, schematic):
        h_raw, s = build_raw_matrices(small_gauss_basis, schematic, 20.0)
        h = build_scaled_matrix(small_gauss_basis, schematic, 20.0).matrix
        for matrix, overlap in ((h_raw, s), (h, None)):
            np.testing.assert_allclose(solve_energies(matrix, overlap=overlap),
                                       solve_spectrum(matrix, overlap=overlap).energies,
                                       rtol=1e-12, atol=0)

    def test_theta_continuity(self, schematic):
        spec = RadialBasisSpec.gaussian(16, 1, 1.0, 15.0)
        prev = None
        track = 1.17 - 0.005j
        for theta in (10.0, 10.5, 11.0):
            h, s = build_raw_matrices(spec, schematic, theta)
            ev = solve_spectrum(h, overlap=s).energies
            pick = ev[np.argmin(np.abs(ev - track))]
            if prev is not None:
                assert abs(pick - prev) < 0.5
            prev = pick


class TestCriticalAngle:
    def test_zero_width(self):
        assert critical_angle(5.0 + 0.0j) == 0.0

    def test_reference_values(self):
        assert critical_angle(2.0175 - 0.4863j) == pytest.approx(6.776, abs=5e-3)
        assert critical_angle(11.78 - 1.78j) == pytest.approx(4.296, abs=5e-3)

    def test_rejects_negative_real_part(self):
        with pytest.raises(ValueError):
            critical_angle(-1.0 - 0.5j)


class TestClassify:
    def test_bound_label(self):
        assert classify_spectrum([-5.0 - 1e-12j], 10.0) == ["bound"]

    def test_continuum_on_ray(self):
        e = 3.0 * np.exp(-2j * np.radians(14.0))
        assert classify_spectrum([e], 14.0) == ["continuum"]

    def test_candidate_off_ray(self):
        assert classify_spectrum([2.0 - 0.5j], 20.0) == ["resonance-candidate"]

    def test_requires_positive_theta(self):
        with pytest.raises(ValueError):
            classify_spectrum([1.0 + 0.0j], 0.0)

    def test_large_basis_candidates_near_reference(self, schematic):
        # the converged resonance positions appear among the candidates
        spec = RadialBasisSpec.gaussian(75, 1, 0.02, 75.0)
        h, s = build_raw_matrices(spec, schematic, 24.0)
        res = solve_spectrum(h, overlap=s)
        labels = classify_spectrum(res.energies, 24.0)
        cands = res.energies[[lab == "resonance-candidate" for lab in labels]]
        assert np.abs(cands - (1.1710 - 0.0049j)).min() < 0.01
        assert np.abs(cands - (2.0175 - 0.4863j)).min() < 0.01
