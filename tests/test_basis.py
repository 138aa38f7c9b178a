import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from csres import (
    NumericalError,
    OrthoTransform,
    RadialBasisSpec,
    eval_gaussian_radial,
    eval_ho_radial,
    geometric_alphas,
    gram_schmidt_transform,
    overlap_matrix,
    quadrature_grid,
)
from csres.basis import basis_matrix, laguerre_upward, quadrature_size

from oracles import radial_norm_quad, radial_overlap_quad


class TestGeometricAlphas:
    def test_three_point_progression(self):
        spec = RadialBasisSpec.gaussian(3, 0, 1.0, 4.0)
        np.testing.assert_allclose(geometric_alphas(spec), [1.0, 0.25, 0.0625], rtol=1e-14)

    def test_near_degenerate_still_accepted(self):
        spec = RadialBasisSpec.gaussian(2, 0, 1.0, 1.0001)
        alphas = geometric_alphas(spec)
        assert alphas[0] == 1.0
        assert alphas[1] == pytest.approx(0.9998, abs=2e-4)

    def test_wide_progression_ratio(self):
        spec = RadialBasisSpec.gaussian(16, 0, 0.02, 16.0)
        alphas = geometric_alphas(spec)
        ratio = (alphas[0] / alphas[1]) ** 0.5
        assert ratio == pytest.approx(800 ** (1 / 15), rel=1e-12)
        assert ratio == pytest.approx(1.56149, abs=2e-4)

    def test_strictly_decreasing_positive(self):
        spec = RadialBasisSpec.gaussian(12, 2, 0.5, 9.0)
        alphas = geometric_alphas(spec)
        assert np.all(alphas > 0)
        assert np.all(np.diff(alphas) < 0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            RadialBasisSpec.gaussian(1, 0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RadialBasisSpec.gaussian(4, 0, 2.0, 2.0)


class TestGaussianRadial:
    def test_s_wave_origin_value(self):
        # alpha_1 = 0.5 -> phi(0) = (4/sqrt(pi))^(1/2)
        spec = RadialBasisSpec.gaussian(2, 0, np.sqrt(2.0), 10.0)
        assert eval_gaussian_radial(spec, 0, 0.0) == pytest.approx(1.502251088929885, abs=1e-12)

    def test_centrifugal_zero_at_origin(self):
        spec = RadialBasisSpec.gaussian(3, 1, 1.0, 4.0)
        assert eval_gaussian_radial(spec, 1, 0.0) == 0.0

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_normalization_quadrature(self, l):
        spec = RadialBasisSpec.gaussian(5, l, 0.5, 8.0)
        for k in (0, 2, 4):
            norm = radial_norm_quad(lambda r: eval_gaussian_radial(spec, k, r), 60.0)
            assert norm == pytest.approx(1.0, abs=1e-10)


class TestHoRadial:
    def test_ground_state_origin_value(self):
        spec = RadialBasisSpec.ho(2, 0, 1.0)
        assert eval_ho_radial(spec, 0, 0.0) == pytest.approx(1.502251088929885, abs=1e-12)

    def test_orthogonality_quadrature(self):
        spec = RadialBasisSpec.ho(3, 1, 1.2)
        ov = radial_overlap_quad(
            lambda r: eval_ho_radial(spec, 0, r),
            lambda r: eval_ho_radial(spec, 1, r),
            30.0,
        )
        assert abs(ov) < 1e-10

    def test_against_scipy_laguerre(self):
        # recurrence evaluation vs library polynomial, frozen spot value
        spec = RadialBasisSpec.ho(4, 2, 1.36)
        val = eval_ho_radial(spec, 2, 1.0)
        assert val == pytest.approx(0.4018693187769776, abs=1e-10)
        x = np.linspace(0.0, 9.0, 40)
        for n in range(8):
            np.testing.assert_allclose(
                laguerre_upward(n, 2.5, x), eval_genlaguerre(n, 2.5, x), atol=1e-10
            )

    @pytest.mark.parametrize("n", [0, 7, 31])
    def test_normalization_high_nodes(self, n):
        spec = RadialBasisSpec.ho(32, 2, 1.36)
        r, w = quadrature_grid(spec)
        phi = eval_ho_radial(spec, n, r)
        assert np.sum(w * r**2 * phi**2) == pytest.approx(1.0, abs=1e-10)


class TestOverlap:
    def test_ho_identity(self):
        spec = RadialBasisSpec.ho(6, 3, 0.9)
        np.testing.assert_array_equal(overlap_matrix(spec), np.eye(6))

    def test_gaussian_diagonal_one(self):
        spec = RadialBasisSpec.gaussian(7, 1, 0.3, 6.0)
        np.testing.assert_allclose(np.diag(overlap_matrix(spec)), 1.0, atol=1e-14)

    def test_closed_form_vs_quadrature(self):
        spec = RadialBasisSpec.gaussian(2, 0, 1.0, 2.0)  # alphas 1, 0.25
        s = overlap_matrix(spec)
        assert s[0, 1] == pytest.approx(0.7155417527999328, abs=1e-12)
        quad = radial_overlap_quad(
            lambda r: eval_gaussian_radial(spec, 0, r),
            lambda r: eval_gaussian_radial(spec, 1, r),
            40.0,
        )
        assert s[0, 1] == pytest.approx(quad, abs=1e-10)


class TestGramSchmidt:
    def test_ho_returns_identity(self):
        ot = gram_schmidt_transform(RadialBasisSpec.ho(5, 0, 1.0))
        assert isinstance(ot, OrthoTransform)
        np.testing.assert_array_equal(ot.c, np.eye(5))

    def test_two_by_two_algebra(self):
        spec = RadialBasisSpec.gaussian(2, 0, 1.0, 2.0)
        ot = gram_schmidt_transform(spec)
        s01 = 0.7155417527999328
        np.testing.assert_allclose(ot.c[:, 0], [1.0, 0.0], atol=1e-14)
        norm = np.sqrt(1.0 - s01**2)
        np.testing.assert_allclose(ot.c[:, 1], [-s01 / norm, 1.0 / norm], atol=1e-12)
        np.testing.assert_allclose(ot.c.T @ ot.overlap @ ot.c, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n,r1,rmax", [(16, 0.02, 16.0), (32, 0.02, 32.0)])
    def test_orthonormality_large(self, n, r1, rmax):
        spec = RadialBasisSpec.gaussian(n, 1, r1, rmax)
        ot = gram_schmidt_transform(spec)
        resid = np.abs(ot.c.T @ ot.overlap @ ot.c - np.eye(n)).max()
        assert resid < 1e-10

    def test_rejects_numerically_dependent_basis(self):
        spec = RadialBasisSpec.gaussian(75, 1, 0.02, 75.0)
        with pytest.raises(NumericalError, match="index"):
            gram_schmidt_transform(spec)

    def test_preserves_raw_order(self):
        # column k must involve raw functions 0..k only
        spec = RadialBasisSpec.gaussian(6, 0, 0.5, 5.0)
        c = gram_schmidt_transform(spec).c
        upper = np.triu(np.ones((6, 6)))
        assert np.abs(c * (1 - upper)).max() < 1e-14


def test_every_function_normalized_on_grid():
    for spec in (
        RadialBasisSpec.gaussian(10, 0, 0.2, 9.0),
        RadialBasisSpec.gaussian(8, 2, 1.0, 7.0),
        RadialBasisSpec.ho(12, 1, 1.36),
    ):
        r, w = quadrature_grid(spec)
        phis = basis_matrix(spec, r)
        norms = np.einsum("km,m->k", phis**2, w * r**2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


@pytest.mark.parametrize("spec", [
    RadialBasisSpec.gaussian(16, 1, 1.0, 15.0),
    RadialBasisSpec.gaussian(10, 0, 0.2, 9.0),
    RadialBasisSpec.ho(32, 2, 1.36),
])
def test_quadrature_size_counts_grid(spec):
    for n_per_panel in (48, 96):
        assert quadrature_size(spec, n_per_panel) == len(quadrature_grid(spec, n_per_panel)[0])


@pytest.mark.parametrize("n_per_panel", [48, 96])
def test_quadrature_size_counts_grid_without_slivers(n_per_panel):
    # at b = 1.36 fm eleven of these HO cut-offs are a whole number of panels
    # (n = 1, l = 0 among them), where the summed edges once fell a rounding
    # error short and a sliver panel with a full set of nodes followed
    specs = [RadialBasisSpec.ho(n, l, b) for n in range(1, 33) for l in range(5)
             for b in (0.5, 1.36, 2.5)]
    specs += [RadialBasisSpec.gaussian(n, l, r1, r1 * ratio) for n in (2, 9, 16)
              for l in (0, 2) for r1 in (0.1, 0.7, 1.0, 1.9) for ratio in (2.0, 7.5, 15.0, 30.0)]
    for spec in specs:
        assert quadrature_size(spec, n_per_panel) == len(quadrature_grid(spec, n_per_panel)[0])
    for n, l, panels in ((1, 0, 10), (30, 1, 19)):
        r, w = quadrature_grid(RadialBasisSpec.ho(n, l, 1.36), n_per_panel)
        assert len(r) == panels * n_per_panel
        assert w.min() > 1e-6 * w.max()


@pytest.mark.parametrize("r1, r_max", [(1.0, 1e308), (5e-324, 3.0)])
def test_quadrature_size_of_endless_grid_is_inf(r1, r_max):
    # 4.5 r_max overflows; half the smallest subnormal r1 is a first panel of width 0
    assert quadrature_size(RadialBasisSpec.gaussian(4, 1, r1, r_max)) == np.inf
