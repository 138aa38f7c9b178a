import dataclasses
import logging

import numpy as np
import pytest

import csres.trajectory
from csres import (
    NumericalError,
    PotentialModel,
    RadialBasisSpec,
    ThetaTrajectory,
    TrajectoryPoint,
    VqaConfig,
    extract_optimal,
    run_trajectory,
    trajectory_speed,
)
from csres.hamiltonian import build_raw_matrices, solve_energies


def synthetic_trajectory(energies, thetas=None):
    thetas = thetas if thetas is not None else np.arange(len(energies), dtype=float) + 1.0
    pts = [TrajectoryPoint(float(t), complex(e)) for t, e in zip(thetas, energies)]
    return ThetaTrajectory(points=pts)


class TestExtractOptimal:
    def test_single_point(self):
        traj = synthetic_trajectory([1.5 - 0.25j])
        est = extract_optimal(traj)
        assert est.energy == pytest.approx(1.5 - 0.25j)
        assert est.n_points == 1

    def test_identical_points_guarded_width(self):
        traj = synthetic_trajectory([0.8 - 0.1j] * 7)
        est = extract_optimal(traj)
        assert est.energy == pytest.approx(0.8 - 0.1j, abs=1e-12)
        assert est.bin_width_re <= 1e-12

    def test_dense_cluster_beats_sparse_tail(self, rng):
        cluster = 1.2 + 0.02 * rng.normal(size=60) - 1j * (0.3 + 0.01 * rng.normal(size=60))
        tail = np.linspace(2.0, 5.0, 15) - 0.8j
        traj = synthetic_trajectory(np.concatenate([cluster, tail]))
        est = extract_optimal(traj, bins=25)
        assert abs(est.energy.real - 1.2) <= est.bin_width_re
        assert abs(est.energy.imag + 0.3) <= est.bin_width_im

    def test_mode_tie_breaks_toward_median(self):
        # two equal-count clusters; the one nearer the median wins
        values = [0.0] * 10 + [1.0] * 3 + [2.0] * 10 + [2.4] * 10
        traj = synthetic_trajectory([v - 0.1j for v in values])
        est = extract_optimal(traj, bins=10)
        assert est.energy.real > 1.0

    def test_stationary_region_beats_longer_slow_arm(self):
        # the shape of a broad resonance: before the pole is exposed, an
        # early arm barely moves in Re but sweeps Im; the stationary region
        # around theta_s = 17.75 lost two thetas, which splits it across two
        # Re bins, each holding fewer points than the arm's one bin
        stationary = 2.015 - 0.483j
        thetas = np.array([t for t in np.arange(0.5, 25.5, 0.5) if t not in (17.5, 18.0)])
        energies = []
        for t in thetas:
            if t <= 5.0:
                energies.append(2.14 - 0.0005 * (t - 5.0) - 1j * (0.45 - 0.08 * (5.0 - t)))
            elif t < 12.0:
                start, end = 2.14 - 0.45j, stationary + 0.001 * (1 - 0.5j) * (12.0 - 17.75) ** 2
                energies.append(start + (end - start) * (t - 5.0) / 7.0)
            else:
                energies.append(stationary + 0.001 * (1 - 0.5j) * (t - 17.75) ** 2)
        traj = synthetic_trajectory(energies, thetas)
        arm = np.histogram(traj.energies.real, bins=25)[0].max()
        assert arm == 10 and arm > np.histogram(traj.energies.real[thetas >= 12.0], bins=25)[0].max()
        est = extract_optimal(traj)
        assert abs(est.energy.real - stationary.real) <= est.bin_width_re
        assert abs(est.energy.imag - stationary.imag) <= est.bin_width_im
        assert est.counts_re.sum() == est.counts_im.sum() == len(thetas)


class TestTrajectorySpeed:
    def test_linear_motion_constant_speed(self):
        thetas = np.arange(2.0, 7.0, 0.5)
        energies = 1.0 + 0.3 * (thetas - 2.0) * (1 - 0.5j)
        traj = synthetic_trajectory(energies, thetas)
        speeds = np.array([s for _, s in trajectory_speed(traj)])
        np.testing.assert_allclose(speeds, 0.3 * abs(1 - 0.5j), rtol=1e-10)

    def test_repeated_value_zero_speed(self):
        traj = synthetic_trajectory([1.0 - 0.1j, 1.0 - 0.1j], thetas=[2.0, 2.5])
        speeds = [s for _, s in trajectory_speed(traj)]
        assert speeds == [0.0, 0.0]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            trajectory_speed(synthetic_trajectory([1.0]))

    def test_slowdown_marks_optimum(self, schematic):
        # minimum-speed theta sits near the stationarity estimate
        basis = RadialBasisSpec.gaussian(8, 1, 1.0, 7.0)
        traj = run_trajectory(
            basis, schematic, np.arange(2.0, 44.6, 0.5), 1.17 - 0.0j, 0.5
        )
        est = extract_optimal(traj)
        speeds = trajectory_speed(traj)
        theta_min = min(speeds, key=lambda ts: ts[1])[0]
        at_min = dict(zip(traj.thetas, traj.energies))[theta_min]
        assert abs(at_min.real - est.energy.real) < 2 * max(est.bin_width_re, 0.01)


class TestRunTrajectory:
    def test_classical_neighborhood_soundness(self, schematic):
        basis = RadialBasisSpec.gaussian(6, 1, 1.0, 5.0)
        center, radius = 1.17 - 0.0j, 0.5
        traj = run_trajectory(basis, schematic, np.arange(2.0, 30.0, 1.0), center, radius)
        assert all(abs(p.energy - center) <= radius for p in traj.points)
        thetas = traj.thetas
        assert np.all(np.diff(thetas) > 0)
        assert len(traj.log) == 28

    def test_rejections_logged_with_reason(self, alpha_alpha):
        basis = RadialBasisSpec.ho(8, 4, 1.36)
        traj = run_trajectory(
            basis, alpha_alpha, np.arange(2.0, 20.0, 1.0), 11.8 - 1.8j, 2.0
        )
        rejected = [entry for entry in traj.log if not entry[1]]
        accepted = [entry for entry in traj.log if entry[1]]
        assert accepted
        for _, _, reason in rejected:
            assert "neighborhood" in reason

    def test_empty_trajectory_raises(self, schematic):
        basis = RadialBasisSpec.gaussian(5, 1, 1.0, 4.0)
        with pytest.raises(NumericalError, match="no theta accepted"):
            run_trajectory(basis, schematic, np.arange(2.0, 6.0, 1.0), 50.0 - 9.0j, 0.1)

    def test_monotone_theta_grid_required(self, schematic):
        basis = RadialBasisSpec.gaussian(5, 1, 1.0, 4.0)
        with pytest.raises(ValueError):
            run_trajectory(basis, schematic, [3.0, 2.0], 1.0 + 0.0j, 0.5)

    def test_mode_improves_with_basis_size(self, schematic):
        # reference narrow resonance: modes approach it as the basis grows
        exact = 1.1710 - 0.0049j
        errs = []
        for n in (8, 12, 16):
            basis = RadialBasisSpec.gaussian(n, 1, 1.0, float(n - 1))
            traj = run_trajectory(
                basis, schematic, np.arange(2.0, 44.6, 0.5), 1.17 - 0.0j, 0.5
            )
            est = extract_optimal(traj)
            errs.append((abs(est.energy - exact), max(est.bin_width_re, est.bin_width_im)))
        for (e_small, bw), (e_big, _) in zip(errs[1:], errs[:-1]):
            assert e_small <= e_big + bw


# narrow and broad schematic states: two trajectories of one spectrum
SHARED_BASIS = RadialBasisSpec.gaussian(8, 1, 1.0, 7.0)
SHARED_THETAS = np.arange(2.0, 30.0, 1.0)


@pytest.fixture()
def assemblies(monkeypatch):
    """Counts calls of csres.trajectory.build_raw_matrices, starting from no kept spectra."""
    csres.trajectory._classical_spectra.cache_clear()
    calls = []
    real = csres.trajectory.build_raw_matrices

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(csres.trajectory, "build_raw_matrices", counting)
    yield calls
    csres.trajectory._classical_spectra.cache_clear()


class TestSharedClassicalSpectra:
    def test_second_trajectory_on_grid_assembles_nothing(self, schematic, assemblies):
        narrow = run_trajectory(SHARED_BASIS, schematic, SHARED_THETAS, 1.17 - 0.0j, 0.5)
        assert len(assemblies) == len(SHARED_THETAS)
        broad = run_trajectory(SHARED_BASIS, schematic, SHARED_THETAS, 2.0 - 0.5j, 0.5)
        assert len(assemblies) == len(SHARED_THETAS)
        # the same numbers, bit for bit, as solving each theta directly
        spectra = [solve_energies(*build_raw_matrices(SHARED_BASIS, schematic, th))
                   for th in SHARED_THETAS]
        for traj, center in ((narrow, 1.17 - 0.0j), (broad, 2.0 - 0.5j)):
            prev, picks = center, []
            for th, energies in zip(SHARED_THETAS, spectra):
                pick = energies[np.argmin(np.abs(energies - prev))]
                if abs(pick - center) <= 0.5:
                    picks.append((th, pick))
                    prev = pick
            assert traj.thetas.tolist() == [th for th, _ in picks]
            np.testing.assert_array_equal(traj.energies.view(np.uint64),
                                          np.array([e for _, e in picks]).view(np.uint64))

    def test_other_basis_potential_or_grid_recomputes(self, schematic, alpha_alpha,
                                                      assemblies):
        other_basis = RadialBasisSpec.gaussian(7, 1, 1.0, 7.0)
        runs = [(SHARED_BASIS, schematic, SHARED_THETAS),
                (other_basis, schematic, SHARED_THETAS),
                (other_basis, alpha_alpha, SHARED_THETAS),
                (other_basis, alpha_alpha, SHARED_THETAS[1:]),
                (SHARED_BASIS, schematic, SHARED_THETAS)]  # only the last grid is kept
        for basis, model, thetas in runs:
            before = len(assemblies)
            run_trajectory(basis, model, thetas, 0.0, 1e3)
            assert len(assemblies) - before == len(thetas)
            assert all(args[:2] == (basis, model) for args in assemblies[before:])

    def test_failing_theta_fails_again(self, schematic, assemblies):
        thetas = [44.5, 45.0]  # 45 degrees is outside the assembly's range
        for _ in range(2):
            before = len(assemblies)
            with pytest.raises(ValueError, match="45"):
                run_trajectory(SHARED_BASIS, schematic, thetas, 1.17 - 0.0j, 0.5)
            assert len(assemblies) - before == 2

    def test_kept_spectra_are_read_only(self, schematic, assemblies):
        spectra = csres.trajectory._classical_spectra(SHARED_BASIS, schematic, (2.0, 3.0))
        assert len(spectra) == 2
        for energies in spectra:
            assert not energies.flags.writeable
            with pytest.raises(ValueError):
                energies[0] = 0.0


# two-qubit quantum trajectory of the narrow schematic state
N4_BASIS = RadialBasisSpec.gaussian(4, 1, 1.0, 3.0)
N4_THETAS = np.arange(2.0, 12.5, 2.0)


def n4_quantum_trajectory(model):
    cfg = VqaConfig(p=2, init_energy=1.15 - 0.0j, base_seed=3, maxiter=300, warmup_maxiter=120)
    return run_trajectory(N4_BASIS, model, N4_THETAS, 1.2 - 0.0j, 0.3,
                          engine="quantum", vqa_config=cfg, attempts=2)


class TestQuantumContinuation:
    def test_shot_mode_trajectory_is_refused(self, schematic):
        # a trajectory's points are statevector runs; frozen noise per theta is not
        cfg = VqaConfig(p=2, init_energy=1.15 - 0.0j, shots=1024)
        with pytest.raises(ValueError, match="shots"):
            run_trajectory(N4_BASIS, schematic, N4_THETAS, 1.2 - 0.0j, 0.3,
                           engine="quantum", vqa_config=cfg)

    def test_warm_start_follows_resonance_deterministically(self, schematic):
        traj = n4_quantum_trajectory(schematic)
        assert [r for _, ok, r in traj.log] == (
            ["accepted (restart 0)"] + ["accepted (warm start)"] * (len(N4_THETAS) - 1)
        )
        classical = run_trajectory(N4_BASIS, schematic, N4_THETAS, 1.2 - 0.0j, 0.3)
        np.testing.assert_allclose(traj.energies, classical.energies, atol=1e-6)
        again = n4_quantum_trajectory(schematic)
        assert again.log == traj.log
        assert again.energies.tobytes() == traj.energies.tobytes()

    def test_failed_warm_start_logged_before_restarts(self, schematic, monkeypatch, caplog):
        events = []
        real = csres.trajectory.minimize_variance

        def spy(h_sum, config, init_energy=None, seed=None, init_params=None):
            est = real(h_sum, config, init_energy=init_energy, seed=seed,
                       init_params=init_params)
            warm = init_params is not None
            events.append(("warm" if warm else "restart", seed))
            if warm and sum(kind == "warm" for kind, _ in events) == 1:
                est = dataclasses.replace(est, converged=False)  # first warm start fails
            return est

        class Recorder(logging.Handler):
            def emit(self, record):
                events.append(("log", record.getMessage()))

        monkeypatch.setattr(csres.trajectory, "minimize_variance", spy)
        handler = Recorder()
        logger = logging.getLogger("csres.trajectory")
        logger.addHandler(handler)
        try:
            with caplog.at_level(logging.INFO, logger="csres.trajectory"):
                traj = n4_quantum_trajectory(schematic)
        finally:
            logger.removeHandler(handler)
        # theta = 2: restart; theta = 4: warm start fails, is logged, restart
        assert [kind for kind, _ in events[:4]] == ["restart", "warm", "log", "restart"]
        assert "theta=4" in events[2][1] and "not converged" in events[2][1]
        assert traj.log[1] == (4.0, True, "accepted (restart 0)")
        assert all(r == "accepted (warm start)" for _, _, r in traj.log[2:])
        # one per-theta seed scheme: restarts take k = 0, 1, .., the warm start k = attempts
        seeds = {(kind, s) for kind, s in events if kind != "log"}
        assert ("restart", 3 + 1000 * 4) in seeds and ("restart", 3 + 1000 * 8) in seeds
        assert {s for kind, s in seeds if kind == "warm"} == {
            3 + 1000 * int(round(2 * t)) + 2 for t in N4_THETAS[1:]
        }
