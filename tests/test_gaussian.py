import math

import numpy as np
import pytest

from cavmech import frame_from_collective
from cavmech.effective import CollectiveMode
from cavmech.fock import (
    EffectiveTwoMode,
    FockSpace,
    FullLinearized,
    build_operators,
    compile_generator,
    effective_generator,
    fock_state,
    integrate,
)
from cavmech.gaussian import (
    CovarianceState,
    PhysicalityError,
    StabilityError,
    drift_diffusion_from_generator,
    entanglement_experiment,
    evolve_covariance,
    fock_moments,
    log_negativity,
    squeezed_vacuum,
    steady_state,
    symplectic_form,
    vacuum_state,
)
from test_fock import manual_params


class TestDriftDiffusionMapping:
    def test_damped_mode_textbook_blocks(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.3, 0.0)}),
                                CollectiveMode(1.0, 1.0), freq_shifts=(1.3, 0.0))
        dd = drift_diffusion_from_generator(spec)
        assert dd.drift[:2, :2] == pytest.approx(np.array([[-0.15, 1.3], [-1.3, -0.15]]))
        assert dd.diffusion[:2, :2] == pytest.approx(0.15 * np.eye(2))

    def test_unitary_generator_is_symplectic(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        omega = symplectic_form(2)
        assert np.abs(dd.drift.T @ omega + omega @ dd.drift).max() < 1e-15
        assert np.abs(dd.diffusion).max() == 0.0

    def test_diffusion_is_positive_semidefinite(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            fr = frame_from_collective(
                1.0, float(rng.uniform(0.05, 1.9)), float(rng.uniform(-8, 8)),
                float(np.exp(rng.uniform(np.log(0.01), np.log(10)))),
                float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.01, 0.2)),
                thermal_baths=((0.01, 0.4), (0.0, 0.0)))
            for spec in (effective_generator(fr), FullLinearized(fr)):
                D = drift_diffusion_from_generator(spec).diffusion
                assert np.abs(D - D.T).max() < 1e-14
                assert np.linalg.eigvalsh(D).min() > -1e-10

    @pytest.mark.parametrize("model", ["full", "effective"])
    def test_negative_rate_rejected_by_both_engines(self, model):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05,
                                   thermal_baths=((-0.05, 0.0), (0, 0)))
        if model == "full":
            spec, space = FullLinearized(fr), FockSpace((3, 3, 3))
        else:
            spec, space = effective_generator(fr), FockSpace((3, 3))
        with pytest.raises(ValueError, match="negative Lindblad rate"):
            compile_generator(spec, space)
        with pytest.raises(ValueError, match="negative Lindblad rate"):
            drift_diffusion_from_generator(spec)

    def test_drift_at_stack_matches_scalar_calls(self):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        ts = np.arange(63) * 0.0137
        scalar = np.array([dd.drift_at(t) for t in ts])
        # the 24-term cos/sin sum may be added in another order by a
        # matrix-matrix than by a matrix-vector product
        tol = 8 * np.finfo(float).eps * np.abs(scalar).max()
        assert np.abs(dd.drift_at(ts) - scalar).max() <= tol

    @pytest.mark.parametrize("model,dims,t", [
        ("effective", (8, 8), 0.0),
        ("effective-thermal", (8, 8), 0.0),
        ("full", (6, 6, 6), 0.0),
        ("full", (6, 6, 6), 0.73),
    ])
    def test_moment_derivatives_match_fock_generator(self, model, dims, t):
        """Dual-route check: d(moments)/dt from the Fock generator equals
        A sigma + sigma A^T + D from the quadrature mapping exactly."""
        thermal = ((0.01, 0.5), (0.02, 1.5)) if model == "effective-thermal" else None
        fr = frame_from_collective(1.0, 0.3, -2.2, 0.45, 0.12, 0.08, thermal_baths=thermal)
        spec = FullLinearized(fr) if model == "full" else effective_generator(fr)
        space = FockSpace(dims)
        gen = compile_generator(spec, space)
        quads = []
        for b in build_operators(space):
            quads.append((b + b.conj().T) / np.sqrt(2))
            quads.append(-1j * (b - b.conj().T) / np.sqrt(2))

        rng = np.random.default_rng(31)
        dims_arr = space.dims
        keep = np.ones(space.total_dim, bool)
        for idx in range(space.total_dim):
            rem = idx
            for d in reversed(dims_arr):
                rem, n = divmod(rem, d)
                if n > 2:
                    keep[idx] = False
        v = (rng.normal(size=(space.total_dim, 4))
             + 1j * rng.normal(size=(space.total_dim, 4))) * keep[:, None]
        rho = v @ v.conj().T
        rho /= np.trace(rho)

        nq = len(quads)
        mean = np.array([np.trace(q @ rho).real for q in quads])
        cov = np.empty((nq, nq))
        for i in range(nq):
            for j in range(nq):
                sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
                cov[i, j] = np.trace(sym @ rho).real - mean[i] * mean[j]
        drho = gen.apply(t, rho)
        dmean = np.array([np.trace(q @ drho).real for q in quads])
        dcov = np.empty((nq, nq))
        for i in range(nq):
            for j in range(nq):
                sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
                dcov[i, j] = (np.trace(sym @ drho).real
                              - dmean[i] * mean[j] - mean[i] * dmean[j])

        dd = drift_diffusion_from_generator(spec)
        A = dd.drift_at(t)
        assert np.abs(A @ mean - dmean).max() < 1e-9
        assert np.abs(A @ cov + cov @ A.T + dd.diffusion - dcov).max() < 1e-9


def symplectic_eigenvalues(cov):
    return np.sort(np.abs(np.linalg.eigvals(symplectic_form(cov.shape[0] // 2) @ cov)))


class TestEvolution:
    def test_symplectic_eigenvalues_conserved_without_diffusion(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        state0 = squeezed_vacuum(2, 0, 0.9)
        traj = evolve_covariance(dd, state0, 200.0, 0.01 / dd.f_max, stride=50)
        start = symplectic_eigenvalues(state0.cov)
        end = symplectic_eigenvalues(traj.final_state.cov)
        assert end == pytest.approx(start, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_single_lossless_interval_by_doubling(self):
        # one 200-time-unit record interval: the interval map is built by
        # doubling, with no overflow and no Hurwitz drift to lean on
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        state0 = squeezed_vacuum(2, 0, 0.9)
        traj = evolve_covariance(dd, state0, 200.0, 0.01 / dd.f_max, stride=10**9)
        assert len(traj.t) == 2
        end = symplectic_eigenvalues(traj.final_state.cov)
        assert end == pytest.approx(symplectic_eigenvalues(state0.cov), abs=1e-9)

    def test_damped_occupation_decay(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.5, 0.0)}), CollectiveMode(1.0, 1.0))
        dd = drift_diffusion_from_generator(spec)
        traj = evolve_covariance(dd, fock_moments(2, (1, 0)), 10.0, 0.02, stride=25)
        assert np.abs(traj.n1 - np.exp(-0.5 * traj.t)).max() < 1e-10

    def test_matches_fock_engine_on_full_model(self):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)
        spec = FullLinearized(fr)
        space = FockSpace((4, 3, 3))
        f_max = compile_generator(spec, space).f_max
        dt = 0.01 / f_max
        ftraj = integrate(spec, space, fock_state(space, (0, 1, 0)), 5.0, dt, stride=100,
                         truncation_tol=0.02)
        dd = drift_diffusion_from_generator(spec)
        gtraj = evolve_covariance(dd, fock_moments(3, (0, 1, 0)), 5.0, dt, stride=100)
        # residual gap is Fock truncation ripple; the mapping itself is
        # checked to 1e-9 in test_moment_derivatives_match_fock_generator
        assert np.abs(ftraj.n1 - gtraj.occupations[:, 1]).max() < 2e-4
        assert np.abs(ftraj.n2 - gtraj.occupations[:, 2]).max() < 2e-4

    def test_fourth_order_convergence_on_full_model(self):
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        dt = 0.01 / dd.f_max
        state0 = fock_moments(3, (0, 1, 0))
        coarse = evolve_covariance(dd, state0, 5.0, dt, stride=10**9)
        fine = evolve_covariance(dd, state0, 5.0, dt / 2, stride=10**9)
        for a, b in zip(coarse.occupations[-1], fine.occupations[-1]):
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-3)

    def test_records_do_not_depend_on_stride(self):
        # records off the m dt grid come from side steps; 7 does not divide 200
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        dt = 0.01 / dd.f_max
        state0 = fock_moments(3, (0, 1, 0))
        runs = {stride: evolve_covariance(dd, state0, 200 * dt, dt, stride=stride)
                for stride in (1, 7, 10**9)}
        every = runs[1]
        for stride, traj in runs.items():
            steps = sorted(set(range(0, 201, stride)) | {200})
            assert list(traj.t) == [s * dt for s in steps]
            assert np.abs(traj.occupations - every.occupations[steps]).max() <= 1e-14
            assert np.abs(traj.final_state.cov - every.final_state.cov).max() <= 1e-14
            assert np.abs(traj.final_state.mean - every.final_state.mean).max() <= 1e-14

    def test_step_size_precondition(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.5, 0.0)}), CollectiveMode(1.0, 1.0))
        dd = drift_diffusion_from_generator(spec)
        with pytest.raises(ValueError, match="too coarse"):
            evolve_covariance(dd, vacuum_state(2), 1.0, 1.0)
        with pytest.raises(ValueError, match="stride"):
            evolve_covariance(dd, vacuum_state(2), 1.0, 0.01, stride=0)


class TestSteadyState:
    def test_thermal_pair_detailed_balance(self):
        nbar = 0.7
        spec = EffectiveTwoMode(
            manual_params({"1": (0.1 * (nbar + 1), 0.1 * nbar), "2": (0.05, 0.0)}, J=0.0),
            CollectiveMode(1.0, 1.0))
        ss = steady_state(drift_diffusion_from_generator(spec))
        assert ss.cov[:2, :2] == pytest.approx((nbar + 0.5) * np.eye(2), rel=1e-12)
        assert ss.cov[2:, 2:] == pytest.approx(0.5 * np.eye(2), rel=1e-12)

    def test_single_bath_thermalizes_coupled_pair(self):
        # one thermal pair plus coherent exchange: both modes settle at nbar
        nbar = 0.4
        spec = EffectiveTwoMode(
            manual_params({"1": (0.1 * (nbar + 1), 0.1 * nbar)}, J=0.02),
            CollectiveMode(1.0, 1.0))
        ss = steady_state(drift_diffusion_from_generator(spec))
        state = CovarianceState(np.zeros(4), ss.cov)
        assert state.occupation(0) == pytest.approx(nbar, rel=1e-10)
        assert state.occupation(1) == pytest.approx(nbar, rel=1e-10)

    def test_single_long_interval_reaches_steady_state(self):
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        relax = -np.linalg.eigvals(dd.drift).real.max()
        traj = evolve_covariance(dd, fock_moments(2, (1, 0)), 30.0 / relax,
                                 0.01 / dd.f_max, stride=10**9)
        assert len(traj.t) == 2
        assert np.abs(traj.final_state.cov - steady_state(dd).cov).max() <= 1e-12

    def test_lossless_generator_has_no_steady_state(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        with pytest.raises(StabilityError, match="no stable steady state"):
            steady_state(dd)

    def test_time_dependent_drift_rejected(self):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        with pytest.raises(ValueError, match="time-independent"):
            steady_state(dd)


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        en, nu = log_negativity(vacuum_state(2))
        assert en == 0.0
        assert nu == pytest.approx(0.5, rel=1e-12)

    def test_two_mode_squeezed_value(self):
        r = 0.8
        c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
        cov = 0.5 * np.array([
            [c2, 0, s2, 0], [0, c2, 0, -s2], [s2, 0, c2, 0], [0, -s2, 0, c2]])
        en, nu = log_negativity(CovarianceState(np.zeros(4), cov))
        assert en == pytest.approx(2 * r, rel=1e-12)
        assert nu == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)

    def test_beam_splitter_on_vacuum_stays_separable(self):
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        S = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        cov = S @ (0.5 * np.eye(4)) @ S.T
        en, _ = log_negativity(CovarianceState(np.zeros(4), cov))
        assert en == 0.0

    def test_invariant_under_local_symplectics(self):
        r = 1.0
        c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
        cov = 0.5 * np.array([
            [c2, 0, s2, 0], [0, c2, 0, -s2], [s2, 0, c2, 0], [0, -s2, 0, c2]])
        rng = np.random.default_rng(4)
        for _ in range(25):
            blocks = []
            for _ in range(2):
                phi = rng.uniform(0, 2 * math.pi)
                rr = rng.uniform(-0.8, 0.8)
                rot = np.array([[math.cos(phi), math.sin(phi)],
                                [-math.sin(phi), math.cos(phi)]])
                sq = np.diag([math.exp(-rr), math.exp(rr)])
                blocks.append(rot @ sq)
            S = np.block([
                [blocks[0], np.zeros((2, 2))],
                [np.zeros((2, 2)), blocks[1]],
            ])
            transformed = CovarianceState(np.zeros(4), S @ cov @ S.T)
            en, _ = log_negativity(transformed)
            assert en == pytest.approx(2 * r, abs=1e-9)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(PhysicalityError):
            log_negativity(CovarianceState(np.zeros(4), 0.1 * np.eye(4)))

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            log_negativity(vacuum_state(3))


class TestEntanglementExperiment:
    def test_lossless_beam_splitter_entangles_squeezed_input(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        from cavmech.effective import exchange_coupling
        J = abs(exchange_coupling(fr))
        res = entanglement_experiment(fr, r=1.0, t_end=math.pi / (2 * J), stride=2)
        assert res.max_log_negativity > 0.3
        assert math.isinf(res.xi)

    def test_no_squeezing_no_entanglement(self):
        fr = frame_from_collective(1.0, 0.2, 10.0, 0.2, 0.1, 0.1)
        res = entanglement_experiment(fr, r=0.0, t_end=800.0, stride=4)
        assert res.max_log_negativity == 0.0

    def test_physicality_monitored(self):
        fr = frame_from_collective(1.0, 0.2, 10.0, 0.2, 0.1, 0.1)
        res = entanglement_experiment(fr, r=1.0, t_end=400.0, stride=4)
        assert res.trajectory.max_physicality_defect < 1e-8


class TestCovarianceState:
    def test_occupation_includes_displacement(self):
        state = vacuum_state(1)
        state.mean[:] = [math.sqrt(2), 0.0]  # coherent amplitude 1
        assert state.occupation(0) == pytest.approx(1.0)

    def test_fock_moments(self):
        state = fock_moments(2, (3, 0))
        assert state.occupation(0) == pytest.approx(3.0)
        assert state.occupation(1) == pytest.approx(0.0)

    def test_validation(self):
        bad = CovarianceState(np.zeros(4), 0.1 * np.eye(4))
        with pytest.raises(PhysicalityError):
            bad.validate()
        tilt = np.eye(4)
        tilt[0, 1] += 1e-6
        asym = CovarianceState(np.zeros(4), tilt)
        with pytest.raises(ValueError, match="symmetric"):
            asym.validate()

    def test_mode_coherence_against_fock(self):
        space = FockSpace((4, 4))
        b1, b2 = build_operators(space)
        rng = np.random.default_rng(6)
        keep = np.zeros(16)
        keep[[0, 1, 4, 5]] = 1.0  # occupations <= 1 in both modes
        v = (rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))) * keep[:, None]
        rho = v @ v.conj().T
        rho /= np.trace(rho)
        quads = []
        for b in (b1, b2):
            quads.append((b + b.conj().T) / np.sqrt(2))
            quads.append(-1j * (b - b.conj().T) / np.sqrt(2))
        mean = np.array([np.trace(q @ rho).real for q in quads])
        cov = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
                cov[i, j] = np.trace(sym @ rho).real - mean[i] * mean[j]
        state = CovarianceState(mean, cov)
        direct = np.trace(b1.conj().T @ b2 @ rho)
        assert state.mode_coherence(0, 1) == pytest.approx(direct, abs=1e-12)
