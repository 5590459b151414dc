import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cavmech import fock, frame_from_collective, gaussian, propagate
from cavmech.effective import CollectiveMode
from cavmech.fock import FockSpace, build_operators, compile_generator, fock_state, integrate
from cavmech.gaussian import (
    CovarianceState,
    DriftDiffusion,
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
from cavmech.quadratic import (
    EffectiveTwoMode,
    FullLinearized,
    QuadraticModel,
    effective_generator,
    quadratic_model,
)
from test_fock import manual_params


class TestImports:
    def test_gaussian_engine_loads_without_the_fock_engine(self):
        # the moment engine shares the model description and the run driver,
        # never the Fock engine itself
        src = str(Path(gaussian.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, cavmech.gaussian; print('cavmech.fock' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_engines_import_no_exponential(self):
        # the run driver alone chooses how a constant generator is mapped:
        # neither engine imports an exponential or reaches one through the
        # propagate module
        import ast

        exponentials = {name for name in vars(propagate) if "exponential" in name or "taylor" in name}
        assert {"exponential_map", "exponential_increment", "_taylor_substep"} <= exponentials
        for engine in (fock, gaussian):
            tree = ast.parse(Path(engine.__file__).read_text())
            names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not names & exponentials, engine.__name__


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

    @pytest.mark.parametrize("model", ["full", "effective"])
    def test_non_finite_rate_rejected_by_both_engines(self, model):
        # a NaN rate passes rate < 0, and rate > 0 would then drop its jump
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05,
                                   thermal_baths=((math.nan, 0.0), (0, 0)))
        if model == "full":
            spec, space = FullLinearized(fr), FockSpace((3, 3, 3))
        else:
            spec, space = effective_generator(fr), FockSpace((3, 3))
        with pytest.raises(ValueError, match="non-finite rate"):
            compile_generator(spec, space)
        with pytest.raises(ValueError, match="non-finite rate"):
            drift_diffusion_from_generator(spec)

    def test_non_finite_coefficient_or_frequency_rejected(self):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)
        shifted = dataclasses.replace(effective_generator(fr), freq_shifts=(math.inf, 0.0))
        with pytest.raises(ValueError, match="non-finite coefficient inf"):
            quadratic_model(shifted)
        with pytest.raises(ValueError, match="non-finite frequency nan"):
            quadratic_model(FullLinearized(dataclasses.replace(fr, delta_bar=math.nan)))

    @pytest.mark.parametrize("static, oscillating, jumps, message", [
        ((), (), ((((0, 1.0),), False, math.nan),), "non-finite rate nan"),
        ((), (), ((((0, 1.0),), True, -0.1),), r"negative Lindblad rate -0.1 on the raising jump of modes \[0\]"),
        ((), (), ((((2, 1.0),), False, 0.1),), "mode index 2 outside a 2-mode model"),
        (((0.1, 0, 2, False),), (), (), "mode index 2 outside a 2-mode model"),
        ((), ((0.5, ((math.nan, 0, 1, True),)),), (), "non-finite coefficient nan"),
    ])
    def test_directly_built_model_checks_its_terms(self, static, oscillating, jumps, message):
        # a model built without quadratic_model gets the same checks
        with pytest.raises(ValueError, match=message):
            QuadraticModel(2, ((1.0, 0, 0, False),) + static, oscillating, jumps)

    def test_model_works_out_its_fastest_scale(self):
        # |c| = 5 sets f_max, so the guard needs dt <= 0.002 on both engines;
        # a zero-rate jump is checked, then dropped
        model = QuadraticModel(2, ((5.0, 0, 1, False),), ((0.5, ((1.0, 0, 1, True),)),),
                               ((((0, 1.0),), False, 0.1), (((1, 1.0),), True, 0.0)))
        assert model.f_max == 5.0
        assert model.jumps == ((((0, 1.0),), False, 0.1),)
        with pytest.raises(ValueError, match="too coarse"):
            evolve_covariance(drift_diffusion_from_generator(model), vacuum_state(2), 1.0, 0.01)
        space = FockSpace((3, 3))
        with pytest.raises(ValueError, match="too coarse"):
            integrate(model, space, fock_state(space, (0, 0)), 1.0, 0.01)

    def test_drift_at_stack_matches_scalar_calls(self):
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        ts = np.arange(63) * 0.0137
        scalar = np.array([dd.drift_at(t) for t in ts])
        # the 24-term cos/sin sum may be added in another order by a
        # matrix-matrix than by a matrix-vector product
        tol = 8 * np.finfo(float).eps * np.abs(scalar).max()
        assert np.abs(dd.drift_at(ts) - scalar).max() <= tol

    def test_superoperator_is_the_moment_right_hand_side(self):
        thermal = ((0.01, 0.5), (0.02, 1.5))
        fr = frame_from_collective(1.0, 0.3, -2.2, 0.45, 0.12, 0.08, thermal_baths=thermal)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        n = dd.drift.shape[0]
        x = np.random.default_rng(12).normal(size=(n + 1, n + 1))
        x += x.T
        M, N = np.zeros((2, n + 1, n + 1))
        M[:n, :n], N[:n, :n] = dd.drift, dd.diffusion
        rhs = M @ x + (M @ x).T + N * x[n, n]
        assert np.abs(dd.superoperator() @ x.reshape(-1) - rhs.reshape(-1)).max() < 1e-15

    def test_superoperator_is_the_moment_right_hand_side_at_any_time(self):
        # the time-dependent kernel stage is one product with L(t)
        thermal = ((0.01, 0.5), (0.02, 1.5))
        fr = frame_from_collective(1.0, 0.3, -2.2, 0.45, 0.12, 0.08, thermal_baths=thermal)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        n = dd.drift.shape[0]
        x = np.random.default_rng(12).normal(size=(n + 1, n + 1))
        x += x.T
        x[n, n] = 1.0
        M, N = np.zeros((2, n + 1, n + 1))
        N[:n, :n] = dd.diffusion
        ts = np.array([0.0, 0.41, 3.7, 12.5, 101.3, 977.0])
        stack = dd.superoperator(ts)
        assert stack.shape == (ts.size, (n + 1) ** 2, (n + 1) ** 2)
        for t, stacked in zip(ts, stack):
            M[:n, :n] = dd.drift_at(t)
            rhs = M @ x + x @ M.T + N
            single = dd.superoperator(t)
            # worst measured: 3.2e-16 of max |rhs|
            assert np.abs(single @ x.reshape(-1) - rhs.reshape(-1)).max() <= 1e-15 * np.abs(rhs).max()
            # the 12-term phase sum may be added in another order by a
            # matrix-matrix than by a matrix-vector product
            assert np.abs(stacked - single).max() <= 8 * np.finfo(float).eps * np.abs(single).max()

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
        # the means live in the coherence between the parity sectors:
        # carry rho as one block
        gen = compile_generator(spec, space, [np.arange(space.total_dim)])
        drho = gen.unpack(gen.apply(t, gen.pack(rho)))
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

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_rejected(self, t_end):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        with pytest.raises(ValueError, match="t_end must be finite"):
            evolve_covariance(dd, vacuum_state(2), t_end, 0.01 / dd.f_max)

    @pytest.mark.parametrize("part", ["mean", "cov"])
    def test_non_finite_initial_state_rejected(self, part):
        # a NaN mean entry ran five ever longer accepted steps of the kernel
        # before eigvalsh raised LinAlgError in the monitor
        dd = drift_diffusion_from_generator(FullLinearized(frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)))
        state0 = fock_moments(3, (0, 1, 0))
        getattr(state0, part)[1] = math.nan
        with pytest.raises(ValueError, match="initial moments must be finite"):
            evolve_covariance(dd, state0, 5.0, 0.01 / dd.f_max)

    @pytest.mark.filterwarnings("error")
    def test_single_lossless_interval_by_doubling(self):
        # one 200-time-unit record interval: the interval map is a single
        # exponential of the superoperator, with no overflow and no Hurwitz
        # drift to lean on
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

    @staticmethod
    def random_model(rng):
        """A static 3-mode model: number terms, complex b_m^dag b_n terms, a
        lowering jump per mode and a collective lowering jump."""
        static = [(rng.uniform(-1.0, 1.0), m, m, False) for m in range(3)]
        static += [(complex(*rng.normal(size=2)), m, n, False) for m, n in ((0, 1), (0, 2), (1, 2))]
        jumps = [(((m, 1.0),), False, rng.uniform(0.05, 0.5)) for m in range(3)]
        jumps.append((tuple((m, complex(*rng.normal(size=2))) for m in range(3)), False,
                      rng.uniform(0.05, 0.5)))
        return QuadraticModel(3, tuple(static), (), tuple(jumps))

    def test_exact_paths_agree_on_random_models(self):
        # one excitation never leaves levels 0 and 1 of a number-conserving
        # model with lowering jumps, so dims (2, 2, 2) truncate nothing (its
        # top levels are occupied by design) and both exact engines must
        # agree to roundoff.  At stride 10 the Fock engine maps each of 30
        # records by its Taylor sum; at stride 1 its 300 records (its flat
        # state has 32 entries) take the dense increment.
        space = FockSpace((2, 2, 2))
        for stride in (10, 1):
            rng = np.random.default_rng(2024)
            worst = 0.0
            for draw in range(24):
                model = self.random_model(rng)
                occupations = tuple(int(m == draw % 3) for m in range(3))
                dt = 0.01 / model.f_max
                ftraj = integrate(model, space, fock_state(space, occupations), 300 * dt, dt,
                                  stride=stride, truncation_tol=1.0)
                gtraj = evolve_covariance(drift_diffusion_from_generator(model), fock_moments(3, occupations),
                                          300 * dt, dt, stride=stride)
                assert (ftraj.stats.dense_maps, gtraj.stats.dense_maps) == (int(stride == 1), 1)
                assert np.array_equal(ftraj.t, gtraj.t)
                fock_occ = np.stack([ftraj.n_cav, ftraj.n1, ftraj.n2], axis=1)
                # np.max, unlike max, carries a NaN through to the bound
                worst = np.max([worst, np.abs(fock_occ - gtraj.occupations).max(),
                                abs(ftraj.coh[-1] - gtraj.final_state.mode_coherence(1, 2))])
            # worst measured: 3.7e-15 (stride 10), 2.1e-14 (stride 1)
            assert worst <= 1e-13, stride

    @staticmethod
    def random_oscillating_model(rng):
        """A 3-mode model: number terms, one complex b_m^dag b_n term at each
        of three distinct frequencies, and a lowering jump per mode."""
        static = tuple((rng.uniform(-1.0, 1.0), m, m, False) for m in range(3))
        oscillating = tuple((float(nu), ((complex(*rng.normal(size=2)), m, n, False),))
                            for nu, (m, n) in zip(np.sort(rng.uniform(-2.0, 2.0, 3)),
                                                  ((0, 1), (0, 2), (1, 2))))
        jumps = tuple((((m, 1.0),), False, rng.uniform(0.05, 0.5)) for m in range(3))
        return QuadraticModel(3, static, oscillating, jumps)

    # worst measured: 3.6e-10 for one excitation; 3.0e-9 for two (5.2e-9
    # with rng 11), whose parity blocks of 14 and 13 rows carry a ghost row
    @pytest.mark.parametrize("dims, excitations, blocks, bound",
                             [((2, 2, 2), 1, (4, 4), 5e-9), ((3, 3, 3), 2, (14, 13), 5e-8)],
                             ids=["one-excitation", "two-excitation"])
    def test_kernel_paths_agree_on_random_oscillating_models(self, dims, excitations, blocks, bound):
        # as in test_exact_paths_agree_on_random_models, a number-conserving
        # model with lowering jumps never lifts a mode above the initial
        # excitation count, so these dims truncate nothing and the engines
        # differ only by the Dormand-Prince kernel's error on their two
        # state representations
        space = FockSpace(dims)
        states = [s for s in itertools.product(range(excitations + 1), repeat=3) if sum(s) == excitations]
        rng = np.random.default_rng(7)
        worst = 0.0
        for draw in range(8):
            model = self.random_oscillating_model(rng)
            occupations = states[draw % len(states)]
            dt = 0.01 / model.f_max
            ftraj = integrate(model, space, fock_state(space, occupations), 1000 * dt, dt,
                              stride=25, truncation_tol=1.0)
            gtraj = evolve_covariance(drift_diffusion_from_generator(model), fock_moments(3, occupations),
                                      1000 * dt, dt, stride=25)
            assert ftraj.stats.accepted_steps > 0 and gtraj.stats.accepted_steps > 0
            assert ftraj.stats.blocks == blocks
            assert np.array_equal(ftraj.t, gtraj.t)
            fock_occ = np.stack([ftraj.n_cav, ftraj.n1, ftraj.n2], axis=1)
            # np.max, unlike max, carries a NaN through to the bound
            worst = np.max([worst, np.abs(fock_occ - gtraj.occupations).max()])
        assert worst <= bound

    def test_constant_models_through_the_kernel_match_the_exact_paths(self):
        # the criterion-5 configs with their frequency shifts; the m != n
        # static terms moved into one oscillating group at nu = 0 leave the
        # generator constant but send it down the Dormand-Prince path, so
        # the kernel is checked against the Taylor exponential on both engines
        space = FockSpace((4, 4))
        fock_gap = gauss_gap = 0.0
        for delta_omega, delta_bar, kappa, G in [(0.2, 1.0, 0.3, 0.15), (0.3, 0.9, 0.5, 0.12),
                                                 (0.15, 1.1, 0.2, 0.10)]:
            spec = effective_generator(frame_from_collective(1.0, delta_omega, delta_bar, kappa, G, G),
                                       include_shifts=True)
            model = quadratic_model(spec)
            ticking = dataclasses.replace(
                model, static=tuple(term for term in model.static if term[1] == term[2]),
                oscillating=((0.0, tuple(term for term in model.static if term[1] != term[2])),))
            horizon = 0.5 / spec.params.gamma_total
            dt = min(0.01 / model.f_max, horizon / 100)
            stride = max(1, int(round(horizon / dt)) // 300)
            ftrajs, gtrajs = [], []
            for m in (model, ticking):
                ftrajs.append(integrate(m, space, fock_state(space, (1, 0)), horizon, dt, stride=stride))
                gtrajs.append(evolve_covariance(drift_diffusion_from_generator(m), fock_moments(2, (1, 0)),
                                                horizon, dt, stride=stride))
            for exact, kernel in (ftrajs, gtrajs):
                assert exact.stats.accepted_steps == 0 < kernel.stats.accepted_steps
                assert np.array_equal(exact.t, kernel.t)
            # np.max, unlike max, carries a NaN through to the bound
            fock_gap = np.max([fock_gap] + [np.abs(getattr(ftrajs[0], f) - getattr(ftrajs[1], f)).max()
                                            for f in ("n1", "n2", "coh", "trace")])
            gauss_gap = np.max([gauss_gap, np.abs(gtrajs[0].occupations - gtrajs[1].occupations).max()])
        # worst measured: 2.3e-10 (Fock), 2.5e-10 (Gaussian)
        assert fock_gap <= 2.5e-9 and gauss_gap <= 2.5e-9

    def test_fourth_order_convergence_on_full_model(self):
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        dd = drift_diffusion_from_generator(FullLinearized(fr))
        dt = 0.01 / dd.f_max
        state0 = fock_moments(3, (0, 1, 0))
        coarse = evolve_covariance(dd, state0, 5.0, dt, stride=10**9)
        fine = evolve_covariance(dd, state0, 5.0, dt / 2, stride=10**9)
        for a, b in zip(coarse.occupations[-1], fine.occupations[-1]):
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-3)

    @pytest.mark.parametrize("model", ["full", "effective"])
    def test_records_do_not_depend_on_stride(self, model):
        # the full model's records between steps come from the continuous
        # extension; the effective model's exact path builds one map per
        # interval length, and 7 does not divide 200
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        if model == "full":
            spec, state0 = FullLinearized(fr), fock_moments(3, (0, 1, 0))
        else:
            spec, state0 = effective_generator(fr), fock_moments(2, (1, 0))
        dd = drift_diffusion_from_generator(spec)
        dt = 0.01 / dd.f_max
        runs = {stride: evolve_covariance(dd, state0, 200 * dt, dt, stride=stride)
                for stride in (1, 7, 10**9)}
        every = runs[1]
        for stride, traj in runs.items():
            steps = sorted(set(range(0, 201, stride)) | {200})
            assert list(traj.t) == [s * dt for s in steps]
            assert np.abs(traj.occupations - every.occupations[steps]).max() <= 1e-14
            assert np.abs(traj.final_state.cov - every.final_state.cov).max() <= 1e-14
            assert np.abs(traj.final_state.mean - every.final_state.mean).max() <= 1e-14

    def test_displaced_state_mean_on_both_paths(self):
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        mean0 = np.array([1.0, -0.5, 0.3, 0.8])
        dt, t_end = 0.01 / dd.f_max, 20.0
        exact = evolve_covariance(dd, CovarianceState(mean0, 0.5 * np.eye(4)), t_end, dt, stride=50)
        means = np.array([expm(dd.drift * t) @ mean0 for t in exact.t])
        assert np.abs(exact.final_state.mean - means[-1]).max() < 1e-12
        # a zero-amplitude phase term sends the same drift down the RK4 path
        ticking = DriftDiffusion(dd.drift, dd.diffusion, phase_nus=np.array([0.5]),
                                 phase_basis=np.zeros((2, 4, 4)), f_max=dd.f_max)
        rk4 = evolve_covariance(ticking, CovarianceState(mean0, 0.5 * np.eye(4)), t_end, dt, stride=50)
        assert rk4.stats.accepted_steps > 0
        assert np.abs(rk4.final_state.mean - exact.final_state.mean).max() < 1e-9
        assert np.abs(rk4.final_state.cov - exact.final_state.cov).max() < 1e-9
        assert np.abs(rk4.occupations - exact.occupations).max() < 1e-9
        # each occupation adds the displacement |<b_m>|^2 to the undisplaced run's
        centred = evolve_covariance(dd, CovarianceState(np.zeros(4), 0.5 * np.eye(4)), t_end, dt, stride=50)
        displacement = 0.5 * (means[:, 0::2] ** 2 + means[:, 1::2] ** 2)
        assert np.abs(exact.occupations - centred.occupations - displacement).max() < 1e-12

    def test_step_size_precondition(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.5, 0.0)}), CollectiveMode(1.0, 1.0))
        dd = drift_diffusion_from_generator(spec)
        with pytest.raises(ValueError, match="too coarse"):
            evolve_covariance(dd, vacuum_state(2), 1.0, 1.0)
        with pytest.raises(ValueError, match="stride"):
            evolve_covariance(dd, vacuum_state(2), 1.0, 0.01, stride=0)

    def test_monitors_match_the_covariance_state(self):
        # the monitors of a stack of records against CovarianceState's
        # methods on one state, bit for bit, at the first and the last
        # record; libm pow rounds the square of the first mean off by 1 ulp
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        state0 = squeezed_vacuum(2, 0, 0.7)
        state0.mean = np.array([-7.795759322843109, -0.5, 0.3, 0.8])
        traj = evolve_covariance(dd, state0, 20.0, 0.01 / dd.f_max, stride=50)
        for i, state in ((0, state0), (-1, traj.final_state)):
            assert list(traj.occupations[i]) == [state.occupation(m) for m in range(2)]
            assert traj.physicality[i] == state.physicality_defect()
            assert (traj.log_negativity[i], traj.min_symp_eig[i]) == log_negativity(state)

    def test_monitors_make_no_eigenvalue_call_per_record(self, monkeypatch):
        # the log negativity of every record comes from one closed form on
        # the record stack, with no general eigenvalue solve
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        dd = drift_diffusion_from_generator(effective_generator(fr))
        expected = evolve_covariance(dd, squeezed_vacuum(2, 0, 0.7), 20.0, 0.01 / dd.f_max, stride=5)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        traj = evolve_covariance(dd, squeezed_vacuum(2, 0, 0.7), 20.0, 0.01 / dd.f_max, stride=5)
        assert np.all(np.isfinite(traj.log_negativity)) and traj.log_negativity.max() > 0
        assert np.array_equal(traj.log_negativity, expected.log_negativity)
        assert np.array_equal(traj.min_symp_eig, expected.min_symp_eig)

    @pytest.mark.parametrize("phase_nus", [np.zeros(0), np.array([0.5])])
    def test_physicality_abort_names_the_first_offending_record(self, monkeypatch, phase_nus):
        # a negative diffusion takes the vacuum below the uncertainty bound
        # at a rate of 1.5e-7 per unit time, so the defect passes 1e-6 in a
        # later monitor stack; a zero-amplitude phase term sends the same
        # run down the Runge-Kutta path
        dd = DriftDiffusion(np.zeros((4, 4)), -1.5e-7 * np.eye(4), phase_nus=phase_nus,
                            phase_basis=np.zeros((2 * phase_nus.size, 4, 4)))

        def run():
            return evolve_covariance(dd, vacuum_state(2), 10.0, 0.01, stride=1)

        with monkeypatch.context() as patch:
            patch.setattr(gaussian, "_PHYSICALITY_TOL", math.inf)
            free = run()
        first = np.flatnonzero(free.physicality < -gaussian._PHYSICALITY_TOL)[0]
        assert propagate._MONITOR_BLOCK // 25 < first < free.t.size - 1
        with pytest.raises(PhysicalityError) as abort:
            run()
        assert f"defect {free.physicality[first]:.3e} at t={free.t[first]:.6g} " in str(abort.value)


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
        with pytest.raises(ValueError, match="time-independent"):
            dd.superoperator()


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        en, nu = log_negativity(vacuum_state(2))
        # +0.0, so an output file never prints a negative zero
        assert en == 0.0 and math.copysign(1.0, en) == 1.0
        assert nu == pytest.approx(0.5, rel=1e-12)

    def test_two_mode_squeezed_value(self):
        # nu-^2 = det / nu+^2 keeps the eigenvalue solver's accuracy under
        # strong squeezing (worst measured: 1.7e-12 at r = 3, 1.5e-10 at
        # r = 4); the difference form (D - sqrt(D^2 - 4 det)) / 2 loses
        # 6.9e-8 and 6.9e-4
        for r, bound in ((0.8, 1e-12), (3.0, 1e-10), (4.0, 1e-8)):
            c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
            cov = 0.5 * np.array([
                [c2, 0, s2, 0], [0, c2, 0, -s2], [s2, 0, c2, 0], [0, -s2, 0, c2]])
            en, nu = log_negativity(CovarianceState(np.zeros(4), cov))
            assert en == pytest.approx(2 * r, rel=bound)
            assert nu == pytest.approx(0.5 * math.exp(-2 * r), rel=bound)

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

    def test_closed_form_matches_the_eigenvalue_definition(self):
        # nu- is the smallest |eigenvalue| of Omega sigma_PT, the partial
        # transpose flipping p_2; sigma = S diag(nu_1, nu_1, nu_2, nu_2) S^T
        # with S = exp(Omega H) symplectic, a fifth of the states pure
        rng = np.random.default_rng(22)
        count = 2000
        H = rng.normal(size=(count, 4, 4)) * rng.uniform(0.01, 0.4, size=(count, 1, 1))
        S = expm(symplectic_form(2) @ (H + H.transpose(0, 2, 1)))
        nus = np.where(rng.uniform(size=(count, 1)) < 0.2, 0.5, rng.uniform(0.5, 2.0, size=(count, 2)))
        cov = S * np.repeat(nus, 2, axis=1)[:, None, :] @ S.transpose(0, 2, 1)
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        ref_nu = np.array([np.abs(np.linalg.eigvals(symplectic_form(2) @ flip @ c @ flip)).min()
                           for c in cov])
        ref_en = np.maximum(0.0, -np.log(2 * ref_nu))
        en, nu = gaussian._log_negativity(cov)
        assert 300 < np.count_nonzero(ref_nu < 0.5) < count - 300
        # worst measured: 1.5e-13 in E_N, 1.5e-13 relative in nu-
        assert np.abs(en - ref_en).max() <= 1e-12
        assert np.abs(nu / ref_nu - 1).max() <= 1e-12
        # a separable state gives exactly 0, and each state of the stack
        # the same bits alone
        assert np.all(en[ref_nu > 0.5 + 1e-12] == 0.0) and not np.signbit(en).any()
        assert all((en[i], nu[i]) == gaussian._log_negativity(cov[i]) for i in range(0, count, 97))

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

    def test_default_step_ends_on_t_end(self):
        fr = frame_from_collective(1.0, 0.2, 10.0, 0.2, 0.1, 0.1)
        for t_end in (400.0, 800.0):
            res = entanglement_experiment(fr, r=1.0, t_end=t_end, stride=4)
            assert res.trajectory.t[-1] == pytest.approx(t_end, rel=1e-12)

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
