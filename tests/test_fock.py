import math

import numpy as np
import pytest

from cavmech import fock, frame_from_collective, gaussian
from cavmech.effective import EffectiveParams, CollectiveMode, exchange_coupling
from cavmech.fock import (
    DensityState,
    EffectiveTwoMode,
    FitError,
    FockSpace,
    FullLinearized,
    TransferProtocol,
    TruncationError,
    build_operators,
    compile_generator,
    destroy,
    effective_generator,
    excitation_transfer_experiment,
    fit_damped_rabi,
    fock_state,
    integrate,
    propagate_rk4,
    quadratic_model,
)


def desk_frame():
    return frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)


def manual_params(rates, J=0.0):
    """EffectiveParams with an explicit rate table, for engine-level tests."""
    table = {"1": rates.get("1", (0.0, 0.0)),
             "2": rates.get("2", (0.0, 0.0)),
             "collective": rates.get("collective", (0.0, 0.0))}
    gamma = {k: d - u for k, (d, u) in table.items()}
    total = table["1"][1] + table["2"][1] + 2 * table["collective"][1]
    return EffectiveParams(
        exchange_coupling=J,
        gamma_1=gamma["1"], gamma_2=gamma["2"], gamma_collective=gamma["collective"],
        nbar_1=math.nan, nbar_2=math.nan, nbar_collective=math.nan,
        gamma_total=total,
        xi=abs(J) / total if total > 0 else math.inf,
        rate_table=table,
    )


class TestOperators:
    def test_destroy_matrix_elements(self):
        b = destroy(3)
        assert b[0, 1] == pytest.approx(1.0)
        assert b[1, 2] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(b) == 2

    def test_commutator_truncation_artifact(self):
        d = 5
        b = destroy(d)
        comm = b @ b.conj().T - b.conj().T @ b
        diag = np.diagonal(comm).real
        assert diag[:-1] == pytest.approx(np.ones(d - 1))
        assert diag[-1] == pytest.approx(-(d - 1))

    def test_tensor_ordering_commutes(self):
        space = FockSpace((3, 4))
        b1, b2 = build_operators(space)
        n1 = b1.conj().T @ b1
        n2 = b2.conj().T @ b2
        assert np.abs(n1 @ n2 - n2 @ n1).max() == 0.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            FockSpace((17, 16, 16))
        with pytest.raises(ValueError, match=">= 2"):
            FockSpace((1, 4))

    def test_fock_state_placement(self):
        space = FockSpace((2, 3))
        rho = fock_state(space, (1, 2))
        assert rho[5, 5] == 1.0
        assert np.trace(rho) == 1.0
        with pytest.raises(ValueError):
            fock_state(space, (2, 0))


class TestLiouvillian:
    def test_maximally_mixed_is_stationary_without_dissipation(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        rho = np.eye(9, dtype=complex) / 9
        drho = compile_generator(spec, space).apply(0.0, rho)
        assert np.abs(drho).max() < 1e-16

    def test_unitary_limit_is_pure_exchange(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        b1, b2 = build_operators(space)
        J = spec.params.exchange_coupling
        H = J * (b1.conj().T @ b2 + b2.conj().T @ b1)
        rho = fock_state(space, (1, 0))
        drho = compile_generator(spec, space).apply(0.0, rho)
        expected = -1j * (H @ rho - rho @ H)
        assert np.abs(drho - expected).max() < 1e-16

    @pytest.mark.parametrize("model", ["effective", "full"])
    def test_traceless_and_hermitian_on_random_states(self, model):
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.0, 0.0)))
        if model == "effective":
            spec, space = effective_generator(fr), FockSpace((4, 4))
        else:
            spec, space = FullLinearized(fr), FockSpace((3, 4, 4))
        gen = compile_generator(spec, space)
        rng = np.random.default_rng(8)
        dim = space.total_dim
        for _ in range(100):
            v = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            rho = v @ v.conj().T
            rho /= np.trace(rho)
            drho = gen.apply(0.13, rho)
            assert abs(np.trace(drho)) < 1e-12
            assert np.abs(drho - drho.conj().T).max() < 1e-13

    def test_drift_stack_matches_scalar_calls(self):
        gen = compile_generator(FullLinearized(desk_frame()), FockSpace((4, 3, 3)))
        ts = np.arange(63) * 0.0137
        scalar = np.array([gen.drift(t) for t in ts])
        # the 12-term phase sum may be added in another order by a
        # matrix-matrix than by a matrix-vector product
        tol = 8 * np.finfo(float).eps * np.abs(scalar).max()
        assert np.abs(gen.drift(ts) - scalar).max() <= tol

    def test_drift_matches_model_description(self):
        # -i H(t) - 1/2 sum rate L^dag L, term by term from the model
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = FullLinearized(fr), FockSpace((4, 3, 3))
        model = quadratic_model(spec)
        ops = build_operators(space)
        gen = compile_generator(spec, space)

        def dag(x):
            return x.conj().T

        def hamiltonian_term(c, m, n, squeeze):
            x = c * dag(ops[m]) @ (dag(ops[n]) if squeeze else ops[n])
            return x if m == n else x + dag(x)

        ts = np.array([0.0, 0.37, 12.5, 101.3])
        for t, stacked in zip(ts, gen.drift(ts)):
            H = sum(hamiltonian_term(*term) for term in model.static)
            for nu, terms in model.oscillating:
                for c, m, n, squeeze in terms:
                    H = H + hamiltonian_term(c * np.exp(1j * nu * t), m, n, squeeze)
            expected = -1j * H
            for coeffs, dagger, rate in model.jumps:
                L = sum(c * (dag(ops[m]) if dagger else ops[m]) for m, c in coeffs)
                expected = expected - 0.5 * rate * dag(L) @ L
            tol = 1e-14 * np.abs(expected).max()
            assert np.abs(stacked - expected).max() <= tol
            assert np.abs(gen.drift(t) - expected).max() <= tol

    def test_superoperator_matches_apply(self):
        # thermal baths add "up" ladder jumps next to the dense collective ones
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        space = FockSpace((3, 4))
        gen = compile_generator(effective_generator(fr, include_shifts=True), space)
        superop = gen.superoperator()
        rng = np.random.default_rng(3)
        dim = space.total_dim
        for _ in range(10):
            rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = rho + rho.conj().T
            expected = gen.apply(0.0, rho)
            assert np.abs(superop @ rho.reshape(-1) - expected.reshape(-1)).max() < 1e-14

    def test_superoperator_rejects_time_dependent_generator(self):
        gen = compile_generator(FullLinearized(desk_frame()), FockSpace((2, 2, 2)))
        with pytest.raises(ValueError, match="time-independent"):
            gen.superoperator()


class TestIntegrate:
    def test_beam_splitter_oscillation(self):
        fr = frame_from_collective(1.0, 0.2, 0.5, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        J = abs(spec.params.exchange_coupling)
        space = FockSpace((3, 3))
        dt = 0.01 / J
        traj = integrate(spec, space, fock_state(space, (1, 0)),
                         math.pi / (2 * J), dt, stride=20)
        # 157 steps: seven full record intervals and a final 17-step one
        assert list(traj.t) == [s * dt for s in range(0, 157, 20)] + [157 * dt]
        assert traj.final_state.time == 157 * dt
        assert np.abs(traj.n2 - np.sin(J * traj.t) ** 2).max() < 1e-8
        assert traj.n2[-1] == pytest.approx(1.0, abs=1e-6)

    def test_exact_path_ignores_and_keeps_global_rng(self):
        # expm_multiply estimates norms with onenormest, which draws from
        # NumPy's global RNG
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        spec = effective_generator(fr)
        space = FockSpace((4, 4))
        dt = 0.01 / compile_generator(spec, space).f_max
        outputs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            traj = integrate(spec, space, fock_state(space, (1, 0)), 3000 * dt, dt, stride=10)
            after = np.random.get_state()
            assert after[0] == before[0] and np.array_equal(after[1], before[1])
            assert after[2:] == before[2:]
            outputs.append(b"".join(getattr(traj, f).tobytes()
                                    for f in ("t", "n1", "n2", "coh", "trace", "min_eig"))
                           + traj.final_state.matrix.tobytes())
        assert outputs[0] == outputs[1]

    def test_single_mode_decay(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.4, 0.0)}), CollectiveMode(1.0, 1.0))
        space = FockSpace((3, 3))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 8.0, 0.02, stride=40)
        assert np.abs(traj.n1 - np.exp(-0.4 * traj.t)).max() < 1e-9

    def test_thermal_bath_relaxation(self):
        spec = EffectiveTwoMode(manual_params({}), CollectiveMode(1.0, 1.0),
                                thermal_baths=((0.3, 0.15), (0.0, 0.0)))
        space = FockSpace((10, 2))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 25.0, 0.02, stride=75)
        expected = 0.15 + (1.0 - 0.15) * np.exp(-0.3 * traj.t)
        assert np.abs(traj.n1 - expected).max() < 1e-6

    def test_zero_time_returns_initial_expectations(self):
        fr = desk_frame()
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 0.0, 0.1)
        assert len(traj.t) == 1
        assert traj.n1[0] == pytest.approx(1.0)
        assert traj.n2[0] == pytest.approx(0.0)

    def test_step_size_precondition(self):
        fr = desk_frame()
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        f_max = compile_generator(spec, space).f_max
        with pytest.raises(ValueError, match="too coarse"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 1.0, 0.02 / f_max)
        with pytest.raises(ValueError, match="stride"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 1.0, 0.01 / f_max, stride=0)

    def test_fourth_order_convergence(self, monkeypatch):
        # at the default cap both runs settle on a step of 5 dt and agree exactly
        monkeypatch.setattr(fock, "_STEP_CAP", 1)
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        rho0 = fock_state(space, (0, 1, 0))
        f_max = compile_generator(spec, space).f_max
        dt = 0.01 / f_max
        coarse = integrate(spec, space, rho0, 5.0, dt, stride=10**9, truncation_tol=0.05)
        fine = integrate(spec, space, rho0, 5.0, dt / 2, stride=10**9, truncation_tol=0.05)
        assert fine.stats.rk4_steps == 2 * coarse.stats.rk4_steps
        for field in ("n1", "n2", "n_cav"):
            a, b = getattr(coarse, field)[-1], getattr(fine, field)[-1]
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-3)

    def test_records_do_not_depend_on_stride(self):
        # records off the m dt grid come from side steps; 7 does not divide 200
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        dt = 0.01 / compile_generator(spec, space).f_max
        runs = {stride: integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt,
                                  stride=stride, truncation_tol=0.05)
                for stride in (1, 7, 10**9)}
        every = runs[1]
        for stride, traj in runs.items():
            steps = sorted(set(range(0, 201, stride)) | {200})
            assert list(traj.t) == [s * dt for s in steps]
            for field in ("n1", "n2", "n_cav", "coh", "trace"):
                assert np.abs(getattr(traj, field) - getattr(every, field)[steps]).max() <= 1e-14
            assert np.abs(traj.final_state.matrix - every.final_state.matrix).max() <= 1e-14

    @staticmethod
    def _drift_calls(n_steps, stride):
        """Run the kernel on a zero drift; return its drifts(ts) calls,
        its record times and its RunStats."""
        calls, recorded = [], []

        def drifts(ts):
            calls.append(ts)
            return np.zeros((ts.size, 2, 2))

        _, stats = propagate_rk4(drifts, lambda state, out: None, np.eye(2), n_steps, 0.1,
                                 stride, lambda t, x: recorded.append(t))
        return calls, recorded, stats

    @pytest.mark.parametrize("stride,blocks,records", [(5, 8, (5, 10, 15)), (10**9, 7, (14,))])
    def test_drift_blocks_stay_within_budget(self, monkeypatch, stride, blocks, records):
        # m = 1: one drift call of the five stage times of each pair of dt
        # steps, whatever the stride; an odd n_steps ends a pair at its midpoint
        monkeypatch.setattr(fock, "_STEP_CAP", 1)
        calls, recorded, stats = self._drift_calls(records[-1], stride)
        assert (stats.step_multiple, stats.rk4_steps) == (1, 3 * blocks)
        assert [ts.size for ts in calls] == [5] * blocks
        # consecutive calls share their boundary time and cover every half step
        assert all(a[-1] == b[0] for a, b in zip(calls, calls[1:]))
        joined = np.concatenate([calls[0]] + [ts[1:] for ts in calls[1:]])
        assert np.array_equal(joined, np.arange(4 * blocks + 1) * (0.1 / 2))
        assert recorded == [s * 0.1 for s in records]

    def test_drift_blocks_at_the_default_cap(self):
        # m = 10: one drift call per pair of 10 dt steps over 0..60; the
        # records at multiples of 7 sit off that grid and come from side steps
        calls, recorded, stats = self._drift_calls(60, 7)
        assert (stats.step_multiple, stats.rk4_steps) == (10, 3 * 3 + 8)
        assert len(calls) == 3
        assert all(np.all(np.diff(ts) > 0) for ts in calls)
        # records inside the pairs: 7, 14 | 21, 28, 35 | 42, 49, 56
        for ts, inside in zip(calls, (2, 3, 3)):
            assert ts.size <= min(4 * 10 + 1, 5 + 2 * inside)
        # stage times on the global half-step index: the grid's, and
        # (anchor + r, 2 r) for a side step to record r off anchor r // 10 * 10
        side = {k for r in range(7, 60, 7) for k in (r // 10 * 10 + r, 2 * r)}
        expected = sorted(set(range(0, 121, 10)) | side)
        assert np.array_equal(np.unique(np.concatenate(calls)), np.array(expected) * (0.1 / 2))
        assert recorded == [s * 0.1 for s in (7, 14, 21, 28, 35, 42, 49, 56, 60)]

    def test_truncation_monitor_aborts(self):
        # resonant up-conversion pumps cavity-mechanics pairs and overfills
        # the d=3 ladders quickly; the cavity's holds the most
        fr = frame_from_collective(1.0, 0.3, -(1.0 + 0.3), 0.4, 0.2, 0.2)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        f_max = compile_generator(spec, space).f_max
        with pytest.raises(TruncationError, match=r"subsystem 0 holds population .*increase dimensions"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 120.0,
                      0.01 / f_max, stride=500, truncation_tol=1e-3)

    def test_truncation_monitor_aborts_constant_generator(self):
        # a hot bath on mode 2 fills its d=3 ladder
        spec = EffectiveTwoMode(manual_params({}), CollectiveMode(1.0, 1.0),
                                thermal_baths=((0.0, 0.0), (0.3, 2.0)))
        space = FockSpace((3, 3))
        with pytest.raises(TruncationError, match=r"subsystem 1 holds population .*increase dimensions"):
            integrate(spec, space, fock_state(space, (0, 0)), 20.0, 0.01, stride=50)

    def test_state_validation_on_entry(self):
        fr = desk_frame()
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        bad = np.eye(9, dtype=complex)  # trace 9
        with pytest.raises(ValueError):
            integrate(spec, space, bad, 1.0, 0.1)

    def test_negative_rate_rejected(self):
        params = manual_params({"1": (-0.1, 0.0)})
        spec = EffectiveTwoMode(params, CollectiveMode(1.0, 1.0))
        with pytest.raises(ValueError, match="negative"):
            compile_generator(spec, FockSpace((3, 3)))


def fixed_step_rk4(drifts, add_noise, x, n_steps, dt, stride, record):
    """The fixed-step RK4 kernel that preceded step doubling, as it was.

    The reference for m = 1: one step of ``dt`` at a time, in blocks of one
    record interval (the memory budget never binds at these sizes).
    """
    y, acc, tmp1, k = (np.empty_like(x) for _ in range(4))

    def stage(D, state, out):
        np.matmul(D, state, out=tmp1)
        np.add(tmp1, tmp1.conj().T, out=out)
        add_noise(state, out)

    sixth = dt / 6.0
    half = dt / 2.0
    start = 0
    while start < n_steps:
        stop = min(n_steps, (start // stride + 1) * stride)
        D = drifts(np.arange(2 * start, 2 * stop + 1) * half)
        for j in range(0, 2 * (stop - start), 2):
            stage(D[j], x, k)
            acc[:] = k
            np.multiply(k, half, out=y)
            y += x
            stage(D[j + 1], y, k)
            acc += 2.0 * k
            np.multiply(k, half, out=y)
            y += x
            stage(D[j + 1], y, k)
            acc += 2.0 * k
            np.multiply(k, dt, out=y)
            y += x
            stage(D[j + 2], y, k)
            acc += k
            acc *= sixth
            x += acc
            np.add(x, x.conj().T, out=x)
            x *= 0.5
        start = stop
        record(stop * dt, x)
    return x, fock.RunStats()


def stride_test_runs(stride=7):
    """Both engines on the full model of the stride-independence tests, 200 steps of dt."""
    fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
    spec = FullLinearized(fr)
    space = FockSpace((3, 3, 3))
    dt = 0.01 / compile_generator(spec, space).f_max
    ftraj = integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt,
                      stride=stride, truncation_tol=0.05)
    gtraj = gaussian.evolve_covariance(gaussian.drift_diffusion_from_generator(spec),
                                       gaussian.fock_moments(3, (0, 1, 0)), 200 * dt, dt, stride=stride)
    return ftraj, gtraj


class TestStepControl:
    def test_stride_config_runs_above_the_record_step(self):
        for traj in stride_test_runs():
            assert traj.stats.step_multiple > 1
            assert 0 < traj.stats.max_step_estimate <= fock._STEP_TOL * 2
            assert traj.stats.rk4_steps < 200

    def test_cap_one_reproduces_fixed_step_rk4_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(fock, "_STEP_CAP", 1)
        ftraj, gtraj = stride_test_runs()
        assert ftraj.stats.step_multiple == gtraj.stats.step_multiple == 1
        monkeypatch.setattr(fock, "propagate_rk4", fixed_step_rk4)
        monkeypatch.setattr(gaussian, "propagate_rk4", fixed_step_rk4)
        fref, gref = stride_test_runs()
        for field in ("t", "n1", "n2", "n_cav", "coh", "trace", "trunc_monitor", "herm_dev", "min_eig"):
            assert np.array_equal(getattr(ftraj, field), getattr(fref, field))
        assert np.array_equal(ftraj.final_state.matrix, fref.final_state.matrix)
        for field in ("t", "occupations", "physicality"):
            assert np.array_equal(getattr(gtraj, field), getattr(gref, field))
        assert np.array_equal(gtraj.final_state.cov, gref.final_state.cov)
        assert np.array_equal(gtraj.final_state.mean, gref.final_state.mean)

    def test_internal_step_is_fourth_order(self, monkeypatch):
        # with the estimate switched off, doubling m multiplies the change
        # in the final state by 2^4
        monkeypatch.setattr(fock, "_STEP_TOL", math.inf)
        finals = []
        for cap in (1, 2, 4):
            monkeypatch.setattr(fock, "_STEP_CAP", cap)
            ftraj, gtraj = stride_test_runs(10**9)
            finals.append((ftraj.final_state.matrix, gtraj.final_state.cov))
        for engine in (0, 1):
            fine, mid, coarse = (f[engine] for f in finals)
            ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
            assert 13 < ratio < 19

    def test_tight_tolerance_refines_then_raises_at_the_finest_step(self, monkeypatch):
        coarse, _ = stride_test_runs()
        monkeypatch.setattr(fock, "_STEP_CAP", 1)
        finest, _ = stride_test_runs()
        monkeypatch.setattr(fock, "_STEP_CAP", 10)
        monkeypatch.setattr(fock, "_STEP_TOL", 1e-12)
        refined, _ = stride_test_runs()
        assert 1 < refined.stats.step_multiple < coarse.stats.step_multiple
        assert refined.stats.max_step_estimate <= 1e-12
        gap = lambda traj: np.abs(traj.n2 - finest.n2).max()
        assert gap(refined) < gap(coarse)
        monkeypatch.setattr(fock, "_STEP_TOL", 0.0)
        with pytest.raises(fock.StepControlError, match="at the finest step"):
            stride_test_runs()


class TestHeatingRates:
    """Vacuum heating of the full model pins the bath assignment: the
    mode-1 bath sits at 2 omega_1 - omega_bar, with down/up rates
    G^2 kappa / (kappa^2/4 + (delta_bar -+ x)^2)."""

    def test_mode_resolved_heating_slopes(self):
        ob, dw, kappa, G = 1.0, 0.3, 0.4, 0.02
        db = -(ob + dw)  # resonant with the mode-1 up process
        fr = frame_from_collective(ob, dw, db, kappa, G, G)
        spec = FullLinearized(fr)
        space = FockSpace((3, 4, 4))
        f_max = compile_generator(spec, space).f_max
        traj = integrate(spec, space, fock_state(space, (0, 0, 0)), 30.0,
                         0.01 / f_max, stride=200, truncation_tol=0.05)

        def lor(c):
            return 1.0 / (kappa**2 / 4 + c**2)

        up1 = G * G * kappa * (lor(db + ob) + lor(db + ob + dw))
        up2 = G * G * kappa * (lor(db + ob) + lor(db + ob - dw))
        win = traj.t > 8.0
        slope1 = np.polyfit(traj.t[win], traj.n1[win], 1)[0]
        slope2 = np.polyfit(traj.t[win], traj.n2[win], 1)[0]
        # mode 1 is the resonantly amplified one; window-averaged slopes
        # sit slightly above the instantaneous rates
        assert 1.0 < slope1 / up1 < 1.45
        assert 1.0 < slope2 / up2 < 1.45
        assert slope1 / slope2 == pytest.approx(up1 / up2, rel=0.25)


class TestTransferExperiment:
    def test_effective_model_recovers_coupling(self):
        fr = desk_frame()
        J = abs(exchange_coupling(fr))
        protocol = TransferProtocol(dims=(4, 4, 4), t_end=1500.0)
        result = excitation_transfer_experiment(fr, protocol, model="effective")
        assert abs(result.exchange_rate - J) / J < 0.01
        assert result.regime_ratios["G_over_kappa"] == pytest.approx(0.5)

    def test_decoupled_mode_stays_empty(self):
        # weak probe coupling keeps even the virtual ripple below the bound
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 1e-12, 0.001)
        protocol = TransferProtocol(dims=(3, 3, 2), t_end=50.0)
        spec = FullLinearized(fr)
        space = FockSpace(protocol.dims)
        f_max = compile_generator(spec, space).f_max
        traj = integrate(spec, space, fock_state(space, (0, 1, 0)), protocol.t_end,
                         0.01 / f_max, stride=200)
        assert traj.n2.max() < 1e-6

    def test_fit_failure_reports_trajectory(self):
        t = np.linspace(0, 10, 50)
        with pytest.raises(FitError):
            fit_damped_rabi(t, np.zeros_like(t))

    def test_fitter_on_synthetic_data(self):
        t = np.linspace(0, 700, 1500)
        omega, gamma = 1.1e-3, 2e-4
        n2 = 0.97 * np.sin(omega * t) ** 2 * np.exp(-gamma * t) + 0.002
        amp, w, g, c = fit_damped_rabi(t, n2)
        assert w == pytest.approx(omega, rel=2e-3)
        assert amp == pytest.approx(0.97, rel=0.05)

    def test_fit_is_reproducible_under_roundoff(self):
        # a 100-unit window short of the first swap, with a fast sideband
        # ripple and a heating drift, like the full-model transfer runs
        t = np.linspace(0, 100, 2001)
        n2 = (0.9 * np.sin(1.05e-3 * t) ** 2 * np.exp(-2e-3 * t) + 8e-4
              + 2e-4 * np.sin(0.2 * t) ** 2 + 2e-6 * t)
        noise = 1e-16 * np.random.default_rng(0).standard_normal(t.size)
        w = fit_damped_rabi(t, n2)[1]
        assert fit_damped_rabi(t, n2 + noise)[1] == pytest.approx(w, rel=1e-9, abs=0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            excitation_transfer_experiment(desk_frame(), TransferProtocol(), model="hybrid")


class TestDensityState:
    def test_validation_catches_defects(self):
        good = DensityState(np.diag([0.6, 0.4]).astype(complex))
        good.validate()
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.diag([0.9, 0.4]).astype(complex)).validate()
        bad = np.array([[0.5, 0.3], [0.1, 0.5]], complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(bad).validate()
        neg = np.diag([1.4, -0.4]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityState(neg).validate()
