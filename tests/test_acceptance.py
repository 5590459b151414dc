"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS line with the
measured figure and its budgeted runtime.  The heavyweight dynamical runs
are shared through session fixtures.
"""

import math
import time

import numpy as np
import pytest

from cavmech import frame_from_collective
from cavmech.analysis import (
    SweepGrid,
    check_rate_identities,
    check_reduction_agreement,
    regime_map,
    xi_asymptote,
)
from cavmech.cli import main
from cavmech.effective import coupling_nulls, exchange_coupling
from cavmech.fock import FockSpace, effective_generator, fock_state, integrate
from cavmech.gaussian import (
    drift_diffusion_from_generator,
    entanglement_experiment,
    evolve_covariance,
    fock_moments,
    steady_state,
)

pytestmark = pytest.mark.acceptance


def report(name, measured, budget_s, elapsed_s):
    print(f"\nPASS {name}: {measured}  [runtime {elapsed_s:.2f}s / budget {budget_s:.0f}s]")


# -- 1: independent reduction equals the closed forms ------------------------

def test_criterion_1_reduction_equivalence():
    t0 = time.time()
    worst = check_reduction_agreement(n_draws=1000, seed=20240901)
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    report("criterion 1 (reduction equivalence, 1000 draws)",
           f"worst rel err {worst:.3e} < 1e-9", 5, elapsed)


# -- 2: rate-pair identities and positivity -----------------------------------

def test_criterion_2_rate_identities():
    t0 = time.time()
    out = check_rate_identities(n_draws=10000, seed=20240902)
    elapsed = time.time() - t0
    assert out["worst_identity_rel"] < 1e-12
    assert out["worst_factorization_rel"] < 1e-12
    assert out["min_rate"] >= 0.0
    assert elapsed < 1.0
    report("criterion 2 (rate identities, 1e4 draws)",
           f"worst rel {max(out['worst_identity_rel'], out['worst_factorization_rel']):.3e} "
           f"< 1e-12, min rate {out['min_rate']:.3e} >= 0", 1, elapsed)


# -- 3: interference-null structure -------------------------------------------

def test_criterion_3_null_structure():
    t0 = time.time()
    for kappa in (0.5, 1.0, 1.5, 1.99):
        frame = frame_from_collective(1.0, 0.1, 1.0, kappa, 0.1, 0.1)
        nulls = coupling_nulls(frame)
        expected = math.sqrt(1.0 - kappa**2 / 4)
        assert len(nulls) == 3
        assert abs(nulls[2] - expected) < 1e-9
        assert abs(nulls[0] + expected) < 1e-9
        assert nulls[1] == 0.0
    for kappa in (2.0, 3.0, 10.0):
        frame = frame_from_collective(1.0, 0.1, 1.0, kappa, 0.1, 0.1)
        assert coupling_nulls(frame) == [0.0]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("criterion 3 (interference nulls)",
           "interior nulls at +-sqrt(1 - kappa^2/4) to 1e-9 for kappa < 2; only 0 above", 1, elapsed)


# -- 4: dynamical validation of the exchange rate ------------------------------

def test_criterion_4_dynamical_validation(desk_frame, full_model_runs):
    closed = abs(exchange_coupling(desk_frame))
    result = full_model_runs["fock"]
    gauss = full_model_runs["gauss"]
    elapsed = full_model_runs["elapsed"]

    rel = abs(result.exchange_rate - closed) / closed
    assert rel < 0.10

    ft = result.trajectory
    d1 = float(np.abs(ft.n1 - gauss.occupations[:, 1]).max())
    d2 = float(np.abs(ft.n2 - gauss.occupations[:, 2]).max())
    dc = float(np.abs(ft.n_cav - gauss.occupations[:, 0]).max())
    assert max(d1, d2, dc) < 1e-3
    assert elapsed < 120.0
    report("criterion 4 (dynamical validation)",
           f"J_fit rel err {rel:.4%} < 10%; engine gap {max(d1, d2, dc):.2e} < 1e-3", 120, elapsed)


# -- 5: engine cross-check on the effective model ------------------------------

RED_DETUNED = (
    dict(delta_omega=0.2, delta_bar=1.0, kappa=0.3, G=0.15),
    dict(delta_omega=0.3, delta_bar=0.9, kappa=0.5, G=0.12),
    dict(delta_omega=0.15, delta_bar=1.1, kappa=0.2, G=0.10),
)


@pytest.fixture(scope="session")
def effective_cross_checks():
    runs = []
    t0 = time.time()
    for cfg in RED_DETUNED:
        frame = frame_from_collective(1.0, cfg["delta_omega"], cfg["delta_bar"],
                                      cfg["kappa"], cfg["G"], cfg["G"])
        spec = effective_generator(frame)
        dd = drift_diffusion_from_generator(spec)
        horizon = 5.0 / spec.params.gamma_total
        dt = min(0.01 / dd.f_max, horizon / 100)
        stride = max(1, int(round(horizon / dt)) // 300)
        space = FockSpace((4, 4))
        ftraj = integrate(spec, space, fock_state(space, (1, 0)), horizon, dt, stride=stride)
        gtraj = evolve_covariance(dd, fock_moments(2, (1, 0)), horizon, dt, stride=stride)
        relax = -np.linalg.eigvals(dd.drift).real.max()
        long_run = evolve_covariance(dd, fock_moments(2, (1, 0)), 30.0 / relax, dt,
                                     stride=10**9)
        runs.append({
            "config": cfg,
            "fock": ftraj,
            "gauss": gtraj,
            "steady": steady_state(dd),
            "long_run": long_run,
        })
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_5_engine_cross_check(effective_cross_checks):
    worst_gap = 0.0
    worst_ss = 0.0
    for run in effective_cross_checks["runs"]:
        ftraj, gtraj = run["fock"], run["gauss"]
        gap = max(
            float(np.abs(ftraj.n1 - gtraj.occupations[:, 0]).max()),
            float(np.abs(ftraj.n2 - gtraj.occupations[:, 1]).max()),
        )
        worst_gap = max(worst_gap, gap)
        ss_gap = float(np.abs(run["long_run"].final_state.cov - run["steady"].cov).max())
        worst_ss = max(worst_ss, ss_gap)
    elapsed = effective_cross_checks["elapsed"]
    assert worst_gap < 1e-3
    assert worst_ss < 1e-6
    assert elapsed < 30.0
    report("criterion 5 (engine cross-check, 3 configs)",
           f"moment gap {worst_gap:.2e} < 1e-3 (Fock truncation only: both engines "
           f"propagate exactly); steady-state gap {worst_ss:.2e} < 1e-6",
           30, elapsed)


# -- 6: regime maps -------------------------------------------------------------

def test_criterion_6_regime_maps():
    t0 = time.time()
    grid = SweepGrid(delta_count=401, kappa_values=(0.1, 0.3, 1.0, 3.0, 10.0))
    for dw in (0.1, 1.9):
        rmap = regime_map(dw, grid)
        assert rmap.boundary, f"no classical/quantum boundary found for delta_omega={dw}"
        col = int(np.argmin(np.abs(rmap.delta_bar)))
        assert all(rmap.labels[:, col] == "classical")
        onset = rmap.quantum_onset(10.0)
        assert onset is not None and onset > 0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("criterion 6 (regime maps)",
           "boundary present for both frequency splittings; zero-detuning column "
           f"classical; quantum onset at kappa=10 near {onset:.2f}", 10, elapsed)


# -- 7: asymptotic growth exponent ----------------------------------------------

def test_criterion_7_asymptotic_exponent():
    t0 = time.time()
    rep = xi_asymptote(kappa=1.0, delta_omega=0.2, decades=(2.0, 4.0))
    elapsed = time.time() - t0
    assert abs(rep["measured_slope"] - rep["predicted_slope"]) <= 0.05
    assert rep["predicted_slope"] == 1.0
    assert rep["claimed_quadratic_slope"] == 2.0
    assert "quadratic" in rep["metadata"]["note"]
    assert elapsed < 1.0
    report("criterion 7 (asymptotics)",
           f"measured exponent {rep['measured_slope']:.4f} vs derived 1.0 "
           "(externally claimed quadratic growth recorded in metadata)", 1, elapsed)


# -- 8: entanglement capability ---------------------------------------------------

def test_criterion_8_entanglement_capability():
    t0 = time.time()
    quantum_frame = frame_from_collective(1.0, 0.2, 10.0, 0.2, 0.1, 0.1)
    res_q = entanglement_experiment(quantum_frame, r=1.0, t_end=900.0, stride=4)
    assert res_q.xi >= 5.0
    assert res_q.max_log_negativity > 0.1

    classical_frame = frame_from_collective(1.0, 0.2, 0.02, 1.0, 0.1, 0.1)
    res_c = entanglement_experiment(classical_frame, r=1.0, t_end=300.0, stride=4)
    assert res_c.xi <= 0.05
    assert res_c.max_log_negativity <= 1e-10

    res_0 = entanglement_experiment(quantum_frame, r=0.0, t_end=900.0, stride=8)
    assert res_0.max_log_negativity == 0.0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("criterion 8 (entanglement capability)",
           f"xi={res_q.xi:.1f}: max E_N={res_q.max_log_negativity:.3f} > 0.1; "
           f"xi={res_c.xi:.4f}: max E_N={res_c.max_log_negativity:.1e} = 0", 10, elapsed)


# -- 9: structural conservation ----------------------------------------------------

def test_criterion_9_structural_conservation(full_model_runs, effective_cross_checks):
    fock_trajs = [full_model_runs["fock"].trajectory]
    gauss_trajs = [full_model_runs["gauss"]]
    for run in effective_cross_checks["runs"]:
        fock_trajs.append(run["fock"])
        gauss_trajs.append(run["gauss"])

    worst_trace = max(t.max_trace_dev for t in fock_trajs)
    worst_herm = max(t.max_herm_dev for t in fock_trajs)
    worst_eig = min(t.min_eigenvalue for t in fock_trajs)
    worst_phys = min(-t.max_physicality_defect for t in gauss_trajs)
    assert worst_trace < 1e-8
    assert worst_herm < 1e-10
    assert worst_eig > -1e-6
    assert worst_phys > -1e-6
    report("criterion 9 (structural conservation)",
           f"|1-Tr| {worst_trace:.1e} < 1e-8; herm dev {worst_herm:.1e} < 1e-10; "
           f"min eig {worst_eig:.1e} > -1e-6; covariance defect {-worst_phys:.1e}",
           0, 0.0)


# -- 10: byte determinism -----------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    args = ["fig2", "--delta-omega", "0.1", "--kappas", "0.1,0.3,1,3,10",
            "--delta-range=-10:10:401"]
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        path = tmp_path / f"{name}.csv"
        assert main(args + ["--threads", threads, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1], "repeated runs differ"
    assert outputs[0] == outputs[2], "thread count changed the output"
    elapsed = time.time() - t0
    report("criterion 10 (determinism)",
           f"fig2 CSV byte-identical across runs and thread counts ({len(outputs[0])} bytes)",
           0, elapsed)
