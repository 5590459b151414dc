"""The three benchmark workloads, built only from cavmech's public entry points.

A workload has an input function ``inputs(seed, size, workdir)`` and a
pass ``run(inputs, ops)``.  A pass is a list of checked operations: one
engine propagation with its gate, one CLI call with its digest check, or
one oracle check.  Every operation is counted by :class:`Ops`; a failure
is kept with its reason.

Seed 0 reproduces the acceptance-test inputs exactly.  Other seeds scale
the dressed couplings (and, for the transfer run, the cavity decay) by a
few percent, or draw other oracle samples.  None of this changes the step
count of any propagation, so the work per pass does not depend on the seed.

``size`` is ``"full"`` for timing and ``"tiny"`` for the untimed warm-up
pass and the benchmark's own tests.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import numpy as np

from cavmech import analysis, cli, effective, fock, frame_from_collective, gaussian


class GateError(Exception):
    """A measured figure outside its limit."""


class Ops:
    """Counts the checked operations of one pass and records failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.figures: dict[str, tuple[float, str, float]] = {}

    def run(self, name: str, fn):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is reported, never dropped
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def gate(self, name: str, value: float, op: str, limit: float) -> None:
        """Record an accuracy figure and raise GateError if it misses its limit."""
        self.figures[name] = (float(value), op, limit)
        ok = {"<": value < limit, ">": value > limit, ">=": value >= limit}[op]
        if not ok:
            raise GateError(f"{name} = {value:.3e}, need {op} {limit:g}")


def _need(*results):
    if any(r is None for r in results):
        raise GateError("an operation this check depends on failed")


def _scale(rng, spread: float) -> float:
    return 1.0 if rng is None else float(rng.uniform(1.0 - spread, 1.0 + spread))


def _rng(seed: int):
    return None if seed == 0 else np.random.default_rng(seed)


def _structural_gates(ops: Ops, traj, label: str) -> None:
    """Criterion-9 monitors of one Fock trajectory."""
    ops.gate(f"{label}.max_trace_dev", traj.max_trace_dev, "<", 1e-8)
    ops.gate(f"{label}.max_herm_dev", traj.max_herm_dev, "<", 1e-10)
    ops.gate(f"{label}.min_eigenvalue", traj.min_eigenvalue, ">", -1e-6)


# -- transfer-full ----------------------------------------------------------

# The Rabi fit needs about 100 time units on the desk frame: at 40-80 its
# error is 12-69 %, at 100 it is 0.5-2 % over +-3 % parameter scalings.
# The tiny size is below that on purpose; its fit gate fails.
TRANSFER_HORIZON = {"full": 100.0, "tiny": 10.0}


def transfer_inputs(seed: int, size: str, workdir: Path) -> dict:
    rng = _rng(seed)
    g = 0.05 * _scale(rng, 0.03)
    kappa = 0.1 * _scale(rng, 0.03)
    frame = frame_from_collective(1.0, 0.2, 5.0, kappa, g, g)
    return {
        "frame": frame,
        "protocol": fock.TransferProtocol(t_end=TRANSFER_HORIZON[size]),
        "moments0": gaussian.fock_moments(3, (0, 1, 0)),
    }


def transfer_pass(inp: dict, ops: Ops) -> None:
    frame, protocol = inp["frame"], inp["protocol"]

    def fock_run():
        result = fock.excitation_transfer_experiment(frame, protocol, model="full")
        _structural_gates(ops, result.trajectory, "fock")
        return result

    def gauss_run():
        spec = fock.FullLinearized(frame)
        f_max = fock.compile_generator(spec, fock.FockSpace(protocol.dims)).f_max
        dt = 0.01 / f_max
        stride = max(1, int(round(protocol.t_end / dt)) // 2000)
        dd = gaussian.drift_diffusion_from_generator(spec)
        traj = gaussian.evolve_covariance(dd, inp["moments0"], protocol.t_end, dt, stride=stride)
        ops.gate("gauss.physicality_defect", traj.max_physicality_defect, "<", 1e-6)
        return traj

    def fit_check():
        _need(result)
        closed = abs(effective.exchange_coupling(frame))
        ops.gate("fit.J_rel_err", abs(result.exchange_rate - closed) / closed, "<", 0.10)

    def gap_check():
        _need(result, gtraj)
        ft, occ = result.trajectory, gtraj.occupations
        gap = max(
            float(np.abs(ft.n_cav - occ[:, 0]).max()),
            float(np.abs(ft.n1 - occ[:, 1]).max()),
            float(np.abs(ft.n2 - occ[:, 2]).max()),
        )
        ops.gate("engine_gap", gap, "<", 1e-3)

    result = ops.run("fock.transfer", fock_run)
    gtraj = ops.run("gaussian.full", gauss_run)
    ops.run("oracle.rabi_fit", fit_check)
    ops.run("oracle.engine_gap", gap_check)


# -- effective-crosscheck ---------------------------------------------------

RED_DETUNED = (
    dict(delta_omega=0.2, delta_bar=1.0, kappa=0.3, G=0.15),
    dict(delta_omega=0.3, delta_bar=0.9, kappa=0.5, G=0.12),
    dict(delta_omega=0.15, delta_bar=1.1, kappa=0.2, G=0.10),
)

# Horizons in units of 1/Gamma_total (comparison window) and of the
# slowest relaxation time (long run).  Criterion 5 uses 5 and 30; a pass
# at that size takes about 29 s on 2 vCPUs, too long for repeated timing.  The long
# run at 10 relaxation times still meets the 1e-6 steady-state gate by
# three orders of magnitude.
CROSSCHECK_HORIZON = {"full": (0.5, 10.0), "tiny": (0.1, 10.0)}


def crosscheck_inputs(seed: int, size: str, workdir: Path) -> dict:
    rng = _rng(seed)
    frames = []
    for cfg in RED_DETUNED:
        # a common scale of both couplings rescales every rate and the
        # exchange coupling together, so step counts are unchanged
        g = cfg["G"] * _scale(rng, 0.03)
        frames.append(frame_from_collective(1.0, cfg["delta_omega"], cfg["delta_bar"], cfg["kappa"], g, g))
    window, relax_times = CROSSCHECK_HORIZON[size]
    return {
        "frames": frames,
        "window": window,
        "relax_times": relax_times,
        "space": fock.FockSpace((4, 4)),
        "moments0": gaussian.fock_moments(2, (1, 0)),
    }


def crosscheck_pass(inp: dict, ops: Ops) -> None:
    for i, frame in enumerate(inp["frames"]):
        _crosscheck_config(f"cfg{i}", frame, inp, ops)


def _crosscheck_config(label: str, frame, inp: dict, ops: Ops) -> None:
    space = inp["space"]
    spec = fock.effective_generator(frame)
    dd = gaussian.drift_diffusion_from_generator(spec)
    horizon = inp["window"] / spec.params.gamma_total
    dt = min(0.01 / dd.f_max, horizon / 100)
    stride = max(1, int(round(horizon / dt)) // 300)

    def fock_run():
        traj = fock.integrate(spec, space, fock.fock_state(space, (1, 0)), horizon, dt, stride=stride)
        _structural_gates(ops, traj, f"{label}.fock")
        return traj

    def gauss_run(t_end, stride, name):
        traj = gaussian.evolve_covariance(dd, inp["moments0"], t_end, dt, stride=stride)
        ops.gate(f"{label}.{name}.physicality_defect", traj.max_physicality_defect, "<", 1e-6)
        return traj

    def gap_check():
        _need(ftraj, gtraj)
        gap = max(
            float(np.abs(ftraj.n1 - gtraj.occupations[:, 0]).max()),
            float(np.abs(ftraj.n2 - gtraj.occupations[:, 1]).max()),
        )
        ops.gate(f"{label}.engine_gap", gap, "<", 1e-3)

    def steady_check():
        _need(long_run)
        steady = gaussian.steady_state(dd)
        gap = float(np.abs(long_run.final_state.cov - steady.cov).max())
        ops.gate(f"{label}.steady_state_gap", gap, "<", 1e-6)

    relax = -np.linalg.eigvals(dd.drift).real.max()
    ftraj = ops.run(f"{label}.fock", fock_run)
    gtraj = ops.run(f"{label}.gaussian", lambda: gauss_run(horizon, stride, "gauss"))
    long_run = ops.run(f"{label}.long_run", lambda: gauss_run(inp["relax_times"] / relax, 10**9, "long_run"))
    ops.run(f"{label}.oracle.engine_gap", gap_check)
    ops.run(f"{label}.oracle.steady_state", steady_check)


# -- closed-forms -----------------------------------------------------------

README_CONFIG = """\
omega1   = 1.1      # mechanical frequencies
omega2   = 0.9
omega_c  = 200      # cavity frequency
kappa    = 0.1      # cavity decay
omega_L1 = 194.9    # first pump tone (the second is derived)
alpha    = 1.0      # intracavity displacement (real)
g1       = 0.05    # single-photon couplings
g2       = 0.05
"""

# SHA-256 of each output as written by the seed code.  The ROADMAP keeps
# these outputs byte-identical across refactors.
CLI_DIGESTS = {
    "params": "388deec9c952454823edf7966a021b01bb24c4869f154d88986ca85119d68867",
    "nulls": "5c583376dced6e618f0a27e5e84d79c5e8e02bd4e2e6e2e380b1fb04d7158348",
    "fig1": "b2acfa8fd48d5d06487964a888193712e2d449aa648bcbf280397b17e3244036",
    "fig2": "d284de14c4b40d3c883b88b6b2430e12ad4eab03e3168c9335801436fe0527a5",
    "xi-asymptote": "d5ac4d7b52ba3bcf68f08f96199dcedd74042870c1fc3a83e9d35fc9b03f8aea",
}

ORACLE_DRAWS = {"full": (1000, 10000), "tiny": (100, 1000)}


def closed_forms_inputs(seed: int, size: str, workdir: Path) -> dict:
    config = workdir / "system.cfg"
    config.write_text(README_CONFIG)
    out = workdir / "closed-forms"
    out.mkdir(exist_ok=True)
    rng = _rng(seed)
    seeds = (20240901, 20240902) if rng is None else tuple(int(s) for s in rng.integers(0, 2**31, 2))
    files = {"params": "params.json", "nulls": "nulls.json", "fig1": "fig1.csv",
             "fig2": "fig2.csv", "xi-asymptote": "xi.json"}
    calls = {}
    for command, name in files.items():
        argv = [command, "--out", str(out / name)]
        if command in ("params", "nulls"):
            argv += ["--config", str(config)]
        calls[command] = (argv, out / name)
    reduction_draws, identity_draws = ORACLE_DRAWS[size]
    return {
        "calls": calls,
        "reduction": (reduction_draws, seeds[0]),
        "identities": (identity_draws, seeds[1]),
    }


def _cli_call(command: str, argv: list[str], path: Path) -> None:
    path.unlink(missing_ok=True)
    code = cli.main(argv)
    if code != 0:
        raise GateError(f"exit code {code}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != CLI_DIGESTS[command]:
        raise GateError(f"sha256 {digest} differs from the seed output")


def closed_forms_pass(inp: dict, ops: Ops) -> None:
    for command, (argv, path) in inp["calls"].items():
        ops.run(f"cli.{command}", functools.partial(_cli_call, command, argv, path))

    def reduction():
        worst = analysis.check_reduction_agreement(*inp["reduction"])
        ops.gate("reduction.worst_rel_err", worst, "<", 1e-9)

    def identities():
        out = analysis.check_rate_identities(*inp["identities"])
        ops.gate("identities.worst_identity_rel", out["worst_identity_rel"], "<", 1e-12)
        ops.gate("identities.worst_factorization_rel", out["worst_factorization_rel"], "<", 1e-12)
        ops.gate("identities.min_rate", out["min_rate"], ">=", 0.0)

    ops.run("oracle.reduction_agreement", reduction)
    ops.run("oracle.rate_identities", identities)


WORKLOADS = {
    "transfer-full": (transfer_inputs, transfer_pass),
    "effective-crosscheck": (crosscheck_inputs, crosscheck_pass),
    "closed-forms": (closed_forms_inputs, closed_forms_pass),
}
