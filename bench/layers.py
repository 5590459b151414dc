"""What the traced run wraps, and the per-layer metrics it reports.

A metric is named ``<module>.<qualname>.<stat>``: ``s`` is the time spent
in the call, ``self_s`` that time minus the time in wrapped children,
``calls`` the call count, and ``steps``, ``records`` and ``bytes`` counts
taken from the call's arguments or result.  Every value is per pass.
"""

from __future__ import annotations

from tracer import Target


def _steps(args, result):
    t_end, dt = args["t_end"], args["dt"]
    return int(round(t_end / dt)) if t_end > 0 else 0


def _records(args, result):
    return len(result.t)


def _bytes(args, result):
    return len(result.encode())


STEP_COUNTERS = (("steps", _steps), ("records", _records))

TARGETS = (
    # fock: RK4 on the density matrix
    Target("fock.excitation_transfer_experiment"),
    Target("fock.integrate", counters=STEP_COUNTERS),
    Target("fock.compile_generator"),
    Target("fock.fit_damped_rabi"),
    Target("fock.CompiledGenerator.drift", hot=True),
    Target("fock.CompiledGenerator.add_jump_sandwiches", hot=True),
    # gaussian: RK4 on the moments, Lyapunov steady state
    Target("gaussian.evolve_covariance", counters=STEP_COUNTERS),
    Target("gaussian.drift_diffusion_from_generator"),
    Target("gaussian.steady_state"),
    Target("gaussian.DriftDiffusion.drift_at", hot=True),
    Target("gaussian.CovarianceState.physicality_defect", hot=True),
    # elimination: the independent oracle, once per random draw
    Target("elimination.build_coefficient_table", hot=True),
    Target("elimination.reduce_to_effective", hot=True),
    # effective: closed forms
    Target("effective.effective_params", hot=True),
    Target("effective.coupling_nulls"),
    # analysis: sweeps, oracle checks, emission
    Target("analysis.check_reduction_agreement"),
    Target("analysis.check_rate_identities"),
    Target("analysis.regime_map"),
    Target("analysis.coupling_curve_data"),
    Target("analysis.render", counters=(("bytes", _bytes),)),
    # cli and model
    Target("cli.main"),
    Target("model.derive_frame", hot=True),
)

METRICS = (
    "fock.excitation_transfer_experiment.s",
    "fock.integrate.s",
    "fock.integrate.self_s",
    "fock.integrate.steps",
    "fock.integrate.records",
    "fock.compile_generator.s",
    "fock.fit_damped_rabi.s",
    "fock.CompiledGenerator.drift.s",
    "fock.CompiledGenerator.drift.calls",
    "fock.CompiledGenerator.add_jump_sandwiches.s",
    "fock.CompiledGenerator.add_jump_sandwiches.calls",
    "gaussian.evolve_covariance.s",
    "gaussian.evolve_covariance.self_s",
    "gaussian.evolve_covariance.steps",
    "gaussian.drift_diffusion_from_generator.s",
    "gaussian.steady_state.s",
    "gaussian.DriftDiffusion.drift_at.s",
    "gaussian.DriftDiffusion.drift_at.calls",
    "gaussian.CovarianceState.physicality_defect.s",
    "gaussian.CovarianceState.physicality_defect.calls",
    "elimination.build_coefficient_table.s",
    "elimination.reduce_to_effective.s",
    "elimination.reduce_to_effective.calls",
    "effective.effective_params.s",
    "effective.effective_params.calls",
    "effective.coupling_nulls.s",
    "analysis.check_reduction_agreement.s",
    "analysis.check_rate_identities.s",
    "analysis.regime_map.s",
    "analysis.coupling_curve_data.s",
    "analysis.render.s",
    "analysis.render.bytes",
    "cli.main.s",
    "cli.main.calls",
    "model.derive_frame.calls",
)

UNITS = {"s": "s", "self_s": "s", "calls": "count", "steps": "count", "records": "count", "bytes": "bytes"}


def split(metric: str) -> tuple[str, str]:
    """``fock.integrate.self_s`` -> (``fock.integrate``, ``self_s``)."""
    target, _, stat = metric.rpartition(".")
    return target, stat


def pass_values(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced pass; 0 where nothing ran."""
    values = {}
    for metric in METRICS:
        target, stat = split(metric)
        values[metric] = totals.get(target, {}).get(stat, 0)
    return values
