"""Command-line interface: one subcommand per analysis task.

Each subparser names its handler (``set_defaults(run=...)``), which builds
one result, a ``Dataset`` table or a report dict, and hands it to
``_output``: ``analysis.emit`` writes it to ``--out``, or ``analysis.render``
to stdout.  Tables take ``--format csv|json``; reports are JSON only.

``main`` may be called any number of times in one process.  The parser is
built on the first call and shared by every later one, so nothing may
mutate it: no ``set_defaults`` or ``add_argument`` after it is built.

Exit codes: 0 on success, 1 when a validation stage fails or a run stops,
2 on bad input.  All outputs are deterministic for a fixed configuration;
``--seed`` and ``--threads`` are accepted for interface stability but
unused: nothing is stochastic, and every sweep runs in one thread.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .model import SystemConfig, derive_frame, frame_from_collective, load_config
from .effective import coupling_nulls, interaction_regime
from .fock import FitError, FockSpace, TransferProtocol, TruncationError, fock_state, integrate
from .gaussian import PhysicalityError, entanglement_experiment
from .propagate import StepControlError, fewest_steps_dt
from .quadratic import named_model
from .analysis import (
    Dataset,
    SweepGrid,
    base_metadata,
    coupling_curve_data,
    emit,
    params_report,
    regime_map,
    regime_map_dataset,
    render,
    validate,
    xi_asymptote,
    _fmt,
    _json_num,
)


class UsageError(ValueError):
    pass


TABLE_FORMATS = ("csv", "json")
REPORT_FORMATS = ("json",)


def _add_subcommand(subs, name: str, run, help: str, formats=TABLE_FORMATS, config=True):
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(run=run)
    if config:
        sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for interface stability; unused")
    sub.add_argument("--seed", type=int, default=None,
                     help="reserved; all computations are deterministic")
    return sub


def _require_config(args) -> SystemConfig:
    if not args.config:
        raise UsageError("this subcommand requires --config")
    return load_config(args.config)


def _finite_float(text: str) -> float:
    """Type of every float option, and of each number in a list or range option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        return _finite_float(lo), _finite_float(hi), int(count)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad range {text!r}, expected lo:hi:count with finite lo and hi") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [_finite_float(x) for x in text.split(",") if x.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad number list {text!r}: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _output(result: Dataset | dict, args) -> None:
    """Write a table or report to ``--out``, or to stdout without one."""
    if args.out:
        emit(result, args.format, args.out)
    else:
        sys.stdout.write(render(result, args.format))


def _cmd_params(args) -> int:
    _output(params_report(_require_config(args)), args)
    return 0


def _cmd_nulls(args) -> int:
    if args.config:
        if (args.omega_bar, args.kappa) != (None, None):
            raise UsageError("nulls takes --config or --omega-bar/--kappa, not both")
        frame = derive_frame(load_config(args.config))
    else:
        omega_bar = 1.0 if args.omega_bar is None else args.omega_bar
        kappa = 1.0 if args.kappa is None else args.kappa
        frame = frame_from_collective(omega_bar, 0.1 * omega_bar, omega_bar, kappa, 0.1, 0.1)
    nulls = coupling_nulls(frame)
    doc = {
        "metadata": base_metadata(),
        "omega_bar": frame.omega_bar,
        "kappa": frame.kappa,
        "nulls": nulls,
        "interior_nulls_exist": len(nulls) > 1,
    }
    _output(doc, args)
    return 0


def _cmd_fig1(args) -> int:
    _output(coupling_curve_data(args.omega_bar, _parse_floats(args.kappas),
                                _parse_range(args.delta_range)), args)
    return 0


def _cmd_fig2(args) -> int:
    lo, hi, count = _parse_range(args.delta_range)
    grid = SweepGrid(delta_min=lo, delta_max=hi, delta_count=count,
                     kappa_values=tuple(_parse_floats(args.kappas)))
    _output(regime_map_dataset(regime_map(args.delta_omega, grid), args.delta_omega), args)
    return 0


def _cmd_xi_asymptote(args) -> int:
    doc = xi_asymptote(kappa=args.kappa, delta_omega=args.delta_omega,
                       decades=(args.decades[0], args.decades[1]))
    _output(doc, args)
    return 0


def _trajectory_dataset(traj, config) -> Dataset:
    rows = np.column_stack([
        traj.t, traj.n1, traj.n2, traj.n_cav,
        traj.coh.real, traj.coh.imag, traj.trace, traj.trunc_monitor,
    ])
    return Dataset(
        columns=["t", "n1", "n2", "n_cav", "re_coh", "im_coh", "trace", "trunc_monitor"],
        rows=rows,
        metadata=base_metadata(config),
    )


def _cmd_simulate(args) -> int:
    config = _require_config(args)
    frame = derive_frame(config)
    dims = _parse_ints(args.dims)
    quad = named_model(frame, args.model)
    if len(dims) != quad.n_modes:
        raise UsageError(f"--dims needs {quad.n_modes} entries for the {args.model} model")
    space = FockSpace(dims)
    occupations = _parse_ints(args.initial)
    if len(occupations) != quad.n_modes:
        raise UsageError(f"--initial needs {quad.n_modes} occupations")
    rho0 = fock_state(space, occupations)
    dt = args.dt if args.dt is not None else fewest_steps_dt(args.t_end, quad.f_max)
    traj = integrate(quad, space, rho0, args.t_end, dt, stride=args.stride,
                     truncation_tol=args.truncation_tol)
    _output(_trajectory_dataset(traj, config), args)
    return 0


def _cmd_entangle(args) -> int:
    config = _require_config(args)
    frame = derive_frame(config)
    result = entanglement_experiment(frame, r=args.squeezing, t_end=args.t_end, stride=args.stride)
    traj = result.trajectory
    rows = np.column_stack([traj.t, traj.n1, traj.n2, traj.log_negativity, traj.min_symp_eig])
    md = base_metadata(config)
    md["squeezing"] = _fmt(args.squeezing)
    md["xi"] = _fmt(result.xi) if math.isfinite(result.xi) else "unitary-limit"
    md["max_log_negativity"] = _fmt(result.max_log_negativity)
    dataset = Dataset(columns=["t", "n1", "n2", "EN", "min_symp_eig"], rows=rows, metadata=md)
    _output(dataset, args)
    summary = {
        "max_log_negativity": result.max_log_negativity,
        "xi": _json_num(result.xi),
        "regime": interaction_regime(result.xi),
    }
    sys.stderr.write(render(summary, "json"))
    return 0


def _cmd_validate(args) -> int:
    config = _require_config(args)
    protocol = TransferProtocol(
        dims=_parse_ints(args.dims),
        t_end=args.transfer_t_end,
        truncation_tol=args.truncation_tol,
    )
    report = validate(config, transfer_protocol=protocol,
                      n_reduction_draws=args.draws, verbose=args.verbose)
    _output(report, args)
    if args.out:  # the report also goes to stdout
        sys.stdout.write(render(report, args.format))
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="cavmech",
        description="Cavity-mediated coupling of two mechanical modes: "
                    "closed-form rates, regime maps, and simulation engines.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_subcommand(subs, "params", _cmd_params, "derived frame and effective parameters as JSON",
                    REPORT_FORMATS)

    p = _add_subcommand(subs, "nulls", _cmd_nulls, "detunings where the exchange coupling vanishes",
                        REPORT_FORMATS)
    p.add_argument("--omega-bar", type=_finite_float, help="default 1.0; not with --config")
    p.add_argument("--kappa", type=_finite_float, help="default 1.0; not with --config")

    p = _add_subcommand(subs, "fig1", _cmd_fig1, "normalized exchange-coupling curves vs detuning",
                        config=False)
    p.add_argument("--omega-bar", type=_finite_float, default=1.0)
    p.add_argument("--kappas", default="0.5,1,1.5,3")
    p.add_argument("--delta-range", default="-3:3:601")

    p = _add_subcommand(subs, "fig2", _cmd_fig2, "classicality regime map over detuning and decay",
                        config=False)
    p.add_argument("--delta-omega", type=_finite_float, default=0.1,
                   help="mechanical frequency difference over the average frequency")
    p.add_argument("--kappas", default="0.1,0.3,1,3,10")
    p.add_argument("--delta-range", default="-10:10:401")

    p = _add_subcommand(subs, "xi-asymptote", _cmd_xi_asymptote, "log-log growth exponent of the "
                        "coupling-to-noise ratio far from resonance", REPORT_FORMATS, config=False)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.add_argument("--delta-omega", type=_finite_float, default=0.2)
    p.add_argument("--decades", type=_finite_float, nargs=2, default=(2.0, 4.0))

    for name, model in (("simulate-full", "full"), ("simulate-effective", "effective")):
        p = _add_subcommand(subs, name, _cmd_simulate,
                            f"integrate the {model} model, write a trajectory CSV")
        p.add_argument("--t-end", type=_finite_float, default=100.0)
        p.add_argument("--dt", type=_finite_float, default=None)
        p.add_argument("--dims", default="4,4,4" if model == "full" else "4,4")
        p.add_argument("--initial", default="0,1,0" if model == "full" else "1,0")
        p.add_argument("--stride", type=int, default=100)
        p.add_argument("--truncation-tol", type=_finite_float, default=1e-3)
        p.set_defaults(model=model)

    p = _add_subcommand(subs, "entangle", _cmd_entangle, "effective-model run from squeezed "
                        "vacuum, tracking logarithmic negativity")
    p.add_argument("--squeezing", type=_finite_float, default=1.0)
    p.add_argument("--t-end", type=_finite_float, default=500.0)
    p.add_argument("--stride", type=int, default=1)

    p = _add_subcommand(subs, "validate", _cmd_validate, "five-stage cross-module consistency "
                        "pipeline", REPORT_FORMATS)
    p.add_argument("--draws", type=int, default=1000)
    protocol = TransferProtocol()
    p.add_argument("--dims", default=",".join(map(str, protocol.dims)))
    # longer than the protocol's window: the fitted rate depends on the window
    p.add_argument("--transfer-t-end", type=_finite_float, default=600.0)
    p.add_argument("--truncation-tol", type=_finite_float, default=protocol.truncation_tol)
    p.add_argument("--verbose", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FitError, TruncationError, StepControlError, PhysicalityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ValueError covers UsageError, ConfigError and out-of-range numbers
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
